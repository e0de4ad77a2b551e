"""Command-line interface: fit, search, pmf, sample, moments, corr,
describe."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .exceptions import TreePolyaError, UsageError
from .fit import fit_tree, search_tree
from .io import (_csv_line, _json_loads, load_counts_csv, parse_model,
                 serialize_model, write_counts_csv)
from .model import TreePolyaModel
from .polya import SUM_LAWS
from .tree import PartitionTree, _subset_label

# cells (rows x leaves) in a block of `sample`, drawn from one stream:
# block 0 from the seed's generator, block b >= 1 from its b-th spawned
# child.  4 MB of int64 counts per block whatever J is; on 2 vCPUs 2**19
# drew a 200-leaf cascade's 10 000 rows fastest of 2**16 to 2**21
SAMPLE_BLOCK_CELLS = 1 << 19


def _read_model(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header: Sequence[str], rows) -> str:
    """CSV text of a small mixed-type table (reports, moments, corr);
    count matrices go through :func:`write_counts_csv`."""
    lines = [_csv_line(header)]
    lines.extend(_csv_line(row) for row in rows)
    return "\n".join(lines) + "\n"


def _report_csv(report: dict) -> str:
    rows = []
    for row in report["rows"]:
        rows.append([row["node"], row["kind"], row["n_params"],
                     f"{row['log_lik']:.6f}", f"{row['aic']:.6f}"])
    rows.append(["total", "", report["total_params"], "",
                 f"{report['total_aic']:.6f}"])
    return _csv_text(["node", "kind", "n_params", "log_lik", "aic"], rows)


def _tree_from_file(path: str, column_names: Sequence[str]):
    """Nested-list tree file whose leaves are column names (or the
    node-record form produced by serialized models), read without
    recursion."""
    with open(path, encoding="utf-8") as fh:
        raw = _json_loads(fh.read())
    if isinstance(raw, dict) and "tree" in raw:
        raw = raw["tree"]
    index = {name: j + 1 for j, name in enumerate(column_names)}
    top: list = []
    stack = [(raw, top)]
    while stack:
        node, siblings = stack.pop()
        if isinstance(node, dict) and "leaf" in node:
            node = node["leaf"]
        elif isinstance(node, dict) and "children" in node:
            node = node["children"]
        if isinstance(node, list):
            nested: list = []
            siblings.append(nested)
            stack.extend((child, nested) for child in reversed(node))
        elif isinstance(node, (str, int)):
            if str(node) not in index:
                raise UsageError(f"tree leaf {str(node)!r} is not a data "
                                 "column")
            siblings.append(index[str(node)])
        else:
            raise UsageError("tree JSON must be nested lists of column names")
    if not isinstance(top[0], list):
        raise UsageError("tree root must have at least two children")
    return PartitionTree.from_nested(top[0])


def _cmd_fit(args) -> None:
    data = load_counts_csv(args.data)
    if args.tree is not None:
        tree = _tree_from_file(args.tree, data.column_names)
    else:
        tree = PartitionTree.flat(data.n_columns)
    model, report = fit_tree(tree, data.rows, family=args.sum_law)
    _write_text(args.out, serialize_model(model, data.column_names))
    _write_text(args.report, _report_csv(report))


def _cmd_search(args) -> None:
    data = load_counts_csv(args.data)
    model, report, trace = search_tree(data.rows, family=args.sum_law)
    _write_text(args.out, serialize_model(model, data.column_names))
    if args.trace is not None:
        rows = [[t["move"], t["parent"], _subset_label(t["node"]),
                 f"{t['delta_aic']:.6f}"] for t in trace]
        _write_text(args.trace,
                    _csv_text(["move", "parent", "node", "delta_aic"], rows))
    _write_text(args.report, _report_csv(report))


def _cmd_pmf(args) -> None:
    model, names = _read_model(args.model)
    data = load_counts_csv(args.obs)
    if set(data.column_names) != set(names):
        raise UsageError("observation columns do not match the model's "
                         f"leaves: {data.column_names} vs {names}")
    order = [data.column_names.index(name) for name in names]
    values = model.joint_log_pmf_many(data.rows[:, order])
    # an index and a formatted float never need CSV quoting
    _write_text(args.out, "row,log_pmf\n" + "".join(
        f"{i},{logp:.12g}\n" for i, logp in enumerate(values.tolist(), 1)))


def _sample_blocks(model: TreePolyaModel, n: int,
                   seed: int) -> Iterator[np.ndarray]:
    """``n`` exact draws from ``model`` as row blocks, in order.

    A block has ``max(1, SAMPLE_BLOCK_CELLS // J)`` rows for J leaves
    (the last one fewer), so a block's counts take the same memory
    whatever J is; a sample of at most that many rows is one block.
    Block 0 is drawn from ``default_rng(seed)`` itself and block b >= 1
    from the b-th of that generator's spawned children, so the rows
    depend only on the model, ``seed`` and ``n``.  Blocks are drawn on
    one thread per usable CPU (numpy's array draws release the GIL), at
    most workers + 1 of them ahead of the block last yielded, so memory
    is bounded by the blocks in flight.  Closing the generator cancels
    the queued blocks and waits for the running ones."""
    rows = max(1, SAMPLE_BLOCK_CELLS // model.tree.leaf_count)
    rng = np.random.default_rng(seed)
    starts = range(0, n, rows)
    streams = [rng, *rng.spawn(len(starts) - 1)]
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        workers = os.cpu_count() or 1
    pool = ThreadPoolExecutor(workers)
    try:
        pending: deque = deque()
        for start, stream in zip(starts, streams):
            size = min(rows, n - start)
            pending.append(pool.submit(model.sample_many, size, stream))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_sample(args) -> None:
    model, names = _read_model(args.model)
    if args.n <= 0:
        raise UsageError("--n must be positive")
    with contextlib.closing(_sample_blocks(model, args.n, args.seed)) \
            as blocks:
        write_counts_csv(args.out, blocks, names)


def _cmd_moments(args) -> None:
    model, names = _read_model(args.model)
    report = model.dispersion_report()
    labels = list(range(1, model.tree.leaf_count + 1))
    if args.leaf is not None:
        if args.leaf not in names:
            raise UsageError(f"unknown leaf {args.leaf!r}")
        labels = [names.index(args.leaf) + 1]
    rows = []
    for j in labels:
        node = model.tree.leaf_node(j)
        mean = model.node_mean(node)
        var = model.node_variance(node)
        row = [names[j - 1], f"{mean:.12g}", f"{var:.12g}",
               report["nodes"][node]["dispersion"]]
        if args.order is not None:
            row.append(f"{model.node_factorial_moment(node, args.order):.12g}")
        rows.append(row)
    header = ["leaf", "mean", "variance", "dispersion"]
    if args.order is not None:
        header.append(f"factorial_moment_{args.order}")
    _write_text(args.out, _csv_text(header, rows))


def _cmd_corr(args) -> None:
    model, names = _read_model(args.model)
    matrix = model.correlation_matrix()
    # only the names may need quoting: a formatted float never does
    cells = ",".join(["%.12g"] * len(names))
    lines = [_csv_line([""] + list(names))]
    lines.extend(f"{_csv_line([name])},{cells % tuple(row)}"
                 for name, row in zip(names, matrix.tolist()))
    _write_text(args.out, "\n".join(lines) + "\n")


def _render_tree(model: TreePolyaModel, names) -> List[str]:
    """One line per node, parents first, indented two spaces a level."""
    tree = model.tree
    lines, stack = [], [(tree.ROOT, "")]
    while stack:
        node, indent = stack.pop()
        if tree.is_leaf(node):
            lines.append(f"{indent}{names[tree.subset(node)[0] - 1]}")
            continue
        spec = model.splits[node]
        kind = {-1: "hypergeometric", 0: "multinomial",
                1: "dirichlet-multinomial"}[spec.c]
        theta = ", ".join(f"{t:.6g}" for t in spec.theta)
        lines.append(f"{indent}+ {kind} [{theta}]")
        stack.extend((child, indent + "  ")
                     for child in reversed(tree.children(node)))
    return lines


def _cmd_describe(args) -> None:
    model, names = _read_model(args.model)
    lines = [f"sum law: {model.sum_law}"]
    lines.append(f"leaves: {len(names)}")
    lines.append(f"parameters: {model.parameter_count}")
    lines.extend(_render_tree(model, names))
    _write_text(args.out, "\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treepolya",
        description="Tree-structured Polya splitting models for "
                    "multivariate counts: exact evaluation, sampling, "
                    "fitting, and structure search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model on a fixed tree")
    p.add_argument("--data", required=True)
    p.add_argument("--tree", default=None,
                   help="nested-list JSON of column names (default: flat)")
    p.add_argument("--sum-law", default="nb", choices=list(SUM_LAWS))
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("search", help="greedy AIC tree search")
    p.add_argument("--data", required=True)
    p.add_argument("--sum-law", default="nb", choices=list(SUM_LAWS))
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("pmf", help="per-row joint log-pmf")
    p.add_argument("--model", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("sample", help="exact samples from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("moments", help="per-leaf mean/variance/dispersion")
    p.add_argument("--model", required=True)
    p.add_argument("--leaf", default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("corr", help="leaf correlation matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("describe", help="tree and parameter summary")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_describe)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except TreePolyaError as exc:
        sys.stderr.write(f"error[{exc.category}]: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error[io]: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
