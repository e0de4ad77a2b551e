"""Seeded input generators for the benchmark, written with numpy alone.

The package under test is never used here: a change to its sampler or
its serializer cannot change the inputs.  Every generator is a pure
function of its seed, and the files it writes are byte-identical for
the same seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

# The 10-leaf worked example (examples.TEN_LEAF_NESTED / ten_leaf_example),
# copied so that the inputs stay fixed if the package's example changes.
TEN_LEAF_NESTED = [[1, 2], 3, [[4, 5], [6, 7], [8, [9, 10]]]]
TEN_LEAF_SPLITS = {
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10): (0, (0.3, 0.1, 0.6)),
    (1, 2): (1, (1.5, 1.5)),
    (4, 5, 6, 7, 8, 9, 10): (1, (3.0, 3.5, 3.5)),
    (4, 5): (0, (0.5, 0.5)),
    (6, 7): (1, (0.8, 1.0)),
    (8, 9, 10): (1, (1.0, 2.5)),
    (9, 10): (0, (0.3, 0.7)),
}


def leaves_of(node) -> list:
    if isinstance(node, int):
        return [node]
    return [j for child in node for j in leaves_of(child)]


def column_names(count: int) -> list:
    return [f"y{j}" for j in range(1, count + 1)]


class Spec:
    """A model as plain data: nested leaf labels, one ``(c, theta)`` per
    internal node keyed by its sorted leaf tuple, and NB(alpha, p)."""

    def __init__(self, nested, splits: dict, alpha: float, p: float):
        self.nested = nested
        self.splits = splits
        self.alpha = alpha
        self.p = p
        self.leaf_count = len(leaves_of(nested))

    def internal_nodes(self):
        """(leaf tuple, child list) for every internal node, root first."""
        stack = [self.nested]
        while stack:
            node = stack.pop()
            yield tuple(sorted(leaves_of(node))), node
            stack.extend(ch for ch in reversed(node) if not isinstance(ch, int))


def ten_leaf_spec(alpha: float, p: float) -> Spec:
    return Spec(TEN_LEAF_NESTED, TEN_LEAF_SPLITS, alpha, p)


def cascade_spec(leaf_count: int, dm_precision: float, alpha: float,
                 p: float) -> Spec:
    """Binary cascade [1, [2, [..., [J-1, J]]]] whose splits alternate
    Dirichlet-multinomial and multinomial from the root.  A node over m
    leaves gives its leaf child weight 1/m of its total, so every leaf
    has the same mean."""
    nested = [leaf_count - 1, leaf_count]
    for label in range(leaf_count - 2, 0, -1):
        nested = [label, nested]
    splits = {}
    for depth in range(leaf_count - 1):
        m = leaf_count - depth
        scale = dm_precision if depth % 2 == 0 else 1.0
        c = 1 if depth % 2 == 0 else 0
        splits[tuple(range(depth + 1, leaf_count + 1))] = \
            (c, (scale / m, scale * (m - 1) / m))
    return Spec(nested, splits, alpha, p)


def nb_quantile_totals(alpha: float, p: float, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """n NB(alpha, p) totals, stratified: the quantiles at (i + 1/2)/n in
    a seeded order.  P(y) = (alpha)_y / y! p^y (1-p)^alpha.

    Stratifying keeps the largest totals, which set the cost of every
    survival-count fit, the same for every seed; the seed still sets the
    row order and every split below the root.
    """
    mean = alpha * p / (1.0 - p)
    sd = np.sqrt(alpha * p) / (1.0 - p)
    k = np.arange(int(mean + 60.0 * sd + 100))
    log_step = np.log((alpha + k[:-1]) / (k[:-1] + 1.0) * p)
    log_pmf = alpha * np.log1p(-p) + np.concatenate(([0.0], np.cumsum(log_step)))
    cdf = np.cumsum(np.exp(log_pmf))
    u = (np.arange(n) + 0.5) / n
    return rng.permutation(np.searchsorted(cdf, u).astype(np.int64))


def draw_rows(spec: Spec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows from the model: stratified NB totals, then at each node a
    Dirichlet draw (Dirichlet-multinomial) or the fixed proportions
    (multinomial), then a multinomial, from the root down."""
    counts = np.zeros((n, spec.leaf_count), dtype=np.int64)
    node_totals = {tuple(range(1, spec.leaf_count + 1)):
                   nb_quantile_totals(spec.alpha, spec.p, n, rng)}
    for key, node in spec.internal_nodes():
        c, theta = spec.splits[key]
        theta = np.asarray(theta, dtype=float)
        if c == 1:
            probs = rng.dirichlet(theta, size=n)
        else:
            probs = np.broadcast_to(theta / theta.sum(), (n, theta.size))
        parts = rng.multinomial(node_totals.pop(key), probs)
        for k, child in enumerate(node):
            if isinstance(child, int):
                counts[:, child - 1] = parts[:, k]
            else:
                node_totals[tuple(sorted(leaves_of(child)))] = parts[:, k]
    return counts


def planted_groups_rows(n: int, groups: tuple, root_precision: float,
                        group_precision: tuple, alpha: float, p: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Flat-looking data with planted groups: the total is split over the
    groups by a Dirichlet-multinomial, then each group over its columns
    by an exchangeable Dirichlet-multinomial of the given precision."""
    sizes = np.asarray(groups)
    nested, start = [], 1
    splits = {}
    for size, precision in zip(sizes, group_precision):
        members = list(range(start, start + size))
        nested.append(members)
        splits[tuple(members)] = (1, tuple([precision / size] * size))
        start += size
    root_theta = tuple(root_precision * sizes / sizes.sum())
    splits[tuple(range(1, start))] = (1, root_theta)
    return draw_rows(Spec(nested, splits, alpha, p), n, rng)


# ---------------------------------------------------------------------
# Files


def counts_csv(rows: np.ndarray, names) -> str:
    lines = [",".join(names)]
    lines.extend(",".join(map(str, row)) for row in rows.tolist())
    return "\n".join(lines) + "\n"


def _node_doc(spec: Spec, node, names) -> dict:
    if isinstance(node, int):
        return {"leaf": names[node - 1]}
    c, theta = spec.splits[tuple(sorted(leaves_of(node)))]
    if c == 0:
        total = sum(theta)
        theta = tuple(t / total for t in theta)
    return {"children": [_node_doc(spec, ch, names) for ch in node],
            "split": {"c": c, "theta": [float(t) for t in theta]}}


def model_json(spec: Spec, names) -> str:
    """Model document in the package's schema version 1."""
    doc = {"schema_version": "1",
           "sum_law": {"family": "nb",
                       "params": {"alpha": spec.alpha, "p": spec.p}},
           "tree": _node_doc(spec, spec.nested, names)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def tree_json(nested, names) -> str:
    def to_names(node):
        return names[node - 1] if isinstance(node, int) \
            else [to_names(ch) for ch in node]
    return json.dumps(to_names(nested)) + "\n"


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_all(directory: str, files: dict) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, text in files.items():
        write(os.path.join(directory, name), text)
