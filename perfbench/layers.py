"""The traced run: per-layer metrics of one workload.

A first untraced pass checks every output and warms the process; a
traced pass and a second untraced pass follow, and the difference of
their times is the tracing overhead.  Per-function self
times come from the spans (see tracing.py).  In the JSON line a self
time is given in seconds for the functions every workload calls, and
otherwise as a share of the traced pass, since an idle function's self
time would read 0 s on every run.
"""

from __future__ import annotations

import os

import numpy as np

import bootstrap
import tracing

# functions that every workload calls: their self time goes out in s
ALWAYS_CALLED = ("cli.main", "io.parse_model", "tree.from_nested",
                 "tree.leaf_node", "special.ln_gen_factorial",
                 "polya.sumlaw_log_pmf")
CALLS = ("fit.fit_node_dm", "model.joint_log_pmf", "model.path_constants",
         "model.node_factorial_moment", "model.marginal_pmf", "polya.polya_pmf",
         "polya.sumlaw_log_pmf", "special.ln_gen_factorial",
         "special.pfq_convergent", "special.pfq_terminating",
         "special.mpmath_fallback", "tree.leaf_node", "tree.common_ancestor")
SELF = ("fit.fit_node_dm", "fit.search_tree", "fit.fit_node_multinomial",
        "fit.fit_sum_law", "fit.fit_tree", "model.joint_log_pmf",
        "model.correlation_matrix", "model.node_factorial_moment",
        "model.sample_many", "model.marginal_pmf", "polya.polya_pmf",
        "polya.sumlaw_log_pmf", "polya.polya_sample_many",
        "polya.sumlaw_sample_many", "special.ln_gen_factorial",
        "special.pfq_convergent", "tree.leaf_node", "tree.common_ancestor",
        "tree.from_nested", "io.load_counts_csv", "io.parse_model",
        "io.serialize_model", "cli.main")


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for name in CALLS:
        specs.append((f"{name}.calls", "count", "lower"))
    for name in SELF:
        if name in ALWAYS_CALLED:
            specs.append((f"{name}.self_s", "s", "lower"))
        else:
            specs.append((f"{name}.self_share", "1", "lower"))
    specs += [("fit.fit_node_dm.iterations", "count", "lower"),
              ("fit.fit_node_dm.converged_ratio", "1", "higher"),
              ("fit.fit_node_dm.diverged", "count", "lower"),
              ("fit.fit_node_dm.failed", "count", "lower"),
              ("fit.search_tree.moves", "count", "lower"),
              ("fit.dm_fits_per_move", "1", "lower"),
              ("model.marginal_pmf.peak_mb", "MB", "lower"),
              ("marginal.p045.mpmath_fallback.calls", "count", "lower"),
              ("marginal.p045.peak_mb", "MB", "lower"),
              ("marginal.p099.peak_mb", "MB", "lower"),
              ("special.mpmath_fallback_ratio", "1", "lower"),
              ("io.load_counts_csv.bytes", "B", "lower"),
              ("cli.bytes_written", "B", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(runner, workload):
    """Untraced, traced and untraced pass; returns (lines, metrics,
    attempted, failed) for the per-layer report."""
    runner.run_pass()  # first pass: full checks, memory and caches warm
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(tracer)
    finally:
        tracer.remove()
    plain = runner.run_pass()
    spans = tracer.spans()
    base = len(runner.ops) - len(traced) - len(plain)
    workers = []
    for k, op in enumerate(traced):
        if op.trace is not None:
            workers.append((base + k, op.trace))
            spans = tracing.merge(spans, op.trace["spans"], base + k)
            for key, value in op.trace["counters"].items():
                tracer.counters[key] += value
    labels = [f"{k}:{op.verb}" for k, op in enumerate(runner.ops)]
    tracing.save(os.path.join(bootstrap.WORK, "spans",
                              f"{workload.name}-seed{runner.ctx.seed}.npz"),
                 spans, labels)

    stats = tracing.summarize(spans)
    traced_s = sum(op.seconds for op in traced)
    plain_s = sum(op.seconds for op in plain)
    counters = tracer.counters
    dm = stats["fit.fit_node_dm"]["calls"]
    search_ops = [base + k for k, op in enumerate(traced) if op.verb == "search"]
    dm_in_search = int(np.sum((spans["name"] == tracing.NAMES.index("fit.fit_node_dm"))
                              & np.isin(spans["op"], search_ops)))
    moves = counters["fit.search_tree.moves"]
    # marginal-tails runs NB(2, 0.45) first, then NB(2, 0.99)
    peaks = [w["peak_bytes"] for _, w in workers] or [0, 0]
    fallback = tracing.NAMES.index("special.mpmath_fallback")
    p045_fallbacks = int(np.sum((spans["name"] == fallback)
                                & (spans["op"] == workers[0][0]))) if workers else 0

    values = {}
    for name in CALLS:
        values[f"{name}.calls"] = stats[name]["calls"]
    for name in SELF:
        values[f"{name}.self_s"] = stats[name]["self_s"]
        values[f"{name}.self_share"] = _ratio(stats[name]["self_s"], traced_s)
    values.update({
        "fit.fit_node_dm.iterations": counters["fit.fit_node_dm.iterations"],
        "fit.fit_node_dm.converged_ratio": _ratio(
            counters["fit.fit_node_dm.converged"], dm),
        "fit.fit_node_dm.diverged": counters["fit.fit_node_dm.diverged"],
        "fit.fit_node_dm.failed": counters["fit.fit_node_dm.failed"],
        "fit.search_tree.moves": moves,
        "fit.dm_fits_per_move": _ratio(dm_in_search, moves),
        "model.marginal_pmf.peak_mb": max(peaks) / 2 ** 20,
        "marginal.p045.mpmath_fallback.calls": p045_fallbacks,
        "marginal.p045.peak_mb": peaks[0] / 2 ** 20,
        "marginal.p099.peak_mb": peaks[1] / 2 ** 20,
        "special.mpmath_fallback_ratio": _ratio(
            stats["special.mpmath_fallback"]["calls"],
            stats["special.pfq_convergent"]["calls"]),
        "io.load_counts_csv.bytes": counters["io.load_counts_csv.bytes"],
        "cli.bytes_written": sum(op.bytes_written for op in traced
                                 if op.verb != "marginal"),
        "trace.overhead_s": traced_s - plain_s,
    })

    ops = runner.ops
    failed = sum(op.error is not None for op in ops)
    lines = [f"# {workload.name}: traced pass {traced_s:.6f} s, next untraced "
             f"pass {plain_s:.6f} s, tracing overhead {traced_s - plain_s:.6f} s; "
             f"{len(ops)} operations, {failed} failed; "
             f"{spans['name'].size} spans"]
    for op in ops:
        if op.error is not None:
            lines.append(f"failed {op.verb}: {op.error}")
    for name in tracing.NAMES:
        lines.append(f"{name}.calls = {stats[name]['calls']}")
        lines.append(f"{name}.self_s = {stats[name]['self_s']:.6f} s")
    for key in sorted(values):
        if not key.endswith((".calls", ".self_s", ".self_share")):
            lines.append(f"{key} = {values[key]:.6g}")
    lines += premises(workload.name, spans, traced, base, peaks, p045_fallbacks)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in metric_specs()}
    return lines, metrics, len(ops), failed


def _self_in(spans, prefixes, op_ids) -> float:
    names = [k for k, n in enumerate(tracing.NAMES) if n.startswith(prefixes)]
    mask = np.isin(spans["name"], names) & np.isin(spans["op"], op_ids)
    return float(spans["self_s"][mask].sum())


def premises(name, spans, traced, base, peaks, p045_fallbacks) -> list:
    """The traced evidence for why the workload was chosen."""
    def ops_of(verb):
        ids = [base + k for k, op in enumerate(traced) if op.verb == verb]
        return ids, sum(op.seconds for op in traced if op.verb == verb)

    def share(label, prefixes, verb):
        ids, total = ops_of(verb)
        part = _self_in(spans, prefixes, ids)
        verdict = "holds" if part > 0.5 * total else "DOES NOT HOLD"
        return (f"premise {label} self time is {part:.4f} of {total:.4f} s "
                f"traced {verb}_s ({_ratio(part, total):.1%}): {verdict}")

    if name == "search-wide":
        return [share("fit.fit_node_dm", ("fit.fit_node_dm",), "search")]
    if name == "tall-eval":
        return [share("model+polya+special", ("model.", "polya.", "special."),
                      "pmf")]
    if name == "deep-cascade":
        return [share("model+tree", ("model.", "tree."), "corr")]
    low, high = peaks
    return [f"premise special.mpmath_fallback.calls under p=0.45 is "
            f"{p045_fallbacks}: " + ("holds" if p045_fallbacks > 0
                                     else "DOES NOT HOLD"),
            f"premise model.marginal_pmf.peak_mb {high / 2**20:.1f} MB under "
            f"p=0.99 vs {low / 2**20:.1f} MB under p=0.45: "
            + ("holds" if high > low else "DOES NOT HOLD")]
