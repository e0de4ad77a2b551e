"""Fresh-process helpers of the benchmark.

    python3 perfbench/worker.py setup WORKLOAD SEED DIR
        time one set-up (import of treepolya, inputs, warm-up) from
        process start, and print it as JSON.
    python3 perfbench/worker.py marginal OUT TRACE MODEL
        evaluate marginal_pmf(leaf_marginal_chain(j), n) for every leaf
        j and n < workloads.MARGINAL_N of the model, in a process that
        has evaluated no chain yet, and write values, time and peak
        memory growth (and with TRACE=1 the spans) to OUT.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import bootstrap  # noqa: E402


def setup(workload: str, seed: int, directory: str) -> float:
    """Everything a run does before its first timed step; returns its
    duration from process start."""
    bootstrap.import_package()
    from workloads import WORKLOADS
    WORKLOADS[workload].prepare(seed, directory)
    bootstrap.warm_up(directory)
    return time.perf_counter() - START


def marginal(out: str, traced: bool, model_path: str) -> None:
    treepolya = bootstrap.import_package()
    import resource
    import numpy as np
    from workloads import MARGINAL_N
    bootstrap.load_lazy()
    from treepolya.io import parse_model
    with open(model_path, encoding="utf-8") as fh:
        model = parse_model(fh.read())[0]
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    leaves = range(1, model.tree.leaf_count + 1)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    began = time.perf_counter()
    values = [[treepolya.model.marginal_pmf(model.leaf_marginal_chain(j), n)
               for n in range(MARGINAL_N)] for j in leaves]
    seconds = time.perf_counter() - began
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"values": np.array(values).tolist(), "seconds": seconds,
              # growth of the peak resident set during the calls, in bytes
              "peak_bytes": max(0, rss_after - rss_before) * 1024}
    if tracer is not None:
        tracer.remove()
        result["spans"] = {k: v.tolist() for k, v in tracer.spans().items()}
        result["counters"] = tracer.counters
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    kind = sys.argv[1]
    if kind == "setup":
        seconds = setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])
        print(json.dumps({"setup_s": seconds}))
    elif kind == "marginal":
        marginal(sys.argv[2], sys.argv[3] == "1", sys.argv[4])
    else:
        raise SystemExit(f"unknown worker kind {kind!r}")
