"""Self-test of the benchmark: its generators and its output checks.

    python3 perfbench/selftest.py

1. Each workload's inputs are byte-identical for the same seed and
   differ for another seed (marginal-tails has fixed models; its seed
   only picks the points checked).
2. On tall-eval, one pass runs clean, then one pass each with a p.m.f.
   value changed, the correlations perturbed, and the sample file
   truncated.  The matching check must fail, and only that operation.

Exits non-zero if any expectation fails.
"""

import os
import shutil
import sys

import bootstrap
import gen
from workloads import WORKLOADS

WORK = os.path.join(bootstrap.WORK, f"selftest-{os.getpid()}")


def files_of(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generators(report):
    for workload in WORKLOADS.values():
        seen = []
        for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
            directory = os.path.join(WORK, f"{workload.name}-{tag}")
            workload.prepare(seed, directory)
            seen.append(files_of(directory))
        report(f"{workload.name}: same seed gives the same bytes",
               seen[0] == seen[1])
        if workload.name != "marginal-tails":
            report(f"{workload.name}: another seed gives other bytes",
                   seen[0] != seen[2])


def test_ten_leaf_copy(report):
    from treepolya.examples import ten_leaf_example
    from treepolya.io import parse_model
    model = ten_leaf_example()
    text = gen.model_json(gen.ten_leaf_spec(10.0, 0.95), gen.column_names(10))
    report("the copied 10-leaf example matches the package's",
           parse_model(text)[0] == model)


def test_benchmark_json(report):
    import json
    import layers
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    report("BENCHMARK.json names the workloads defined here",
           doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in WORKLOADS.values()])
    report("BENCHMARK.json lists the per-layer metrics a traced run prints",
           doc["per_layer"] == [{"name": n, "unit": u, "better": b}
                                for n, u, b in layers.metric_specs()])


def change_pmf(outputs):
    path = outputs[0]
    lines = open(path, encoding="utf-8").read().split("\n")
    row, value = lines[1].split(",")
    lines[1] = f"{row},{float(value) * (1 + 1e-6):.12g}"
    gen.write(path, "\n".join(lines))


def perturb_corr(outputs):
    path = outputs[0]
    lines = open(path, encoding="utf-8").read().rstrip("\n").split("\n")
    table = [line.split(",") for line in lines]
    for i in range(1, len(table)):
        for j in range(1, len(table)):
            if i != j:
                table[i][j] = f"{float(table[i][j]) * (1 + 1e-6):.12g}"
    gen.write(path, "\n".join(",".join(r) for r in table) + "\n")


def truncate_sample(outputs):
    path = outputs[0]
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size // 2 + 3)


def test_checks(report):
    from run import Runner
    workload = WORKLOADS["tall-eval"]
    ctx = workload.prepare(5, os.path.join(WORK, "checks"))
    clean = Runner(workload, ctx)
    ops = clean.run_pass()
    verbs = [op.verb for op in ops]
    report(f"clean pass: failed_ratio 0 of {len(ops)}",
           all(op.error is None for op in ops),
           "; ".join(str(op.error) for op in ops if op.error))
    for verb, corrupt in (("pmf", change_pmf), ("corr", perturb_corr),
                          ("sample", truncate_sample)):
        runner = Runner(workload, ctx, corrupt=(verbs.index(verb), corrupt))
        ops = runner.run_pass()
        failed = [op.verb for op in ops if op.error is not None]
        errors = "; ".join(op.error for op in ops if op.error)
        report(f"corrupted {verb}: failed_ratio {len(failed)} of {len(ops)} "
               f"({errors})", failed == [verb])


def main():
    bootstrap.import_package()
    failures = []

    def report(label, ok, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(label)

    try:
        test_generators(report)
        test_ten_leaf_copy(report)
        test_benchmark_json(report)
        test_checks(report)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
