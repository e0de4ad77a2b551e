"""Benchmark of treepolya: CLI verbs end to end, and the package's
layers from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``,
and every file the benchmark writes goes under ``.perfbench/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import bootstrap  # noqa: E402  (caps numeric threads before numpy loads)
import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3     # set-ups per run: this process and two fresh ones
MARGINAL_TIMEOUT = 170


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Op:
    """One verb call of a pass."""

    def __init__(self, verb: str):
        self.verb = verb
        self.seconds = 0.0
        self.error = None
        self.digest = None
        self.bytes_read = 0
        self.bytes_written = 0
        self.trace = None


class Runner:
    """Runs passes of one workload and checks every output: in full on
    the first pass, and by identity with the first pass afterwards."""

    def __init__(self, workload, ctx, corrupt=None):
        self.ctx = ctx
        self.steps = workload.steps(ctx)
        self.first = [None] * len(self.steps)
        self.corrupt = corrupt  # (step index, function of the op's outputs)
        self.ops = []

    def run_pass(self, tracer=None) -> list:
        results = []
        for index, step in enumerate(self.steps):
            op = Op(step.verb)
            if tracer is not None:
                tracer.op = len(self.ops)
            values = None
            try:
                if step.before is not None:
                    step.before()
                if step.model is not None:
                    values = self._marginal(step, op, tracer is not None)
                else:
                    import treepolya.cli
                    began = time.perf_counter()
                    code = treepolya.cli.main(step.argv)
                    op.seconds = time.perf_counter() - began
                    if code != 0:
                        raise RuntimeError(f"exit code {code}")
                op.bytes_read = sum(os.path.getsize(p) for p in step.inputs)
                op.bytes_written = sum(os.path.getsize(p) for p in step.outputs)
                if self.corrupt is not None and self.corrupt[0] == index:
                    self.corrupt[1](step.outputs)
                op.digest = digest(step.outputs) if values is None else \
                    hashlib.sha256(values.tobytes()).hexdigest()
                self._check(index, step, op, values)
            except Exception as exc:  # any failure of the verb counts
                op.error = f"{type(exc).__name__}: {exc}"
                if not isinstance(exc, (checks.CheckFailed, RuntimeError)):
                    traceback.print_exc(file=sys.stderr)
            self.ops.append(op)
            results.append(op)
        return results

    def _check(self, index, step, op, values):
        if self.first[index] is None:
            self.first[index] = op
            if values is None:
                step.check()
            else:
                step.check(values)
            return
        first = self.first[index]
        checks.require(first.error is None,
                       f"{step.verb}: first output failed its check")
        checks.require(op.digest == first.digest,
                       f"{step.verb}: output differs from the first pass")

    def _marginal(self, step, op, traced):
        out = os.path.join(self.ctx.dir, "marginal.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "marginal",
               out, "1" if traced else "0", step.model]
        subprocess.run(cmd, check=True, timeout=MARGINAL_TIMEOUT)
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        op.seconds = result["seconds"]
        op.trace = result if traced else None
        return np.array(result["values"])


def upper_quartile(values) -> float:
    """The upper quartile, interpolated between order statistics; the
    value itself when there is one.

    Pass times use it rather than the median.  On a shared host, a run's
    passes are fast while the neighbours are idle and up to 1.5x slower
    while they are busy, and how many passes fall in the fast state
    changes from run to run; the slow passes are the steadier level.
    See README.md for the measurements."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def pass_seconds(ops) -> float:
    return sum(op.seconds for op in ops)


def verb_seconds(ops) -> dict:
    out = {}
    for op in ops:
        out[op.verb] = out.get(op.verb, 0.0) + op.seconds
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child (the
    marginal workers and set-up probes), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_probe(name: str, seed: int, directory: str) -> float:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "setup", name,
           str(seed), directory]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          timeout=170)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def report_timed(name, runner, passes, setups, sizes):
    ops = runner.ops
    failed = sum(op.error is not None for op in ops)
    per_pass = [pass_seconds(p) for p in passes]
    lines = [f"# {name}: {len(passes)} passes, {len(ops)} operations, "
             f"{failed} failed"]
    verbs = {}
    for p in passes:
        for verb, secs in verb_seconds(p).items():
            verbs.setdefault(verb, []).append(secs)
    for verb, values in verbs.items():
        lines.append(f"{verb}_s = {upper_quartile(values):.6f} s (upper "
                     f"quartile of {len(values)}; median "
                     f"{statistics.median(values):.6f} s)")
    lines.append(f"pass_s = {upper_quartile(per_pass):.6f} s (upper quartile "
                 f"of {len(per_pass)}; median {statistics.median(per_pass):.6f}"
                 " s; passes " + ", ".join(f"{s:.4f}" for s in per_pass) + ")")
    lines.append(f"setup_s = {statistics.median(setups):.6f} s "
                 f"(median of {len(setups)})")
    lines.append(f"peak_rss_mb = {peak_rss_mb():.3f} MB (n=1)")
    lines.append(f"failed_ratio = {failed / len(ops):.6g} 1 "
                 f"({failed} of {len(ops)})")
    for op in ops:
        if op.error is not None:
            lines.append(f"failed {op.verb}: {op.error}")
    for verb, (read, written) in sizes.items():
        lines.append(f"size {verb}: read {read} B, written {written} B")
    lines += getattr(WORKLOADS[name], "size_lines", list)()
    metrics = {
        "pass_s": {"value": upper_quartile(per_pass), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    return lines, metrics, len(ops), failed


def sizes_of(ops) -> dict:
    """Bytes read and written per verb in one pass."""
    out = {}
    for op in ops:
        read, written = out.get(op.verb, (0, 0))
        out[op.verb] = (read + op.bytes_read, written + op.bytes_written)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    bootstrap.import_package()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(bootstrap.WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        ctx = workload.prepare(args.seed, run_dir)
        bootstrap.warm_up(run_dir)
        setups = [time.perf_counter() - START]
        runner = Runner(workload, ctx)
        if args.trace:
            lines, metrics, attempted, failed = layers.traced_run(runner, workload)
        else:
            for k in range(1, SETUP_SAMPLES):
                setups.append(setup_probe(workload.name, args.seed,
                                          os.path.join(run_dir, f"probe{k}")))
            passes = []
            began = time.perf_counter()
            while True:
                passes.append(runner.run_pass())
                elapsed = time.perf_counter() - began
                # stop before a pass that would end after --seconds
                if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                    break
            lines, metrics, attempted, failed = report_timed(
                workload.name, runner, passes, setups, sizes_of(passes[0]))
        import machine
        result = {"workload": workload.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine.fingerprint(), "lines": lines,
                  "metrics": metrics}
        os.makedirs(os.path.join(bootstrap.WORK, "results"), exist_ok=True)
        with open(os.path.join(bootstrap.WORK, "results",
                               f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"machine {json.dumps(result['machine'], sort_keys=True)}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        worst = max(worst, done.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
