"""Process set-up shared by the benchmark's entry points.

Runs numeric libraries on one thread before numpy loads, and imports
``treepolya`` from ``src/`` of the checkout that holds this directory,
failing if it is not there.  One thread, because each workload is a
single caller: a second BLAS thread made the first call of a verb up
to twice as slow and spun on the machine's other core.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def import_package():
    """Import the package under test from this checkout's ``src/``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import treepolya
        import treepolya.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import treepolya from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(treepolya.__file__))
    if where != os.path.join(SRC, "treepolya"):
        raise SystemExit(f"perfbench: treepolya was imported from {where}, "
                         f"not from {SRC}")
    return treepolya


def load_lazy() -> None:
    """Load what the package loads lazily: mpmath, on the first series
    that falls back to arbitrary precision."""
    import treepolya.special
    # an alternating series whose terms dwarf its sum takes the fallback
    treepolya.special.pfq_convergent([40.0], [], -0.9)
    if "mpmath" not in sys.modules:
        raise SystemExit("perfbench: warm-up did not load mpmath")


def warm_up(directory: str) -> None:
    """Load what the package loads lazily, and run every CLI verb once on
    a tiny input, so that each verb's code paths have run once."""
    import numpy as np
    import treepolya.cli
    from gen import (column_names, counts_csv, draw_rows, model_json,
                     ten_leaf_spec, tree_json, write, TEN_LEAF_NESTED)
    load_lazy()
    spec = ten_leaf_spec(10.0, 0.95)
    names = column_names(10)
    rows = draw_rows(spec, 30, np.random.default_rng(0))
    files = {"model": model_json(spec, names),
             "tree": tree_json(TEN_LEAF_NESTED, names),
             "data": counts_csv(rows, names),
             "data4": counts_csv(rows[:, :4], names[:4])}
    path = {k: os.path.join(directory, f"warmup_{k}") for k in
            ("model", "tree", "data", "data4", "out", "report")}
    for key, text in files.items():
        write(path[key], text)
    out = ["--out", path["out"]]
    calls = [["describe", "--model", path["model"]],
             ["moments", "--model", path["model"]],
             ["corr", "--model", path["model"]],
             ["pmf", "--model", path["model"], "--obs", path["data"]],
             ["sample", "--model", path["model"], "--n", "1000", "--seed", "1"],
             ["fit", "--data", path["data"], "--tree", path["tree"],
              "--report", path["report"]],
             ["search", "--data", path["data4"], "--report", path["report"]]]
    for argv in calls:
        if treepolya.cli.main(argv + out) != 0:
            raise SystemExit(f"perfbench: warm-up {argv[0]} failed")
