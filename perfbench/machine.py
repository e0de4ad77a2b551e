"""Machine fingerprint stored with every result."""

from __future__ import annotations

import os
import platform


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
            "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__}
