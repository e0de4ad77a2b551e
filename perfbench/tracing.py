"""Span tracing of the package's public functions, from outside.

A :class:`Tracer` wraps each traced function at every place it is bound:
the defining module, every ``treepolya`` module that imported it with
``from ... import ...``, or the class that owns it.  Each call records a
span (name, start, end, parent span, operation id) in flat in-memory
arrays; :meth:`Tracer.remove` puts the original objects back.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

# (span name, defining module, attribute path)
TARGETS = [
    ("fit.fit_node_dm", "treepolya.fit", "fit_node_dm"),
    ("fit.search_tree", "treepolya.fit", "search_tree"),
    ("fit.fit_node_multinomial", "treepolya.fit", "fit_node_multinomial"),
    ("fit.fit_sum_law", "treepolya.fit", "fit_sum_law"),
    ("fit.fit_tree", "treepolya.fit", "fit_tree"),
    ("model.joint_log_pmf", "treepolya.model", "TreePolyaModel.joint_log_pmf"),
    ("model.correlation_matrix", "treepolya.model",
     "TreePolyaModel.correlation_matrix"),
    ("model.path_constants", "treepolya.model", "TreePolyaModel.path_constants"),
    ("model.node_factorial_moment", "treepolya.model",
     "TreePolyaModel.node_factorial_moment"),
    ("model.sample_many", "treepolya.model", "TreePolyaModel.sample_many"),
    ("model.marginal_pmf", "treepolya.model", "marginal_pmf"),
    ("polya.polya_pmf", "treepolya.polya", "polya_pmf"),
    ("polya.sumlaw_log_pmf", "treepolya.polya", "sumlaw_log_pmf"),
    ("polya.polya_sample_many", "treepolya.polya", "polya_sample_many"),
    ("polya.sumlaw_sample_many", "treepolya.polya", "sumlaw_sample_many"),
    ("special.ln_gen_factorial", "treepolya.special", "ln_gen_factorial"),
    ("special.pfq_convergent", "treepolya.special", "pfq_convergent"),
    ("special.pfq_terminating", "treepolya.special", "pfq_terminating"),
    # pfq_convergent imports mpmath lazily and calls mpmath.hyper when
    # the double-precision series has lost its digits
    ("special.mpmath_fallback", "mpmath", "hyper"),
    ("tree.leaf_node", "treepolya.tree", "PartitionTree.leaf_node"),
    ("tree.common_ancestor", "treepolya.tree", "PartitionTree.common_ancestor"),
    ("tree.from_nested", "treepolya.tree", "PartitionTree.from_nested"),
    ("io.load_counts_csv", "treepolya.io", "load_counts_csv"),
    ("io.parse_model", "treepolya.io", "parse_model"),
    ("io.serialize_model", "treepolya.io", "serialize_model"),
    ("cli.main", "treepolya.cli", "main"),
]
NAMES = [name for name, _, _ in TARGETS]


class Tracer:
    """Install with :meth:`install`, set :attr:`op` before each verb call,
    read :meth:`spans` and :attr:`counters`, then :meth:`remove`."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.opid = array("i")
        self.op = 0
        self._stack = [-1]
        self._undo = []
        self.counters = {"fit.fit_node_dm.iterations": 0,
                         "fit.fit_node_dm.converged": 0,
                         "fit.fit_node_dm.diverged": 0,
                         "fit.fit_node_dm.failed": 0,
                         "fit.search_tree.moves": 0,
                         "io.load_counts_csv.bytes": 0}

    # -- wrapping -----------------------------------------------------

    def _wrap(self, index: int, fn):
        name, start, end = self.name, self.start, self.end
        parent, opid, stack = self.parent, self.opid, self._stack
        clock = time.perf_counter
        after = self._after.get(NAMES[index])

        def traced(*args, **kwargs):
            span = len(name)
            name.append(index)
            parent.append(stack[-1])
            opid.append(self.op)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[span] = clock()
                stack.pop()
                if after is not None:
                    after(self, args, None, True)
                raise
            end[span] = clock()
            stack.pop()
            if after is not None:
                after(self, args, result, False)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", NAMES[index])
        return traced

    def install(self) -> None:
        import mpmath  # noqa: F401  (the fallback target must be loaded)
        for index, (_, module_name, path) in enumerate(TARGETS):
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(index, raw.__func__))
                else:
                    new = self._wrap(index, raw)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(index, original)
            homes = [module] + [m for key, m in list(sys.modules.items())
                                if key.startswith("treepolya") and m is not module]
            for home in homes:
                for attr, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, attr, wrapped)
                        self._undo.append((home, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- counters read off results -----------------------------------

    def _after_dm(self, args, result, raised):
        c = self.counters
        if raised:
            c["fit.fit_node_dm.failed"] += 1
            return
        c["fit.fit_node_dm.iterations"] += result.iterations
        c["fit.fit_node_dm.converged"] += bool(result.converged)
        c["fit.fit_node_dm.diverged"] += bool(result.divergence_flag)

    def _after_search(self, args, result, raised):
        if not raised:
            self.counters["fit.search_tree.moves"] += len(result[2])

    def _after_load(self, args, result, raised):
        self.counters["io.load_counts_csv.bytes"] += os.path.getsize(args[0])

    _after = {"fit.fit_node_dm": _after_dm,
              "fit.search_tree": _after_search,
              "io.load_counts_csv": _after_load}

    # -- results --------------------------------------------------------

    def spans(self) -> dict:
        """Span arrays; ``self_s`` is each span's duration minus the time
        its direct children cover (calls nest on one thread)."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        opid = np.frombuffer(self.opid, dtype=np.int32).copy()
        duration = end - start
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        return {"name": name, "start": start, "end": end, "parent": parent,
                "op": opid, "self_s": duration - covered}


def summarize(spans: dict) -> dict:
    """Per span name: number of calls and summed self time."""
    out = {}
    for index, label in enumerate(NAMES):
        mask = spans["name"] == index
        out[label] = {"calls": int(mask.sum()),
                      "self_s": float(spans["self_s"][mask].sum())}
    return out


def merge(spans: dict, other: dict, op: int) -> dict:
    """Append a worker's spans to ``spans`` under operation ``op``."""
    offset = spans["name"].size
    other_parent = np.asarray(other["parent"], dtype=np.int32)
    joined = {}
    for key in spans:
        extra = np.asarray(other[key], dtype=spans[key].dtype)
        if key == "parent":
            extra = np.where(other_parent >= 0, other_parent + offset, -1)
        elif key == "op":
            extra = np.full(extra.size, op, dtype=np.int32)
        joined[key] = np.concatenate([spans[key], extra.astype(spans[key].dtype)])
    return joined


def save(path: str, spans: dict, ops: list) -> None:
    """Write spans with the name table and the operation labels."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, names=np.array(NAMES), ops=np.array(ops), **spans)
