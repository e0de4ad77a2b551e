"""Count-matrix CSV ingestion and model JSON serialization."""

from __future__ import annotations

import contextlib
import csv
import json
import re
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import ParseError, UsageError, ValidationError
from .model import TreePolyaModel
from .polya import (Binomial, Dirac, NegativeBinomial, Poisson, SplitSpec,
                    SumLaw)
from .tree import PartitionTree

__all__ = ["CountMatrix", "load_counts_csv", "write_counts_csv",
           "serialize_model", "parse_model", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class CountMatrix:
    column_names: Tuple[str, ...]
    rows: np.ndarray  # n_sites x J, nonnegative integers

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[0] == 0:
            raise ValidationError("count matrix needs at least one row",
                                  ["empty matrix"])
        if self.rows.shape[1] != len(self.column_names):
            raise ValidationError(
                "column count does not match header",
                [f"{len(self.column_names)} names, "
                 f"{self.rows.shape[1]} columns"])
        if np.any(self.rows < 0):
            raise ValidationError("negative counts", ["negative entry"])

    @property
    def n_sites(self) -> int:
        return self.rows.shape[0]

    @property
    def n_columns(self) -> int:
        return self.rows.shape[1]


def load_counts_csv(path: str) -> CountMatrix:
    """Read a header-plus-integer-rows CSV into a count matrix.

    Malformed cells raise a parse error naming the offending row and
    column (1-based, header excluded from the row count).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        names = tuple(name.strip() for name in header)
        if any(not n for n in names):
            raise ParseError(f"{path}: blank column name in header")
        if len(set(names)) != len(names):
            raise ParseError(f"{path}: duplicate column names")
        rows: List[List[int]] = []
        for r, record in enumerate(reader, start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != len(names):
                raise ParseError(
                    f"{path}: row {r} has {len(record)} fields, expected "
                    f"{len(names)}")
            parsed = []
            for c, cell in enumerate(record, start=1):
                text = cell.strip()
                try:
                    value = int(text)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {r}, column {names[c - 1]!r}: "
                        f"{cell!r} is not an integer") from None
                if value < 0:
                    raise ParseError(
                        f"{path}: row {r}, column {names[c - 1]!r}: "
                        f"negative count {value}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return CountMatrix(names, np.array(rows, dtype=np.int64))


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_line(fields) -> str:
    """One CSV line (without its newline) of ``str(field)`` for each
    field; a field holding a comma, a double quote, CR or LF is quoted
    per RFC 4180, with its quotes doubled, and every other one is written
    as it is."""
    out = []
    for field in map(str, fields):
        if _NEEDS_QUOTES.search(field):
            field = '"' + field.replace('"', '""') + '"'
        out.append(field)
    return ",".join(out)


# cells encoded per block by write_counts_csv: at most 20 bytes a cell
# (19 digits and a separator) keeps a block's buffers to a few MB
_WRITE_BLOCK_ENTRIES = 1 << 16


def _encode_counts(block: np.ndarray) -> bytes:
    """CSV bytes of a block of nonnegative int64 rows: every cell's
    digits at the block's widest width, leading zeros masked out, then a
    comma, or a newline after a row's last cell."""
    width = len(str(int(block.max())))
    cells = np.empty(block.shape + (width + 1,), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    rest = block
    for k in range(width - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        np.add(digit, ord("0"), out=cells[..., k], casting="unsafe")
        if k < width - 1:  # digit k is a leading zero below this power
            np.greater_equal(block, 10 ** (width - k - 1), out=keep[..., k])
    cells[..., width] = ord(",")
    cells[:, -1, width] = ord("\n")
    return cells[keep].tobytes()


def write_counts_csv(out: Optional[str], rows, names: Sequence[str]) -> None:
    """Write a header and nonnegative integer rows as the CSV that
    :func:`load_counts_csv` reads; ``out`` None or "-" is stdout.

    The header is :func:`_csv_line` of the names.  The rows' text is that
    of ``",".join(map(str, row))`` per row, encoded
    straight to bytes in blocks of at most ``_WRITE_BLOCK_ENTRIES``
    cells, so memory stays bounded however many rows there are.
    """
    rows = np.asarray(rows)
    if rows.dtype.kind not in "iu":
        raise UsageError(f"counts must be integers, not {rows.dtype}")
    counts = CountMatrix(tuple(names), rows.astype(np.int64, copy=False))
    step = max(1, _WRITE_BLOCK_ENTRIES // counts.n_columns)
    to_stdout = out is None or out == "-"
    if to_stdout:
        sys.stdout.flush()  # keep earlier text ahead of the bytes
    with (contextlib.nullcontext(sys.stdout.buffer) if to_stdout
          else open(out, "wb")) as fh:
        fh.write((_csv_line(counts.column_names) + "\n").encode("utf-8"))
        for start in range(0, counts.n_sites, step):
            fh.write(_encode_counts(counts.rows[start:start + step]))
        fh.flush()


# ---------------------------------------------------------------------
# Model documents


def _law_to_doc(law: SumLaw) -> dict:
    if isinstance(law, NegativeBinomial):
        return {"family": "nb", "params": {"alpha": law.alpha, "p": law.p}}
    if isinstance(law, Poisson):
        return {"family": "poisson", "params": {"rate": law.rate}}
    if isinstance(law, Dirac):
        return {"family": "dirac", "params": {"m": law.m}}
    if isinstance(law, Binomial):
        return {"family": "binomial",
                "params": {"size": law.size, "prob": law.prob}}
    raise ParseError(f"unknown sum law {type(law).__name__}")


def _law_from_doc(doc: dict) -> SumLaw:
    _require_keys(doc, {"family", "params"}, "sum_law")
    family = doc["family"]
    params = doc["params"]
    try:
        if family == "nb":
            _require_keys(params, {"alpha", "p"}, "sum_law.params")
            return NegativeBinomial(float(params["alpha"]),
                                    float(params["p"]))
        if family == "poisson":
            _require_keys(params, {"rate"}, "sum_law.params")
            return Poisson(float(params["rate"]))
        if family == "dirac":
            _require_keys(params, {"m"}, "sum_law.params")
            return Dirac(int(params["m"]))
        if family == "binomial":
            _require_keys(params, {"size", "prob"}, "sum_law.params")
            return Binomial(int(params["size"]), float(params["prob"]))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad sum-law parameters: {exc}") from exc
    raise ParseError(f"unknown sum-law family {family!r}")


def _require_keys(doc, expected, where):
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(doc) - expected
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")
    missing = expected - set(doc)
    if missing:
        raise ParseError(f"{where}: missing fields {sorted(missing)}")


def _tree_doc(model: TreePolyaModel, names: Sequence[str]) -> dict:
    """The model's tree as nested node records, built leaves first."""
    tree = model.tree
    docs = {}
    for nid in reversed(tree.preorder()):
        if tree.is_leaf(nid):
            docs[nid] = {"leaf": names[tree.subset(nid)[0] - 1]}
            continue
        spec = model.splits[nid]
        docs[nid] = {"children": [docs.pop(c) for c in tree.children(nid)],
                     "split": {"c": spec.c, "theta": list(spec.theta)}}
    return docs[tree.ROOT]


def _tree_depth(tree: PartitionTree) -> int:
    depth = [0] * len(tree)
    for nid in tree.preorder():
        for cid in tree.children(nid):
            depth[cid] = depth[nid] + 1
    return max(depth)


def serialize_model(model: TreePolyaModel,
                    column_names: Sequence[str] = None) -> str:
    """Canonical JSON text for a model; leaf names default to the
    1-based leaf labels.

    A tree too deep for the ``json`` module's nesting limit (a few
    hundred levels) raises ``ParseError``.
    """
    names = list(column_names) if column_names is not None else \
        [str(j) for j in range(1, model.tree.leaf_count + 1)]
    if len(names) != model.tree.leaf_count:
        raise ParseError(f"{len(names)} column names for "
                         f"{model.tree.leaf_count} leaves")
    doc = {"schema_version": SCHEMA_VERSION,
           "tree": _tree_doc(model, names),
           "sum_law": _law_to_doc(model.sum_law)}
    try:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    except RecursionError:
        raise ParseError(f"a tree of depth {_tree_depth(model.tree)} nests "
                         "deeper than the json module allows") from None


def _collect_leaves(tree_doc: dict) -> Tuple[object, List[str]]:
    """Leaf names in document order, and the nested label structure for
    the tree constructor that numbers the leaves in that order."""
    names: List[str] = []
    top: list = []
    stack = [(tree_doc, "tree", top)]
    while stack:
        node_doc, where, siblings = stack.pop()
        if not isinstance(node_doc, dict):
            raise ParseError(f"{where}: expected an object")
        if "leaf" in node_doc:
            _require_keys(node_doc, {"leaf"}, where)
            if not isinstance(node_doc["leaf"], str) or not node_doc["leaf"]:
                raise ParseError(
                    f"{where}: leaf name must be a nonempty string")
            names.append(node_doc["leaf"])
            siblings.append(len(names))
            continue
        _require_keys(node_doc, {"children", "split"}, where)
        if not isinstance(node_doc["children"], list):
            raise ParseError(f"{where}: children must be a list")
        nested: list = []
        siblings.append(nested)
        stack.extend((child, f"{where}.children[{i}]", nested) for i, child
                     in reversed(list(enumerate(node_doc["children"]))))
    return top[0], names


def _collect_splits(tree_doc: dict, tree: PartitionTree) -> dict:
    """Split of every internal node, read in document order."""
    splits = {}
    stack = [(tree.ROOT, tree_doc)]
    while stack:
        node, node_doc = stack.pop()
        if "leaf" in node_doc:
            continue
        split_doc = node_doc["split"]
        _require_keys(split_doc, {"c", "theta"}, "split")
        label = "{" + ",".join(map(str, tree.subset(node))) + "}"
        try:
            c = int(split_doc["c"])
            theta = tuple(float(t) for t in split_doc["theta"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"node {label}: bad split: {exc}") from exc
        if len(theta) != len(tree.children(node)):
            raise ParseError(f"node {label}: {len(theta)} weights for "
                             f"{len(tree.children(node))} children")
        splits[node] = SplitSpec(c, theta)
        stack.extend(reversed(list(zip(tree.children(node),
                                       node_doc["children"]))))
    return splits


def _nesting_depth(text: str) -> int:
    """Deepest bracket nesting of JSON text, with strings left out."""
    bare = re.sub(r'"(?:[^"\\]|\\.)*"', "", text)
    return max(accumulate((ch in "[{") - (ch in "]}") for ch in bare),
               default=0)


def _json_loads(text: str) -> object:
    """``json.loads`` with invalid or too deeply nested text raising
    ``ParseError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"the document nests {_nesting_depth(text)} levels "
                         "deep, deeper than the json module allows") from None


def parse_model(text: str) -> Tuple[TreePolyaModel, Tuple[str, ...]]:
    """Inverse of :func:`serialize_model`.

    Returns the model and the leaf column names in depth-first (column)
    order.
    """
    doc = _json_loads(text)
    _require_keys(doc, {"schema_version", "tree", "sum_law"}, "document")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {doc['schema_version']!r}")
    nested, names = _collect_leaves(doc["tree"])
    if not isinstance(nested, list):
        raise ParseError("tree root cannot be a single leaf")
    if len(set(names)) != len(names):
        raise ParseError("duplicate leaf names")
    tree = PartitionTree.from_nested(nested)
    splits = _collect_splits(doc["tree"], tree)
    law = _law_from_doc(doc["sum_law"])
    return TreePolyaModel(tree, splits, law), tuple(names)
