"""Count-matrix CSV ingestion and model JSON serialization."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
import stat
import sys
import warnings
from dataclasses import asdict, dataclass, fields
from io import TextIOWrapper
from itertools import accumulate
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import ParseError, UsageError, ValidationError
from .model import TreePolyaModel
from .polya import SUM_LAWS, SplitSpec, SumLaw, count_int64, count_numbers
from .tree import PartitionTree, _subset_label

__all__ = ["CountMatrix", "load_counts_csv", "write_counts_csv",
           "serialize_model", "parse_model", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class CountMatrix:
    column_names: Tuple[str, ...]
    rows: np.ndarray  # n_sites x J nonnegative integers, kept as int64

    def __post_init__(self):
        rows = count_numbers(self.rows)
        if rows.dtype.kind not in "iu":
            raise UsageError(f"counts must be integers, not {rows.dtype}")
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValidationError("count matrix needs at least one row",
                                  ["empty matrix"])
        if rows.shape[1] != len(self.column_names):
            raise ValidationError(
                "column count does not match header",
                [f"{len(self.column_names)} names, {rows.shape[1]} columns"])
        if np.any(rows < 0):
            raise ValidationError("negative counts", ["negative entry"])
        object.__setattr__(self, "rows", count_int64(rows))

    @property
    def n_sites(self) -> int:
        return self.rows.shape[0]

    @property
    def n_columns(self) -> int:
        return self.rows.shape[1]


def load_counts_csv(path: str) -> CountMatrix:
    """Read a header-plus-integer-rows CSV into a count matrix.

    The file is UTF-8 text; a leading byte-order mark is dropped.  Header
    names are kept as written, surrounding whitespace included, so that
    they read back as :func:`write_counts_csv` wrote them; a name that
    is only whitespace is blank.  A cell is ASCII digits with an optional
    sign and surrounding whitespace, and its count must fit in int64.
    Malformed cells raise a parse error naming the offending row and
    column (1-based, header excluded from the row count).

    A regular file is read by numpy's C reader, ``np.loadtxt``, after
    the ``csv`` module has read its header.  If that reader fails or
    warns, or gives no rows, a row of another width or a negative count,
    the file is read again from its start cell by cell, which gives the
    same matrix and is where every parse error comes from.  Other files,
    such as pipes, which cannot be read twice, go straight to the
    per-cell reader.
    """
    with open(path, "rb") as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            counts = _read_array(fh)
            if counts is not None:
                return counts
            fh.seek(0)
        return _read_counts(path, fh)


def _read_array(fh) -> Optional[CountMatrix]:
    """The count matrix of the binary file ``fh``, read from its start
    as UTF-8: the ``csv`` module reads the header, then ``np.loadtxt``
    the rows from the same text handle.  None if the header is no
    header, if numpy warns, or if either reader or ``CountMatrix``
    raises: a ``UnicodeDecodeError`` is a ``ValueError``, and so is the
    ``ValidationError`` of rows that are no count matrix under the
    header (none, another width, a negative count).  No quote character
    is set and ``#`` starts no comment, so a quoted or ``#`` cell gives
    None too."""
    text = TextIOWrapper(fh, encoding="utf-8-sig", newline="")
    try:
        names = tuple(next(csv.reader(text), ()))
        if _header_problem(names):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(text, dtype=np.int64, delimiter=",",
                              comments=None, ndmin=2)
        return CountMatrix(names, rows)
    except (ValueError, OverflowError, csv.Error, Warning):
        return None
    finally:
        text.detach()


# the largest count a cell may hold, int64's maximum
_INT64_MAX = int(np.iinfo(np.int64).max)


def _read_counts(path: str, fh) -> CountMatrix:
    """The count matrix of the binary file ``fh``, read from its start
    as UTF-8 by the ``csv`` module and checked cell by cell."""
    try:
        with TextIOWrapper(fh, encoding="utf-8-sig", newline="") as text:
            names, rows = _parse_records(path, csv.reader(text))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte "
                         f"{exc.object[exc.start]:#04x} ({exc.reason})") \
            from None
    return CountMatrix(names, np.array(rows, dtype=np.int64))


def _header_problem(names: Tuple[str, ...]) -> Optional[str]:
    """What makes ``names`` no header, or None if they are one."""
    if any(not n.strip() for n in names):
        return "blank column name in header"
    if len(set(names)) != len(names):
        return "duplicate column names"
    return None


def _parse_records(path: str, reader) -> Tuple[Tuple[str, ...],
                                               List[List[int]]]:
    """The header and the counts of the CSV records from ``reader``;
    blank records are skipped, and a bad one raises ``ParseError``, as
    does a record the ``csv`` module cannot read (a field past its size
    limit)."""
    records = _csv_records(path, reader)
    header = next(records, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    names = tuple(header)
    problem = _header_problem(names)
    if problem:
        raise ParseError(f"{path}: {problem}")
    rows: List[List[int]] = []
    for r, record in enumerate(records, start=1):
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        if len(record) != len(names):
            raise ParseError(
                f"{path}: row {r} has {len(record)} fields, expected "
                f"{len(names)}")
        # the whole record at once; int() also reads "1_0" and digits
        # outside ASCII, so any doubt goes to the cell by cell check
        try:
            parsed = list(map(int, record))
        except ValueError:
            parsed = None
        joined = "".join(record)
        if parsed is None or "_" in joined or not joined.isascii() \
                or min(parsed) < 0 or max(parsed) > _INT64_MAX:
            parsed = _parse_cells(path, r, names, record)
        rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return names, rows


def _csv_records(path: str, reader) -> Iterator[List[str]]:
    """The records of ``reader``; the ``csv`` module's error is a
    ``ParseError`` naming the record's row (0 is the header)."""
    row = 0
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            where = f"row {row}" if row else "header"
            raise ParseError(f"{path}: {where}: {exc}") from None
        yield record
        row += 1


def _parse_cells(path: str, r: int, names: Tuple[str, ...],
                 record: List[str]) -> List[int]:
    """The counts of data row ``r``, checked cell by cell; the first bad
    cell raises ``ParseError`` naming its row and column, and quoting at
    most the start of the cell."""
    parsed = []
    for name, cell in zip(names, record):
        text = cell.strip()
        digits = text[1:] if text.startswith(("+", "-")) else text
        # int() also reads "1_0" and digits outside ASCII, and refuses
        # more than a few thousand digits, so the digits are checked
        # here and only a number of at most 19 is converted
        magnitude = digits.lstrip("0") or "0"
        if not (digits.isascii() and digits.isdigit()):
            problem = f"{_excerpt(repr(cell))} is not an integer"
        elif text.startswith("-") and magnitude != "0":
            problem = f"negative count -{_excerpt(magnitude)}"
        elif len(magnitude) > 19 or int(magnitude) > _INT64_MAX:
            problem = f"count {_excerpt(magnitude)} does not fit in int64"
        else:
            parsed.append(int(magnitude))
            continue
        raise ParseError(f"{path}: row {r}, column {name!r}: {problem}")
    return parsed


def _excerpt(text: str) -> str:
    """``text``, cut to its first 40 characters and "..." if longer."""
    return text if len(text) <= 40 else text[:40] + "..."


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
    comma, or a newline after a row's last cell.  A block of at most nine
    digits, below 2**32, takes its digits in uint32, which numpy divides
    faster than int64."""
    width = len(str(int(block.max())))
    if width < 10:
        block = block.astype(np.uint32)
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

    ``rows`` is a matrix (an array, list or tuple), or any other iterable
    of row blocks, each a matrix, written in order as they arrive.  Each
    block is checked as a count matrix, the first before ``out`` is
    opened.  A block that fails its check, or an iterable that raises,
    leaves no partial file: a regular file ``out`` is removed.

    The header is :func:`_csv_line` of the names.  The rows' text is that
    of ``",".join(map(str, row))`` per row, encoded
    straight to bytes in blocks of at most ``_WRITE_BLOCK_ENTRIES``
    cells, so memory stays bounded however many rows there are.
    """
    names = tuple(names)
    blocks = (CountMatrix(names, block) for block in
              ((rows,) if isinstance(rows, (np.ndarray, list, tuple))
               else rows))
    counts = next(blocks, None)
    if counts is None:
        raise ValidationError("count matrix needs at least one row",
                              ["no row blocks"])
    step = max(1, _WRITE_BLOCK_ENTRIES // counts.n_columns)
    to_stdout = out is None or out == "-"
    if to_stdout:
        sys.stdout.flush()  # keep earlier text ahead of the bytes
    with (contextlib.nullcontext(sys.stdout.buffer) if to_stdout
          else open(out, "wb")) as fh:
        try:
            fh.write((_csv_line(names) + "\n").encode("utf-8"))
            while counts is not None:
                for start in range(0, counts.n_sites, step):
                    fh.write(_encode_counts(counts.rows[start:start + step]))
                counts = next(blocks, None)
            fh.flush()
        except BaseException:
            if not to_stdout and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.close()
                os.remove(out)
            raise


# ---------------------------------------------------------------------
# Model documents


def _law_from_doc(doc: dict) -> SumLaw:
    _require_keys(doc, {"family", "params"}, "sum_law")
    family = doc["family"]
    law = SUM_LAWS.get(family) if isinstance(family, str) else None
    if law is None:
        raise ParseError(f"unknown sum-law family {family!r}")
    params = doc["params"]
    _require_keys(params, {field.name for field in fields(law)},
                  "sum_law.params")
    try:
        return law(**params)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"sum_law.params: {exc}") from exc


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
    """Canonical JSON text for a model, with sorted keys and no
    whitespace, ending in a newline; leaf names default to the 1-based
    leaf labels.  The text grows linearly with the tree's depth, and the
    ``json`` module's C encoder writes it.

    A tree too deep for the ``json`` module's nesting limit (a few
    hundred levels) raises ``ParseError``.  The decoder reaches that
    limit a level before the encoder, so the text is read back before it
    is returned: :func:`parse_model` reads it from the same caller.
    """
    names = list(column_names) if column_names is not None else \
        [str(j) for j in range(1, model.tree.leaf_count + 1)]
    if len(names) != model.tree.leaf_count:
        raise ParseError(f"{len(names)} column names for "
                         f"{model.tree.leaf_count} leaves")
    doc = {"schema_version": SCHEMA_VERSION,
           "tree": _tree_doc(model, names),
           "sum_law": {"family": model.sum_law.family,
                       "params": asdict(model.sum_law)}}
    try:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        _json_loads(text)
    except (RecursionError, ParseError):
        raise ParseError(f"a tree of depth {_tree_depth(model.tree)} nests "
                         "deeper than the json module allows") from None
    return text


def _collect_leaves(tree_doc: dict) -> Tuple[object, List[str], list]:
    """Leaf names in document order, the nested label structure for the
    tree constructor that numbers the leaves in that order, and the
    split documents in preorder, the order it numbers internal nodes."""
    names: List[str] = []
    split_docs: list = []
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
        split_docs.append(node_doc["split"])
        nested: list = []
        siblings.append(nested)
        stack.extend((child, f"{where}.children[{i}]", nested) for i, child
                     in reversed(list(enumerate(node_doc["children"]))))
    return top[0], names, split_docs


def _collect_splits(split_docs: list, tree: PartitionTree) -> dict:
    """Split of every internal node, from :func:`_collect_leaves`."""
    splits = {}
    for node, split_doc in zip(tree.internal_ids, split_docs):
        _require_keys(split_doc, {"c", "theta"}, "split")
        # the node's label is formatted only for an error: it is as long
        # as the node's subset, which would make reading a model O(J^2)
        try:
            spec = SplitSpec(split_doc["c"], split_doc["theta"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"node {_subset_label(tree.subset(node))}: "
                             f"bad split: {exc}") from exc
        if spec.arity != len(tree.children(node)):
            raise ParseError(f"node {_subset_label(tree.subset(node))}: "
                             f"{spec.arity} weights for "
                             f"{len(tree.children(node))} children")
        splits[node] = spec
    return splits


def _nesting_depth(text: str) -> int:
    """Deepest bracket nesting of JSON text, with strings left out."""
    bare = re.sub(r'"(?:[^"\\]|\\.)*"', "", text)
    return max(accumulate((ch in "[{") - (ch in "]}") for ch in bare),
               default=0)


def _json_loads(text: str) -> object:
    """``json.loads`` with invalid or too deeply nested text raising
    ``ParseError``, as does an integer of more digits than ``int()``
    reads (a ``ValueError`` that is no ``JSONDecodeError``)."""
    try:
        return json.loads(text)
    except ValueError as exc:
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
    nested, names, split_docs = _collect_leaves(doc["tree"])
    if not isinstance(nested, list):
        raise ParseError("tree root cannot be a single leaf")
    if len(set(names)) != len(names):
        raise ParseError("duplicate leaf names")
    tree = PartitionTree.from_nested(nested)
    splits = _collect_splits(split_docs, tree)
    law = _law_from_doc(doc["sum_law"])
    return TreePolyaModel(tree, splits, law), tuple(names)
