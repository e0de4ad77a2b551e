import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import treepolya
from treepolya import cli, io
from treepolya.cli import main
from treepolya.examples import TEN_LEAF_NESTED, ten_leaf_example
from treepolya.exceptions import (DomainError, ParseError, TreePolyaError,
                                  UsageError)
from treepolya.io import (load_counts_csv, parse_model, serialize_model,
                          write_counts_csv)
from treepolya.model import TreePolyaModel
from treepolya.polya import (SUM_LAWS, Binomial, Dirac, NegativeBinomial,
                             Poisson, SplitSpec, sumlaw_support_max)
from treepolya.tree import PartitionTree

INT64_MAX = int(np.iinfo(np.int64).max)
ODD_NAMES = ["x,y", 'say "hi"', "cr\r\nlf"] + [f"s{j}" for j in range(4, 11)]


class TestCsv:
    def test_minimal_parse(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n0,3\n")
        cm = load_counts_csv(str(path))
        assert cm.column_names == ("a", "b")
        assert cm.rows.tolist() == [[1, 2], [0, 3]]
        assert cm.n_sites == 2

    def test_negative_cell_named(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n0,-1\n")
        with pytest.raises(ParseError, match="row 2.*'b'"):
            load_counts_csv(str(path))

    def test_non_integer_cell_named(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\nx,3\n")
        with pytest.raises(ParseError, match="row 2.*'a'"):
            load_counts_csv(str(path))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2,3\n")
        with pytest.raises(ParseError, match="row 1"):
            load_counts_csv(str(path))

    def test_names_are_kept_verbatim_and_blank_ones_rejected(self,
                                                            tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a, b \n1,2\n")
        assert load_counts_csv(str(path)).column_names == ("a", " b ")
        path.write_text("a, \n1,2\n")
        with pytest.raises(ParseError, match="blank column name"):
            load_counts_csv(str(path))

    def test_empty_and_headerless(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_counts_csv(str(path))
        path.write_text("a,b\n")
        with pytest.raises(ParseError):
            load_counts_csv(str(path))

    @pytest.mark.parametrize("cell", [str(2 ** 63), "99999999999999999999"])
    def test_a_count_beyond_int64_is_a_parse_error(self, tmp_path, capsys,
                                                   cell):
        # a bare OverflowError from np.array before
        path = tmp_path / "x.csv"
        path.write_text(f"a,b\n1,2\n1,{cell}\n")
        with pytest.raises(ParseError, match=f"row 2, column 'b': count "
                                             f"{cell} does not fit in int64"):
            load_counts_csv(str(path))
        assert main(["fit", "--data", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[parse]: ") and "row 2" in err
        path.write_text(f"a,b\n1,{INT64_MAX}\n")
        assert load_counts_csv(str(path)).rows.tolist() == [[1, INT64_MAX]]

    @pytest.mark.parametrize("cell, problem", [
        ("1" * 5000, "count " + "1" * 40 + "... does not fit in int64"),
        (" -00" + "7" * 5000, "negative count -" + "7" * 40 + "..."),
        ("x" * 5000, "'" + "x" * 39 + "... is not an integer")],
        ids=["digits", "negative", "letters"])
    def test_a_long_cell_is_quoted_briefly(self, tmp_path, capsys, cell,
                                           problem):
        # int() refuses more than 4300 digits, so a long count read "is
        # not an integer", and every message quoted all of the cell
        path = tmp_path / "x.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(ParseError, match=re.escape(
                f"row 2, column 'b': {problem}")):
            load_counts_csv(str(path))
        assert main(["fit", "--data", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[parse]: ") and "row 2" in err
        assert len(err) < 200

    @pytest.mark.parametrize("cell", ["1" * 200_000,
                                      '"' + "1" * 200_000 + '"'],
                             ids=["bare", "quoted"])
    def test_a_cell_past_the_csv_field_limit_is_a_parse_error(
            self, tmp_path, capsys, cell):
        """The csv module reads at most 131 072 characters a field; its
        bare _csv.Error escaped before."""
        path = tmp_path / "x.csv"
        path.write_text(f"a,b\n1,2\n\n3,{cell}\n")
        with pytest.raises(ParseError, match="row 3: field larger than "
                                             "field limit"):
            load_counts_csv(str(path))
        for verb in ("fit", "search"):
            assert main([verb, "--data", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error[parse]: ") and "row 3" in err
            assert "Traceback" not in err
        path.write_text(f"a,{cell}\n1,2\n")
        with pytest.raises(ParseError, match="header: field larger"):
            load_counts_csv(str(path))

    @pytest.mark.parametrize("data", [b"a,b\n1,\xe9", b"a,b\n1,2\n3,\xe9\n",
                                      b"\xe9,b\n1,2\n"])
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, tmp_path,
                                                       capsys, data):
        # a bare UnicodeDecodeError before
        path = tmp_path / "x.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="not UTF-8 text: byte 0xe9"):
            load_counts_csv(str(path))
        assert main(["fit", "--data", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error[parse]: ")

    def test_a_byte_order_mark_is_not_part_of_a_name(self, tmp_path,
                                                     model_file):
        counts = ten_leaf_example().sample_many(5, np.random.default_rng(1))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_counts_csv(str(plain), counts, [f"s{j}" for j in range(1, 11)])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got = load_counts_csv(str(marked))
        assert got.column_names[0] == "s1"
        assert np.array_equal(got.rows, counts)
        outs = []
        for obs in (plain, marked):
            outs.append(tmp_path / f"{obs.stem}.out")
            assert main(["pmf", "--model", model_file, "--obs", str(obs),
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11", "1.0", "0x1",
                                      "+ 1", ""])
    def test_a_cell_is_ascii_digits_with_a_sign(self, tmp_path, cell):
        # int() read "1_0" as 10 and the Arabic-Indic one as 1
        path = tmp_path / "x.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(
                f"row 2, column 'b': {cell!r} is not an integer")):
            load_counts_csv(str(path))

    def test_padding_and_signs_are_still_read(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n 1 ,+2\n-0,\t007\n")
        assert load_counts_csv(str(path)).rows.tolist() == [[1, 2], [0, 7]]


def _reference_csv(rows, names) -> bytes:
    lines = [",".join(names)] + [",".join(map(str, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestCountWriter:
    @staticmethod
    def _write(path, rows, block_entries=io._WRITE_BLOCK_ENTRIES):
        names = [f"c{j}" for j in range(np.shape(rows)[1])]
        with mock.patch.object(io, "_WRITE_BLOCK_ENTRIES", block_entries):
            write_counts_csv(str(path), rows, names)
        assert path.read_bytes() == _reference_csv(np.asarray(rows).tolist(),
                                                   names)
        back = load_counts_csv(str(path))
        assert back.column_names == tuple(names)
        assert np.array_equal(back.rows, rows)

    @given(rows=hnp.arrays(np.int64,
                           hnp.array_shapes(min_dims=2, max_dims=2,
                                            max_side=12),
                           elements=st.integers(0, INT64_MAX)),
           block_entries=st.integers(1, 40))
    @example(rows=np.array([[10 ** 9 - 1, 3], [10 ** 9, 2 ** 32 - 1],
                            [0, 2 ** 32]]), block_entries=2)
    @settings(max_examples=60, deadline=None)
    def test_matches_str_join_and_round_trips(self, tmp_path_factory, rows,
                                              block_entries):
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        self._write(path, rows, block_entries)

    # the digits of a block of at most nine digits are taken in uint32
    @pytest.mark.parametrize("value", [0, 7, 10, 10 ** 9 - 1, 10 ** 9,
                                       2 ** 32 - 1, 2 ** 32, INT64_MAX])
    def test_one_row_one_column(self, tmp_path, value):
        self._write(tmp_path / "x.csv", np.array([[value]]))

    def test_every_power_of_ten_boundary(self, tmp_path):
        values = [0, 1] + [v for k in range(1, 19) for v in (10 ** k - 1,
                                                            10 ** k)]
        values += [2 ** 31, 2 ** 32 - 1, 2 ** 32, INT64_MAX]
        self._write(tmp_path / "x.csv", np.array(values).reshape(-1, 1))
        self._write(tmp_path / "x.csv", np.array(values).reshape(1, -1))
        rows = np.random.default_rng(5).permutation(values).reshape(-1, 3)
        self._write(tmp_path / "x.csv", rows, block_entries=7)

    def test_block_boundary_mid_matrix(self, tmp_path):
        # two rows a block: the blocks' widest cells have 1, 3 and 5 digits
        rows = np.array([[0, 9, 1], [3, 0, 0], [100, 7, 0], [0, 0, 5],
                         [0, 12345, 0]])
        self._write(tmp_path / "x.csv", rows, block_entries=6)

    def test_row_blocks_are_written_in_order(self, tmp_path):
        rows = np.arange(60).reshape(12, 5) * 37
        path = tmp_path / "x.csv"
        names = [f"c{j}" for j in range(5)]
        write_counts_csv(str(path), iter([rows[:5], rows[5:6], rows[6:]]),
                         names)
        assert path.read_bytes() == _reference_csv(rows.tolist(), names)

    def test_a_failing_block_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("kept\n")
        # the first block is checked before the file is opened
        with pytest.raises(TreePolyaError, match="integers"):
            write_counts_csv(str(path), iter([np.array([[1.0, 2.0]])]),
                             ["a", "b"])
        assert path.read_text() == "kept\n"
        with pytest.raises(TreePolyaError, match="negative"):
            write_counts_csv(str(path), iter([np.array([[1, 2]]),
                                              np.array([[3, -4]])]),
                             ["a", "b"])
        assert not path.exists()
        with pytest.raises(TreePolyaError, match="at least one row"):
            write_counts_csv(str(path), iter([]), ["a", "b"])

    def test_count_matrix_checks_its_rows(self):
        # a float matrix was kept as it came, a list of rows was a bare
        # AttributeError, and the writer cast a uint64 count of 2**63 to
        # a negative int64 and reported it as a negative count
        with pytest.raises(UsageError, match="integers, not float64"):
            io.CountMatrix(("a",), np.array([[1.5]]))
        counts = io.CountMatrix(("a", "b"), [[1, 2], [3, 4]])
        assert counts.rows.dtype == np.int64
        assert counts.rows.tolist() == [[1, 2], [3, 4]]
        with pytest.raises(UsageError, match="int64 range"):
            io.CountMatrix(("a",), np.array([[2 ** 63]], dtype=np.uint64))

    def test_negative_count_is_categorised(self, tmp_path):
        with pytest.raises(TreePolyaError) as err:
            write_counts_csv(str(tmp_path / "x.csv"), np.array([[1, -2]]),
                             ["a", "b"])
        assert err.value.category == "validation"
        with pytest.raises(TreePolyaError, match="integers"):
            write_counts_csv(str(tmp_path / "x.csv"), np.array([[1.0, 2.0]]),
                             ["a", "b"])


def _exact_read(path):
    """The per-cell reader alone, the reference for load_counts_csv."""
    with open(path, "rb") as fh:
        return io._read_counts(str(path), fh)


def _outcome(read, path):
    """What a reader makes of a file: the names and the matrix, or the
    error's type and text."""
    try:
        counts = read(path)
    except TreePolyaError as exc:
        return type(exc), str(exc)
    rows = counts.rows
    assert rows.dtype == np.int64 and rows.flags.c_contiguous
    return counts.column_names, rows.tolist()


# cells that a drawn file may hold in place of a count: errors of each
# kind, and a quoted count and a cell with a comma, which numpy's reader
# leaves to the per-cell reader
BAD_CELLS = ["x", "-3", "1_0", "\u0661", "1.5", "", str(2 ** 63),
             "99999999999999999999", '"7"', "1,2"]


@st.composite
def _irregular_files(draw):
    """Bytes of a count CSV, drawn with padded and signed cells, leading
    zeros, CRLF rows, blank lines, a byte-order mark, quoted or padded
    names, no final newline, and perhaps one bad cell anywhere."""
    width = draw(st.integers(1, 4))
    names = draw(st.sampled_from([
        [f"c{j}" for j in range(width)], ODD_NAMES[:width],
        [" lead", "trail ", "x\ty", "q"][:width]]))
    n_rows = draw(st.integers(1, 30))
    # leading zeros are plain; padding and signs are not
    forms = draw(st.sampled_from([["{}", "0{}"], ["{}", " {} ", "+{}"]]))
    cells = [[draw(st.sampled_from(forms)).format(draw(st.integers(
        0, INT64_MAX))) for _ in range(width)] for _ in range(n_rows)]
    if draw(st.booleans()):
        cells[draw(st.integers(0, n_rows - 1))][
            draw(st.integers(0, width - 1))] = draw(st.sampled_from(BAD_CELLS))
    pieces, blanks = [], draw(st.booleans())
    for line in [io._csv_line(names)] + [",".join(row) for row in cells]:
        pieces += [line, draw(st.sampled_from(["\n", "\r\n"]))]
        if blanks and draw(st.integers(0, 9)) == 0:
            pieces.append(draw(st.sampled_from(["\n", " \n", "\r\n"])))
    if draw(st.booleans()):
        pieces.pop()  # no final newline
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + "".join(pieces).encode()


class TestPlainReader:
    """``load_counts_csv`` reads regular files with numpy's reader and
    leaves every file that reader cannot read to the per-cell reader:
    both give the same names, matrix and errors."""

    @staticmethod
    def _load(path):
        """What ``load_counts_csv`` makes of ``path``, and whether it
        called the per-cell reader."""
        with mock.patch.object(io, "_read_counts",
                               wraps=io._read_counts) as exact:
            return _outcome(load_counts_csv, path), exact.called

    @given(rows=hnp.arrays(
               np.int64, hnp.array_shapes(min_dims=2, max_dims=2,
                                          max_side=30),
               elements=st.integers(1, 19).flatmap(
                   lambda w: st.integers(10 ** (w - 1) - (w == 1),
                                         min(10 ** w - 1, INT64_MAX)))))
    @example(rows=np.array([[10 ** 18 - 1, 0], [10 ** 18, 5]]))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_through_the_writer(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        names = [f"c{j}" for j in range(rows.shape[1])]
        write_counts_csv(str(path), rows, names)
        got, cell_by_cell = self._load(path)
        assert got == (tuple(names), rows.tolist())
        assert got == _outcome(_exact_read, path)
        assert not cell_by_cell

    @given(data=_irregular_files())
    @example(data=b"a,b\r\n1,2\r\n\r\n3,4")
    @example(data=b"a,b\n1,2,3\n4\n")  # 4 cells, 2 rows
    @example(data=b"a,b\n" + b"1,2\n" * 40 + b"3,x\n")
    @example(data=b'"x,y",b\n1,2\n' + b"1,2\n" * 40 + b"3\n")
    @example(data=b"a,b\n1,2\n \n3,4\n")
    @example(data=b"\n1,2\n")  # a blank header
    @settings(max_examples=150, deadline=None)
    def test_irregular_files_read_as_the_per_cell_reader_reads_them(
            self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        path.write_bytes(data)
        assert self._load(path)[0] == _outcome(_exact_read, path)

    def test_a_bad_cell_late_in_the_file_names_its_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n" + "12,3\n" * 500 + "4,x\n" + "5,6\n" * 10)
        got, cell_by_cell = self._load(path)
        assert cell_by_cell
        assert got == (ParseError, f"{path}: row 501, column 'b': 'x' is "
                                   "not an integer")

    @pytest.mark.parametrize("data, cell_by_cell", [
        (b"a,b\n1,2\n3,4\n", False),
        (b"a,b\n 1 ,2\t\n3,  4 \n", False),  # padded
        (b"a,b\r\n+1,-0\r\n3,+4", False),  # signed, CRLF, no last LF
        (b"\xef\xbb\xbfa,b\n1,2\n", False),
        (f"a,b\n{INT64_MAX},{10 ** 18}\n".encode(), False),
        ((io._csv_line(ODD_NAMES) + "\n" + ",".join("7" * 10)
          + "\n").encode(), False),
        (b"a,b\n1,2\n3,x\n", True),
        (b"a,b\n1,2\n#3,4\n", True),  # no comments
        (b'a,b\n1,2\n"3",4\n', True)])  # no quoted cells
    def test_only_what_numpy_cannot_read_goes_cell_by_cell(
            self, tmp_path, data, cell_by_cell):
        path = tmp_path / "x.csv"
        path.write_bytes(data)
        got, called = self._load(path)
        assert called == cell_by_cell
        assert got == _outcome(_exact_read, path)

    def test_a_pipe_is_read_cell_by_cell(self, tmp_path):
        """A pipe cannot be read twice, so it skips numpy's reader."""
        path = tmp_path / "x.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, daemon=True,
                                  args=(b"a,b\n1,2\n 3 ,4\n",))
        writer.start()
        got, cell_by_cell = self._load(path)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert cell_by_cell
        assert got == (("a", "b"), [[1, 2], [3, 4]])

    def test_memory_is_about_the_matrix(self, tmp_path):
        """numpy's reader fills one growing matrix: the traced peak stays
        below one and a half matrices."""
        rows = np.random.default_rng(3).poisson(30, size=(20_000, 10))
        path = tmp_path / "x.csv"
        write_counts_csv(str(path), rows, [f"c{j}" for j in range(10)])
        tracemalloc.start()
        try:
            counts = load_counts_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(counts.rows, rows)
        assert peak < 1.5 * rows.nbytes


def _random_model(draw_seed):
    """Small random valid model for round-trip testing."""
    rng = np.random.default_rng(draw_seed)
    j = int(rng.integers(2, 7))
    labels = list(range(1, j + 1))

    def nest(labels):
        if len(labels) <= 2 or rng.random() < 0.3:
            return list(labels)
        cut = int(rng.integers(1, len(labels)))
        left, right = labels[:cut], labels[cut:]
        left = nest(left) if len(left) > 1 and rng.random() < 0.5 \
            else list(left)
        if len(left) == 1:
            left = left[0]
        elif isinstance(left[0], list):
            pass
        right = nest(right) if rng.random() < 0.5 else list(right)
        out = []
        out.append(left if not isinstance(left, list) or len(left) > 1
                   else left[0])
        if isinstance(right, list) and len(right) == 1:
            out.append(right[0])
        else:
            out.append(right)
        return out

    nested = nest(labels)
    if len(nested) == 1:
        nested = labels
    tree = PartitionTree.from_nested(nested)
    law = [NegativeBinomial(float(rng.uniform(0.5, 5)),
                            float(rng.uniform(0.1, 0.9))),
           Poisson(float(rng.uniform(1, 20))),
           Dirac(int(rng.integers(1, 30))),
           Binomial(int(rng.integers(1, 30)),
                    float(rng.uniform(0.05, 0.95)))][int(rng.integers(0, 4))]
    top = sumlaw_support_max(law)
    splits = {}
    for nid in tree.internal_ids:
        arity = len(tree.children(nid))
        if nid == tree.ROOT and top is not None and rng.random() < 0.5:
            # hypergeometric: integer weights that hold every total
            theta = rng.integers(1, top + 1, size=arity)
            theta[0] += max(0, top - int(theta.sum()))
            splits[nid] = SplitSpec(-1, tuple(float(t) for t in theta))
            continue
        c = int(rng.integers(0, 2))
        theta = tuple(float(t) for t in rng.uniform(0.2, 5.0, size=arity))
        if c == 0:
            s = sum(theta)
            theta = tuple(t / s for t in theta)
        splits[nid] = SplitSpec(c, theta)
    return TreePolyaModel(tree, splits, law)


# a document that breaks one parameter rule: (what to change, new value)
BROKEN_DOCUMENTS = [
    ("dirac m", 3.7), ("binomial size", 10.5), ("split c", 0.6),
    ("nb alpha", math.nan), ("nb alpha", math.inf),
    ("poisson rate", math.nan), ("poisson rate", math.inf),
    ("split theta", math.nan), ("split theta", -math.inf),
    ("family", ["nb"]), ("split c", "1"), ("binomial prob", None),
    ("split c", True), ("dirac m", True), ("split theta", True),
    ("nb alpha", True), ("dirac m", 1e20), ("binomial size", 10 ** 20),
]


def _broken_document(case):
    """The ten-leaf document with one value broken, and the place that
    the parse error must name."""
    change, value = case
    doc = json.loads(serialize_model(ten_leaf_example()))
    law = {"dirac": {"m": 5}, "binomial": {"size": 12, "prob": 0.5},
           "nb": {"alpha": 2.0, "p": 0.5}, "poisson": {"rate": 3.0}}
    family, _, name = change.partition(" ")
    if family in law:
        doc["sum_law"] = {"family": family, "params": law[family]}
        law[family][name] = value
        where = "sum_law.params"
    elif change == "family":
        doc["sum_law"]["family"] = value
        where = "unknown sum-law family"
    else:
        split = doc["tree"]["split"]
        split[name] = value if name == "c" else [value] + split[name][1:]
        where = re.escape("node {1,2,3,4,5,6,7,8,9,10}")
    return where, json.dumps(doc)


class TestModelDocument:
    def test_flat_round_trip_is_canonical(self):
        tree = PartitionTree.flat(3)
        model = TreePolyaModel(tree, {tree.ROOT: SplitSpec(1, (1., 2., 3.))},
                               NegativeBinomial(2.0, 0.5))
        text = serialize_model(model, ["a", "b", "c"])
        back, names = parse_model(text)
        assert serialize_model(back, names) == text
        assert names == ("a", "b", "c")

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_model_round_trips(self, seed):
        model = _random_model(seed)
        text = serialize_model(model)
        back, names = parse_model(text)
        assert serialize_model(back, names) == text
        assert back.tree.nodes == model.tree.nodes
        assert back.splits == model.splits
        assert back.sum_law == model.sum_law

    def test_ten_leaf_model_shape(self):
        text = serialize_model(ten_leaf_example())
        doc = json.loads(text)
        assert doc["schema_version"] == "1"
        assert doc["sum_law"]["family"] == "nb"
        internal = []

        def walk(node):
            if "children" in node:
                internal.append(node)
                for ch in node["children"]:
                    walk(ch)
        walk(doc["tree"])
        assert len(internal) == 7

    def test_unknown_field_rejected(self):
        text = serialize_model(ten_leaf_example())
        doc = json.loads(text)
        doc["extra"] = 1
        with pytest.raises(ParseError, match="unknown"):
            parse_model(json.dumps(doc))

    def test_missing_split_named(self):
        text = serialize_model(ten_leaf_example())
        doc = json.loads(text)
        del doc["tree"]["split"]
        with pytest.raises(ParseError):
            parse_model(json.dumps(doc))

    def test_bad_schema_version(self):
        text = serialize_model(ten_leaf_example())
        doc = json.loads(text)
        doc["schema_version"] = "99"
        with pytest.raises(ParseError, match="schema_version"):
            parse_model(json.dumps(doc))

    def test_wrong_theta_arity_named(self):
        text = serialize_model(ten_leaf_example())
        doc = json.loads(text)
        doc["tree"]["split"]["theta"] = [1.0, 2.0]
        with pytest.raises(ParseError, match="weights for"):
            parse_model(json.dumps(doc))

    def test_random_models_cover_every_family_and_split_kind(self):
        models = [_random_model(seed) for seed in range(60)]
        assert {m.sum_law.family for m in models} == set(SUM_LAWS)
        assert {spec.c for m in models for spec in m.splits.values()} \
            == {-1, 0, 1}

    @pytest.mark.parametrize("case", BROKEN_DOCUMENTS, ids=str)
    def test_bad_parameter_is_a_parse_error_naming_where(self, case):
        where, text = _broken_document(case)
        with pytest.raises(ParseError, match=where):
            parse_model(text)

    def test_an_integer_of_5000_digits_is_a_parse_error(self):
        # json.loads raised a bare ValueError past int()'s digit limit
        _, text = _broken_document(("dirac m", 7))
        with pytest.raises(ParseError, match="invalid JSON: Exceeds"):
            parse_model(text.replace('"m": 7', '"m": 1' + "0" * 4999))


def _mixed_model():
    """Five leaves under a hypergeometric root, a DM and a multinomial
    split, and a binomial total."""
    tree = PartitionTree.from_nested([[1, 2], [3, 4], 5])
    return TreePolyaModel(
        tree, {tree.ROOT: SplitSpec(-1, (8.0, 6.0, 5.0)),
               tree.node_by_subset({1, 2}): SplitSpec(1, (1.5, 2.5)),
               tree.node_by_subset({3, 4}): SplitSpec(0, (0.3, 0.7))},
        Binomial(12, 0.6))


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    names = [f"s{j}" for j in range(1, 11)]
    path.write_text(serialize_model(ten_leaf_example(), names))
    return str(path)


@pytest.fixture
def data_file(tmp_path):
    model = ten_leaf_example()
    # the conditional route's rows, which the pmf digest was pinned on
    counts = model._sample_conditional(400, np.random.default_rng(2))
    path = tmp_path / "data.csv"
    header = ",".join(f"s{j}" for j in range(1, 11))
    body = "\n".join(",".join(map(str, row)) for row in counts)
    path.write_text(header + "\n" + body + "\n")
    return str(path)


def _read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestCli:
    def test_sample_seed_determinism(self, model_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["sample", "--model", model_file, "--n", "100",
                         "--seed", "7", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sample_to_stdout_matches_file(self, model_file, tmp_path,
                                           capsysbinary):
        out = tmp_path / "a.csv"
        args = ["sample", "--model", model_file, "--n", "300", "--seed", "3"]
        assert main(args + ["--out", str(out)]) == 0
        assert main(args + ["--out", "-"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("which, digest", [
        ("ten-leaf",
         "84aa1d5e004d1f342fc6ed095dfaa1822f2e393f42efb0087c93ec5f8b453e34"),
        ("mixed",
         "1a2bd79cbadeff9a73c53efdc33a100968bf959771d7ada94438376d90744f98")])
    def test_sample_stream_is_pinned(self, model_file, tmp_path, which,
                                     digest):
        """sha256 of the sample file as the per-cell ``str()`` writer
        made it: a change to the RNG calls or to the CSV bytes moves it."""
        if which == "mixed":
            model_file = tmp_path / "mixed.json"
            model_file.write_text(serialize_model(_mixed_model(),
                                                  list("abcde")))
        out = tmp_path / "s.csv"
        assert main(["sample", "--model", str(model_file), "--n", "1000",
                     "--seed", "7", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("which, digest", [
        ("ten-leaf",
         "4cab0b4fb2cac084f18e6395768ca2985899a1d452bc3360c0e060f4acf6205d"),
        ("mixed",
         "6fca6a207224e44d258e48eaf923c201570f0e88992c06d9547881ad1ca87730")])
    def test_pmf_output_is_pinned(self, model_file, data_file, tmp_path,
                                  which, digest):
        """sha256 of the pmf table as the quoting CSV writer made it; the
        mixed model's binomial total gives 29 rows of -inf, and its data
        file has its columns in reverse order."""
        if which == "mixed":
            model = _mixed_model()
            rows = model.sample_many(200, np.random.default_rng(3))
            rows[::7, 0] += 9  # beyond the binomial's 12
            model_file, data_file = tmp_path / "mixed.json", tmp_path / "m.csv"
            model_file.write_text(serialize_model(model, list("abcde")))
            write_counts_csv(str(data_file), rows[:, ::-1], list("edcba"))
        out = tmp_path / "p.csv"
        assert main(["pmf", "--model", str(model_file), "--obs",
                     str(data_file), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert out.read_bytes().count(b",-inf\n") == \
            (29 if which == "mixed" else 0)

    def test_corr_matches_library(self, model_file, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["corr", "--model", model_file, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        got = np.array([[float(x) for x in line.split(",")[1:]]
                        for line in lines[1:]])
        assert np.allclose(got, ten_leaf_example().correlation_matrix(),
                           atol=1e-9)

    def test_pmf_matches_library(self, model_file, data_file, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["pmf", "--model", model_file, "--obs", data_file,
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        model = ten_leaf_example()
        counts = load_counts_csv(data_file).rows
        for line in rows[:20]:
            idx, logp = line.split(",")
            expect = model.joint_log_pmf(counts[int(idx) - 1]).log_magnitude
            assert float(logp) == pytest.approx(expect, rel=1e-10)

    def test_fit_reports_and_writes_model(self, data_file, tmp_path):
        out = tmp_path / "fit.json"
        rep = tmp_path / "rep.csv"
        assert main(["fit", "--data", data_file, "--out", str(out),
                     "--report", str(rep)]) == 0
        model, names = parse_model(out.read_text())
        assert names == tuple(f"s{j}" for j in range(1, 11))
        table = _read_table(rep)
        assert table[0] == ["node", "kind", "n_params", "log_lik", "aic"]
        assert table[-1][0] == "total"
        assert table[2][0] == "{1,2,3,4,5,6,7,8,9,10}"
        assert all(len(row) == 5 for row in table)

    def test_fit_with_tree_file(self, data_file, tmp_path):
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(json.dumps(
            [["s1", "s2"], "s3",
             [["s4", "s5"], ["s6", "s7"], ["s8", ["s9", "s10"]]]]))
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", data_file, "--tree", str(tree_path),
                     "--out", str(out)]) == 0
        model, _ = parse_model(out.read_text())
        assert len(model.tree.internal_ids) == 7

    def test_search_emits_trace(self, data_file, tmp_path):
        out = tmp_path / "s.json"
        trace = tmp_path / "t.csv"
        rep = tmp_path / "rep.csv"
        assert main(["search", "--data", data_file, "--out", str(out),
                     "--trace", str(trace), "--report", str(rep)]) == 0
        parse_model(out.read_text())
        moves = _read_table(trace)
        assert moves[0] == ["move", "parent", "node", "delta_aic"]
        assert len(moves) > 1 and moves[1][1] == "{1,2,3,4,5,6,7,8,9,10}"
        assert all(len(row) == 4 for row in moves)
        assert all(len(row) == 5 for row in _read_table(rep))

    def test_pmf_after_search_on_the_same_data(self, data_file, tmp_path):
        searched = tmp_path / "s.json"
        out = tmp_path / "p.csv"
        assert main(["search", "--data", data_file, "--out",
                     str(searched)]) == 0
        model, names = parse_model(searched.read_text())
        data = load_counts_csv(data_file)
        assert names != data.column_names, "search kept the column order"
        assert main(["pmf", "--model", str(searched), "--obs", data_file,
                     "--out", str(out)]) == 0
        rows = data.rows[:, [data.column_names.index(n) for n in names]]
        got = [float(line.split(",")[1])
               for line in out.read_text().strip().split("\n")[1:]]
        expect = [model.joint_log_pmf(row).log_magnitude for row in rows]
        assert got == pytest.approx(expect, rel=1e-10)

    def test_moments_and_describe(self, model_file, capsys):
        assert main(["moments", "--model", model_file, "--leaf", "s6",
                     "--order", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("s6,")
        assert main(["describe", "--model", model_file]) == 0
        out = capsys.readouterr().out
        assert "dirichlet-multinomial" in out and "parameters: 15" in out

    def test_error_is_categorized_and_nonzero(self, model_file, capsys):
        rc = main(["pmf", "--model", model_file, "--obs", "/missing.csv"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[")

    def test_parse_error_category(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["describe", "--model", str(bad)])
        assert rc == 1
        assert "error[parse]" in capsys.readouterr().err

    def test_bad_tree_file_is_a_parse_error(self, data_file, tmp_path,
                                            capsys):
        tree = tmp_path / "tree.json"
        tree.write_text('[["s1", "s2"], ')
        rc = main(["fit", "--data", data_file, "--tree", str(tree)])
        assert rc == 1
        assert "error[parse]" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["describe", "corr", "sample"])
    @pytest.mark.parametrize("case", BROKEN_DOCUMENTS, ids=str)
    def test_bad_parameter_is_a_parse_error(self, tmp_path, capsys, verb,
                                            case):
        path = tmp_path / "bad.json"
        path.write_text(_broken_document(case)[1])
        extra = ["--n", "5", "--seed", "1"] if verb == "sample" else []
        assert main([verb, "--model", str(path)] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[parse]: ")
        assert "Traceback" not in captured.err

    def test_column_mismatch_usage_error(self, model_file, tmp_path,
                                         capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("a,b\n1,2\n")
        rc = main(["pmf", "--model", model_file, "--obs", str(obs)])
        assert rc == 1
        assert "error[usage]" in capsys.readouterr().err

    @pytest.mark.parametrize("law", [NegativeBinomial(1e4, 1 - 2.3e-16),
                                     Poisson(1e19)], ids=["nb", "poisson"])
    def test_a_law_past_numpys_samplers_is_a_domain_error(
            self, tmp_path, capsys, law):
        """Before, numpy's bare ValueError was a traceback."""
        tree = PartitionTree.flat(2)
        path, out = tmp_path / "m.json", tmp_path / "s.csv"
        path.write_text(serialize_model(TreePolyaModel(
            tree, {tree.ROOT: SplitSpec(0, (1.0, 1.0))}, law), ["a", "b"]))
        assert main(["sample", "--model", str(path), "--n", "10",
                     "--seed", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error[domain]: {law} cannot be sampled: ")
        assert "Traceback" not in captured.err
        assert not out.exists()


def test_fit_of_rows_past_int64_is_a_domain_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text(f"a,b,c\n1,2,3\n{2 ** 62},{2 ** 62},1\n")
    for verb in ("fit", "search"):
        assert main([verb, "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error[domain]: the counts of row 2 sum to "
                       f"{2 ** 63 + 1}, past the int64 range\n"), verb


class TestBlockedSample:
    """``sample`` draws SAMPLE_BLOCK_ROWS-row blocks (64 here, so 1 000
    rows are 16 blocks): block 0 from the seed's generator, block b from
    its b-th spawned child, written in block order."""

    N = 1_000

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(cli, "SAMPLE_BLOCK_ROWS", 64)

    def _sample(self, model_file, out, n=N, seed=7):
        return main(["sample", "--model", model_file, "--n", str(n),
                     "--seed", str(seed), "--out", str(out)])

    def test_blocks_come_from_the_seed_and_its_spawned_children(
            self, model_file, tmp_path):
        out, ref = tmp_path / "s.csv", tmp_path / "ref.csv"
        assert self._sample(model_file, out) == 0
        rng = np.random.default_rng(7)
        sizes = [64] * 15 + [self.N - 15 * 64]
        rows = np.concatenate([
            ten_leaf_example().sample_many(size, stream)
            for size, stream in zip(sizes, [rng, *rng.spawn(15)])])
        write_counts_csv(str(ref), rows, [f"s{j}" for j in range(1, 11)])
        assert out.read_bytes() == ref.read_bytes()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            ("a0425a9000171f794fccf0a4f7ce650d"
             "a4785497ec07fbb944d88d501a7c62a8")

    def test_bytes_do_not_depend_on_the_worker_count(
            self, model_file, tmp_path, monkeypatch):
        digests = set()
        for workers in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, k=workers: set(range(k)),
                                raising=False)
            out = tmp_path / f"w{workers}.csv"
            assert self._sample(model_file, out) == 0
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(digests) == 1

    def test_a_failing_block_leaves_no_file_and_no_thread(
            self, model_file, tmp_path, monkeypatch, capsys):
        original = TreePolyaModel.sample_many
        calls = []

        def fail_second(self, size, rng):
            calls.append(size)
            if len(calls) == 2:
                raise DomainError("block two fails")
            return original(self, size, rng)

        monkeypatch.setattr(TreePolyaModel, "sample_many", fail_second)
        before = set(threading.enumerate())
        out = tmp_path / "s.csv"
        assert self._sample(model_file, out) == 1
        assert capsys.readouterr().err == "error[domain]: block two fails\n"
        assert not out.exists()
        assert set(threading.enumerate()) == before

    def test_memory_stays_within_a_few_blocks(self, model_file, tmp_path,
                                               monkeypatch):
        """Fifty blocks on two workers: the peak is the blocks in flight,
        the two running draws and the encoder's buffers, about 12 blocks'
        bytes, well below the 50-block n x J matrix."""
        monkeypatch.setattr(cli, "SAMPLE_BLOCK_ROWS", 1024)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        block_bytes = 1024 * 10 * 8
        tracemalloc.start()
        try:
            assert self._sample(model_file, tmp_path / "s.csv",
                                n=50 * 1024) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * block_bytes


class TestQuotedNames:
    @pytest.mark.parametrize("field, text", [
        ("plain", "plain"), ("", ""), ("x,y", '"x,y"'),
        ('say "hi"', '"say ""hi"""'), ("a\rb", '"a\rb"'),
        ("a\nb", '"a\nb"'), (3, "3")])
    def test_quoted_only_when_needed(self, field, text):
        assert io._csv_line([field, "z"]) == text + ",z"

    def test_odd_names_survive_sample_then_pmf(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(serialize_model(ten_leaf_example(), ODD_NAMES))
        sample, out = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(["sample", "--model", str(model_path), "--n", "50",
                     "--seed", "4", "--out", str(sample)]) == 0
        data = load_counts_csv(str(sample))
        assert data.column_names[0] == "x,y"
        assert data.column_names[1] == 'say "hi"'
        assert main(["pmf", "--model", str(model_path), "--obs",
                     str(sample), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 51

    def test_padded_names_survive_sample_then_pmf(self, tmp_path):
        names = [" lead", "trail ", "end\r\n", " both\t"] + \
            [f"s{j}" for j in range(5, 11)]
        model_path = tmp_path / "model.json"
        model_path.write_text(serialize_model(ten_leaf_example(), names))
        sample, out = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(["sample", "--model", str(model_path), "--n", "50",
                     "--seed", "4", "--out", str(sample)]) == 0
        assert list(load_counts_csv(str(sample)).column_names) == names
        assert main(["pmf", "--model", str(model_path), "--obs",
                     str(sample), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 51

    def test_corr_and_moments_tables_parse_back(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(serialize_model(ten_leaf_example(), ODD_NAMES))
        for verb, width in (("corr", 11), ("moments", 4)):
            out = tmp_path / f"{verb}.csv"
            assert main([verb, "--model", str(model_path), "--out",
                         str(out)]) == 0
            with open(out, newline="", encoding="utf-8") as fh:
                table = list(csv.reader(fh))
            assert len(table) == 11
            assert all(len(row) == width for row in table)
            names = table[0][1:] if verb == "corr" else \
                [row[0] for row in table[1:]]
            assert names == ODD_NAMES


# every verb of the CLI on the ten-leaf inputs, in a fresh interpreter
COLD_START = """
import sys
from treepolya.cli import main
model, tree, data, out = sys.argv[1:]
calls = [["describe", "--model", model], ["moments", "--model", model],
         ["corr", "--model", model], ["pmf", "--model", model, "--obs", data],
         ["sample", "--model", model, "--n", "100", "--seed", "1"],
         ["fit", "--data", data, "--tree", tree], ["search", "--data", data]]
for argv in calls:
    assert main(argv + ["--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
"""


def _named(node):
    return f"s{node}" if isinstance(node, int) else [_named(c) for c in node]


def test_no_verb_loads_scipy_stats(model_file, tmp_path):
    names = [f"s{j}" for j in range(1, 11)]
    counts = ten_leaf_example().sample_many(30, np.random.default_rng(6))
    data, tree = tmp_path / "d.csv", tmp_path / "t.json"
    write_counts_csv(str(data), counts, names)
    tree.write_text(json.dumps(_named(TEN_LEAF_NESTED)))
    src = os.path.dirname(os.path.dirname(treepolya.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, model_file, str(tree), str(data),
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def _cascade_model(depth):
    tree = PartitionTree.cascade(list(range(1, depth + 2)))
    return TreePolyaModel(tree, {nid: SplitSpec(1, (1.0, 2.0))
                                 for nid in tree.internal_ids},
                          NegativeBinomial(2.0, 0.5))


def test_model_text_grows_linearly_with_depth():
    # indented text added two spaces a level to every line below it, so
    # a fitted 200-leaf cascade took 1.1 MB; compact text takes 19 KB
    def size(depth):
        names = [f"y{j:04d}" for j in range(depth + 1)]
        return len(serialize_model(_cascade_model(depth), names))

    assert size(101) - size(100) == size(401) - size(400)
    assert serialize_model(_cascade_model(1)).count("\n") == 1


def test_what_serializes_parses_back_at_the_nesting_limit():
    # the decoder reaches the json nesting limit a level before the
    # encoder: a cascade one level short of the encoder's limit was
    # written, but its text raised ParseError when parsed back
    written = []
    for depth in range(440, 511):
        model = _cascade_model(depth)
        with mock.patch.object(io, "_json_loads", lambda text: None):
            try:
                unchecked = serialize_model(model)
            except ParseError:
                unchecked = None
        try:
            back = unchecked and parse_model(unchecked)[0]
        except ParseError:
            back = None
        try:
            text = serialize_model(model)
        except ParseError as exc:
            assert back is None and f"depth {depth} " in str(exc)
            continue
        assert text == unchecked
        assert back.tree.nodes == model.tree.nodes
        assert back.splits == model.splits and back.sum_law == model.sum_law
        written.append(depth)
    assert written == list(range(440, written[-1] + 1))
    assert written[-1] < 510


@pytest.mark.parametrize("depth", [600, 1200])
class TestDeepTrees:
    def test_tree_documents_without_recursion(self, depth):
        model = _cascade_model(depth)
        names = [f"y{j}" for j in range(1, depth + 2)]
        nested, read = io._collect_leaves(io._tree_doc(model, names))
        tree = PartitionTree.from_nested(nested)
        assert tree.nodes == model.tree.nodes and read == names
        assert io._collect_splits(io._tree_doc(model, names), tree) \
            == model.splits

    def test_json_nesting_limit_is_a_parse_error(self, depth):
        with pytest.raises(ParseError, match=f"depth {depth} "):
            serialize_model(_cascade_model(depth))
        split = '"split": {"c": 1, "theta": [1.0, 2.0]}'
        tree = '{"children": [' * depth + '{"leaf": "y0"}' + "".join(
            f', {{"leaf": "y{k}"}}], {split}}}' for k in range(1, depth + 1))
        text = ('{"schema_version": "1", "sum_law": {"family": "nb", '
                '"params": {"alpha": 2.0, "p": 0.5}}, "tree": ' + tree + "}")
        with pytest.raises(ParseError, match=f"nests {2 * depth + 2} levels"):
            parse_model(text)

    def test_tree_file(self, depth, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text("[" * depth + '"y1"' + "".join(
            f', "y{k}"]' for k in range(2, depth + 2)))
        names = [f"y{j}" for j in range(1, depth + 2)]
        if depth < 900:  # lists nest one level a node
            tree = cli._tree_from_file(str(path), names)
            assert len(tree.internal_ids) == depth
        else:
            with pytest.raises(ParseError, match=f"nests {depth} levels"):
                cli._tree_from_file(str(path), names)

    def test_render_tree(self, depth):
        model = _cascade_model(depth)
        lines = cli._render_tree(model, [f"y{j}" for j in range(1, depth + 2)])
        assert len(lines) == 2 * depth + 1
        assert lines[0] == "+ dirichlet-multinomial [1, 2]"
        assert lines[-1] == "  " * depth + f"y{depth + 1}"
