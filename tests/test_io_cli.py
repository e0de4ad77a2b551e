import csv
import hashlib
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import treepolya
from treepolya import cli, io
from treepolya.cli import main
from treepolya.examples import TEN_LEAF_NESTED, ten_leaf_example
from treepolya.exceptions import ParseError, TreePolyaError
from treepolya.io import (load_counts_csv, parse_model, serialize_model,
                          write_counts_csv)
from treepolya.model import TreePolyaModel
from treepolya.polya import (Binomial, Dirac, NegativeBinomial, Poisson,
                             SplitSpec)
from treepolya.tree import PartitionTree

INT64_MAX = int(np.iinfo(np.int64).max)


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

    def test_empty_and_headerless(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_counts_csv(str(path))
        path.write_text("a,b\n")
        with pytest.raises(ParseError):
            load_counts_csv(str(path))


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
    @settings(max_examples=60, deadline=None)
    def test_matches_str_join_and_round_trips(self, tmp_path_factory, rows,
                                              block_entries):
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        self._write(path, rows, block_entries)

    @pytest.mark.parametrize("value", [0, 7, 10, INT64_MAX])
    def test_one_row_one_column(self, tmp_path, value):
        self._write(tmp_path / "x.csv", np.array([[value]]))

    def test_every_power_of_ten_boundary(self, tmp_path):
        values = [0, 1] + [v for k in range(1, 19) for v in (10 ** k - 1,
                                                            10 ** k)]
        values.append(INT64_MAX)
        self._write(tmp_path / "x.csv", np.array(values).reshape(-1, 1))
        self._write(tmp_path / "x.csv", np.array(values).reshape(1, -1))
        rows = np.random.default_rng(5).permutation(values).reshape(-1, 3)
        self._write(tmp_path / "x.csv", rows, block_entries=7)

    def test_block_boundary_mid_matrix(self, tmp_path):
        # two rows a block: the blocks' widest cells have 1, 3 and 5 digits
        rows = np.array([[0, 9, 1], [3, 0, 0], [100, 7, 0], [0, 0, 5],
                         [0, 12345, 0]])
        self._write(tmp_path / "x.csv", rows, block_entries=6)

    def test_negative_count_is_categorised(self, tmp_path):
        with pytest.raises(TreePolyaError) as err:
            write_counts_csv(str(tmp_path / "x.csv"), np.array([[1, -2]]),
                             ["a", "b"])
        assert err.value.category == "validation"
        with pytest.raises(TreePolyaError, match="integers"):
            write_counts_csv(str(tmp_path / "x.csv"), np.array([[1.0, 2.0]]),
                             ["a", "b"])


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
    splits = {}
    for nid in tree.internal_ids:
        arity = len(tree.children(nid))
        c = int(rng.integers(0, 2))
        theta = tuple(float(t) for t in rng.uniform(0.2, 5.0, size=arity))
        if c == 0:
            s = sum(theta)
            theta = tuple(t / s for t in theta)
        splits[nid] = SplitSpec(c, theta)
    law = [NegativeBinomial(float(rng.uniform(0.5, 5)),
                            float(rng.uniform(0.1, 0.9))),
           Poisson(float(rng.uniform(1, 20))),
           Dirac(int(rng.integers(1, 30)))][int(rng.integers(0, 3))]
    return TreePolyaModel(tree, splits, law)


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


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    names = [f"s{j}" for j in range(1, 11)]
    path.write_text(serialize_model(ten_leaf_example(), names))
    return str(path)


@pytest.fixture
def data_file(tmp_path):
    model = ten_leaf_example()
    counts = model.sample_many(400, np.random.default_rng(2))
    path = tmp_path / "data.csv"
    header = ",".join(f"s{j}" for j in range(1, 11))
    body = "\n".join(",".join(map(str, row)) for row in counts)
    path.write_text(header + "\n" + body + "\n")
    return str(path)


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
         "5d743f7f3d048fa74b55db2f4e273ed55a90416e7da573c021e4ea6b3c8dcd75"),
        ("mixed",
         "1a2bd79cbadeff9a73c53efdc33a100968bf959771d7ada94438376d90744f98")])
    def test_sample_stream_is_pinned(self, model_file, tmp_path, which,
                                     digest):
        """sha256 of the sample file as the per-cell ``str()`` writer
        made it: a change to the RNG calls or to the CSV bytes moves it."""
        if which == "mixed":
            tree = PartitionTree.from_nested([[1, 2], [3, 4], 5])
            model = TreePolyaModel(
                tree, {tree.ROOT: SplitSpec(-1, (8.0, 6.0, 5.0)),
                       tree.node_by_subset({1, 2}): SplitSpec(1, (1.5, 2.5)),
                       tree.node_by_subset({3, 4}): SplitSpec(0, (0.3, 0.7))},
                Binomial(12, 0.6))
            model_file = tmp_path / "mixed.json"
            model_file.write_text(serialize_model(model, list("abcde")))
        out = tmp_path / "s.csv"
        assert main(["sample", "--model", str(model_file), "--n", "1000",
                     "--seed", "7", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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
        lines = rep.read_text().strip().split("\n")
        assert lines[0] == "node,kind,n_params,log_lik,aic"
        assert lines[-1].startswith("total,")
        assert lines[2].startswith("{1;2;3;4;5;6;7;8;9;10},")
        assert all(len(line.split(",")) == 5 for line in lines)

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
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "move,parent,node,delta_aic" and len(lines) > 1
        assert all(len(line.split(",")) == 4 for line in lines)
        lines = rep.read_text().strip().split("\n")
        assert all(len(line.split(",")) == 5 for line in lines)

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

    def test_column_mismatch_usage_error(self, model_file, tmp_path,
                                         capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("a,b\n1,2\n")
        rc = main(["pmf", "--model", model_file, "--obs", str(obs)])
        assert rc == 1
        assert "error[usage]" in capsys.readouterr().err


ODD_NAMES = ["x,y", 'say "hi"', "cr\r\nlf"] + [f"s{j}" for j in range(4, 11)]


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
