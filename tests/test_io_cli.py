import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treepolya
from treepolya.cli import main
from treepolya.examples import ten_leaf_example
from treepolya.exceptions import ParseError
from treepolya.io import load_counts_csv, parse_model, serialize_model
from treepolya.model import TreePolyaModel
from treepolya.polya import Dirac, NegativeBinomial, Poisson, SplitSpec
from treepolya.tree import PartitionTree


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

    def test_column_mismatch_usage_error(self, model_file, tmp_path,
                                         capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("a,b\n1,2\n")
        rc = main(["pmf", "--model", model_file, "--obs", str(obs)])
        assert rc == 1
        assert "error[usage]" in capsys.readouterr().err
