import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treepolya.fit as fit_module
from treepolya.exceptions import ConvergenceError, DomainError, UsageError
from treepolya.fit import (SearchConfig, fit_node_dm, fit_node_multinomial,
                           fit_sum_law, fit_tree, node_data, search_tree,
                           select_node_split)
from treepolya.model import TreePolyaModel
from treepolya.polya import (Dirac, NegativeBinomial, SplitSpec,
                             polya_log_pmf_many, polya_sample_many,
                             sumlaw_sample_many)
from treepolya.tree import PartitionTree, incidence_matrix


class TestSumLawFit:
    def test_nb_recovery(self):
        rng = np.random.default_rng(102)
        totals = sumlaw_sample_many(NegativeBinomial(2.0, 0.6), 50_000, rng)
        fit = fit_sum_law(totals, "nb")
        assert fit.params["alpha"] == pytest.approx(2.0, rel=0.05)
        assert fit.params["p"] == pytest.approx(0.6, rel=0.01)
        assert fit.converged

    def test_nb_loglik_beats_neighbors(self, rng):
        totals = sumlaw_sample_many(NegativeBinomial(3.0, 0.5), 5_000, rng)
        fit = fit_sum_law(totals, "nb")
        from treepolya.polya import sumlaw_log_pmf

        def ll(alpha, p):
            law = NegativeBinomial(alpha, p)
            return sum(sumlaw_log_pmf(int(t), law).log_magnitude
                       for t in totals)
        best = ll(fit.params["alpha"], fit.params["p"])
        for da in (-0.05, 0.05):
            for dp in (-0.005, 0.005):
                assert ll(fit.params["alpha"] + da,
                          fit.params["p"] + dp) <= best + 1e-6

    def test_poisson_closed_form(self):
        totals = np.array([3, 5, 2, 4, 6])
        fit = fit_sum_law(totals, "poisson")
        assert fit.params["rate"] == pytest.approx(4.0)

    def test_dirac(self):
        fit = fit_sum_law(np.array([4, 4, 4]), "dirac")
        assert fit.params["m"] == 4
        assert fit.log_lik == 0.0
        with pytest.raises(DomainError):
            fit_sum_law(np.array([4, 5]), "dirac")

    def test_binomial_recovery(self, rng):
        totals = rng.binomial(20, 0.4, size=20_000)
        fit = fit_sum_law(totals, "binomial")
        assert fit.params["size"] == pytest.approx(20, abs=3)
        assert fit.params["size"] * fit.params["prob"] == pytest.approx(
            8.0, rel=0.02)

    def test_underdispersed_rejected_for_nb(self, rng):
        totals = rng.binomial(10, 0.5, size=2_000)
        with pytest.raises(DomainError):
            fit_sum_law(totals, "nb")


class TestNodeFits:
    def test_multinomial_is_column_proportions(self):
        data = np.array([[2, 1, 1], [0, 3, 1]])
        fit = fit_node_multinomial(data)
        assert fit.params["pi"] == pytest.approx([0.25, 0.5, 0.25])
        assert fit.n_params == 2

    def test_dm_recovery(self):
        rng = np.random.default_rng(101)
        theta = np.array([2.0, 5.0, 1.0])
        data = polya_sample_many(np.full(10_000, 50),
                                 SplitSpec(1, tuple(theta)), rng)
        fit = fit_node_dm(data)
        assert fit.converged
        assert np.max(np.abs(fit.params["theta"] - theta) / theta) < 0.10

    def test_dm_beats_multinomial_on_loglik(self, rng):
        data = polya_sample_many(np.full(500, 30),
                                 SplitSpec(1, (1.0, 2.0)), rng)
        dm = fit_node_dm(data)
        multi = fit_node_multinomial(data)
        assert dm.log_lik >= multi.log_lik - 1e-6

    def test_divergence_on_multinomial_data(self, rng):
        data = polya_sample_many(np.full(4_000, 40),
                                 SplitSpec(0, (0.3, 0.7)), rng)
        sel = select_node_split(data)
        assert sel.kind == "multinomial"

    def test_negative_counts_are_usage_errors(self):
        # bincount raised a bare ValueError in the DM fit
        data = np.array([[2, -1], [0, 3]])
        for fit in (fit_node_dm, fit_node_multinomial):
            with pytest.raises(UsageError):
                fit(data)

    def test_start_of_wrong_length_is_usage_error(self):
        with pytest.raises(UsageError):
            fit_node_dm(np.array([[2, 1], [0, 3]]), start=[1.0, 1.0, 1.0])

    def test_start_at_the_optimum_needs_no_sweeps(self, rng):
        data = polya_sample_many(np.full(500, 30),
                                 SplitSpec(1, (1.0, 2.0)), rng)
        cold = fit_node_dm(data)
        warm = fit_node_dm(data, start=cold.params["theta"])
        assert warm.iterations == 1
        assert warm.log_lik == pytest.approx(cold.log_lik, abs=1e-9)

    def test_zero_column_handled(self, rng):
        data = polya_sample_many(np.full(200, 20),
                                 SplitSpec(1, (1.0, 3.0)), rng)
        data = np.column_stack([data, np.zeros(200, dtype=int)])
        fit = select_node_split(data)
        assert np.isfinite(fit.log_lik)


@st.composite
def node_counts(draw):
    """Small count matrices whose columns have very different maxima,
    some of them all zero, with a positive weight vector."""
    k = draw(st.integers(2, 5))
    rows = draw(st.integers(1, 12))
    tops = draw(st.lists(st.sampled_from([0, 1, 3, 40, 400]),
                         min_size=k, max_size=k))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    data = np.column_stack([rng.integers(0, top + 1, size=rows)
                            for top in tops])
    theta = np.exp(rng.uniform(-3, 4, size=k))
    return data, theta


class TestDmAggregates:
    @settings(max_examples=80, deadline=None)
    @given(case=node_counts())
    def test_log_lik_is_row_wise_dm_log_pmf(self, case):
        data, theta = case
        agg = fit_module._DmAggregates(data, data.sum(axis=1))
        rowwise = polya_log_pmf_many(data, SplitSpec(1, tuple(theta))).sum()
        assert agg.log_lik(theta) == pytest.approx(rowwise, rel=1e-10,
                                                   abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(case=node_counts())
    def test_derivatives_match_central_differences(self, case):
        data, theta = case
        agg = fit_module._DmAggregates(data, data.sum(axis=1))
        grad, q, diag = agg.derivatives(theta)
        hessian = q + np.diag(diag)
        for j in range(theta.size):
            step = np.zeros(theta.size)
            step[j] = 1e-5 * theta[j]
            width = 2 * step[j]
            num_grad = (agg.log_lik(theta + step)
                        - agg.log_lik(theta - step)) / width
            assert num_grad == pytest.approx(grad[j], rel=1e-5, abs=1e-4)
            num_col = (agg.derivatives(theta + step)[0]
                       - agg.derivatives(theta - step)[0]) / width
            assert num_col == pytest.approx(hessian[:, j], rel=1e-5,
                                            abs=1e-4)


class TestNodeData:
    def test_child_subsums(self):
        tree = PartitionTree.from_nested([[1, 2], 3])
        counts = np.array([[1, 2, 3], [4, 0, 1]])
        got = node_data(tree, counts, tree.ROOT)
        assert got.tolist() == [[3, 3], [4, 1]]


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(3)
    tree = PartitionTree.from_nested([[1, 2], 3, [4, 5]])
    splits = {tree.ROOT: SplitSpec(1, (1.5, 2.0, 3.0)),
              tree.node_by_subset((1, 2)): SplitSpec(1, (1.0, 2.0)),
              tree.node_by_subset((4, 5)): SplitSpec(0, (0.4, 0.6))}
    true = TreePolyaModel(tree, splits, NegativeBinomial(4.0, 0.8))
    counts = true.sample_many(4_000, rng)
    model, report = fit_tree(tree, counts)
    return true, counts, model, report


class TestFitTree:

    def test_loglik_decomposition_identity(self, fitted):
        _, counts, model, report = fitted
        node_total = sum(row["log_lik"] for row in report["rows"])
        joint = sum(model.joint_log_pmf(y).log_magnitude for y in counts)
        assert node_total == pytest.approx(joint, abs=1e-8)

    def test_aic_additivity(self, fitted):
        _, counts, model, report = fitted
        joint = sum(model.joint_log_pmf(y).log_magnitude for y in counts)
        assert report["total_aic"] == pytest.approx(
            2 * report["total_params"] - 2 * joint, abs=1e-8)
        assert report["total_params"] == model.parameter_count

    def test_recovers_split_kinds(self, fitted):
        true, _, model, _ = fitted
        for nid in true.tree.internal_ids:
            assert model.splits[nid].c == true.splits[nid].c, \
                true.tree.subset(nid)

    def test_row_order_invariance(self, fitted):
        _, counts, _, report = fitted
        rng = np.random.default_rng(0)
        shuffled = counts[rng.permutation(counts.shape[0])]
        tree = PartitionTree.from_nested([[1, 2], 3, [4, 5]])
        _, report2 = fit_tree(tree, shuffled)
        assert report2["total_aic"] == pytest.approx(
            report["total_aic"], abs=1e-6)

    def test_column_mismatch_rejected(self):
        with pytest.raises(UsageError):
            fit_tree(PartitionTree.flat(3), np.zeros((5, 4), dtype=int))


class TestEmptyNodes:
    def test_multinomial_fit_of_empty_node_is_degenerate(self):
        fit = fit_node_multinomial(np.zeros((4, 3), dtype=int))
        assert fit.empty and fit.log_lik == 0.0 and fit.n_params == 2
        assert fit.params["pi"] == pytest.approx([1 / 3] * 3)

    def test_fit_tree_with_empty_internal_node(self, rng):
        # columns 2 and 5 are empty, so node {2,5} has no counts; this
        # raised UsageError
        tree = PartitionTree.from_nested([[2, 5], 1, 3, 4, 6])
        counts = rng.negative_binomial(2.0, 0.3, size=(300, 6))
        counts[:, [1, 4]] = 0
        model, report = fit_tree(tree, counts)
        row = next(r for r in report["rows"] if r["node"] == "{2,5}")
        assert row["empty"] and row["kind"] == "multinomial"
        assert row["log_lik"] == 0.0 and row["n_params"] == 1
        assert not any(r["empty"] for r in report["rows"][1:]
                       if r is not row)
        _assert_decomposes(model, report, counts)

    def test_search_with_two_empty_columns(self, rng):
        counts = _three_node_model().sample_many(1_000, rng)
        counts = np.column_stack([counts, np.zeros((1_000, 2), dtype=int)])
        model, report, _ = search_tree(counts)
        assert model.tree.leaf_count == 8
        _assert_decomposes(model, report, counts)


def _assert_decomposes(model, report, counts):
    node_total = sum(row["log_lik"] for row in report["rows"])
    assert node_total == pytest.approx(
        model.joint_log_pmf_many(counts).sum(), abs=1e-8)
    assert report["total_params"] == model.parameter_count


class TestReportRows:
    def test_fit_rows_carry_convergence(self, fitted):
        _, _, _, report = fitted
        for row in report["rows"]:
            assert isinstance(row["converged"], bool)
            assert row["iterations"] >= 0
        assert any(row["iterations"] > 0 for row in report["rows"][1:])

    def test_search_rows_carry_convergence(self, rng):
        counts = _three_node_model().sample_many(1_000, rng)
        _, report, _ = search_tree(counts)
        for row in report["rows"]:
            assert {"converged", "iterations"} <= set(row)


class TestSearch:
    def test_planted_pair_found_first(self):
        rng = np.random.default_rng(103)
        # column 2 mirrors column 1 through a near-deterministic split
        tree = PartitionTree.from_nested([[1, 2], 3, 4])
        splits = {tree.ROOT: SplitSpec(1, (2.0, 1.0, 1.0)),
                  tree.node_by_subset((1, 2)): SplitSpec(1, (3.0, 3.0))}
        true = TreePolyaModel(tree, splits, NegativeBinomial(3.0, 0.75))
        counts = true.sample_many(5_000, rng)
        _, _, trace = search_tree(counts)
        assert trace, "no move accepted"
        assert trace[0]["move"] == "create"
        assert trace[0]["node"] == [1, 2]

    def test_independent_columns_stay_flat(self):
        rng = np.random.default_rng(104)
        counts = np.column_stack([
            rng.negative_binomial(2.0, 0.5, size=6_000) for _ in range(4)])
        model, _, trace = search_tree(counts)
        assert trace == []
        assert model.tree.internal_ids == [model.tree.ROOT]

    def test_trace_strictly_improving(self):
        rng = np.random.default_rng(105)
        model = _three_node_model()
        counts = model.sample_many(4_000, rng)
        config = SearchConfig(aic_epsilon=1e-6)
        _, _, trace = search_tree(counts, config=config)
        assert all(t["delta_aic"] <= -config.aic_epsilon for t in trace)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(106)
        model = _three_node_model()
        counts = model.sample_many(3_000, rng)
        m1, r1, t1 = search_tree(counts)
        shuffled = counts[np.random.default_rng(9).permutation(
            counts.shape[0])]
        m2, r2, t2 = search_tree(shuffled)
        assert [t["node"] for t in t1] == [t["node"] for t in t2]
        assert r1["total_aic"] == pytest.approx(r2["total_aic"], abs=1e-6)

    def test_recovers_three_node_structure(self):
        rng = np.random.default_rng(107)
        model = _three_node_model()
        counts = model.sample_many(10_000, rng)
        found, _, _ = search_tree(counts)
        subsets = {found.tree.subset(n) for n in found.tree.internal_ids}
        assert (1, 2) in subsets and (4, 5, 6) in subsets


    def test_created_nodes_are_searched_depth_first(self, monkeypatch):
        visits = []

        def grow(children, cache, trace):
            visits.append(fit_module._leaves_under(children))
            return [ch for ch in children if isinstance(ch, list)]

        monkeypatch.setattr(fit_module, "_grow_node", grow)
        fit_module._search_node([[[1, 2], [3, 4]], [[5, 6], 7], 8], None, [])
        assert visits == [tuple(range(1, 9)), (1, 2, 3, 4), (1, 2), (3, 4),
                          (5, 6, 7), (5, 6)]

    def test_nested_search_trace_is_pinned(self):
        """A seeded search that creates nodes inside two created nodes;
        the created nodes are searched depth first in order of creation."""
        tree = PartitionTree.from_nested([[[1, 2], 3, 4], [[5, 6], 7, 8], 9])
        weights = {(1, 2, 3, 4): (4.0, 4.0, 4.0), (1, 2): (0.5, 0.5),
                   (5, 6, 7, 8): (4.0, 4.0, 4.0), (5, 6): (0.5, 0.5)}
        splits = {tree.node_by_subset(k): SplitSpec(1, v)
                  for k, v in weights.items()}
        splits[tree.ROOT] = SplitSpec(1, (3.0, 3.0, 1.0))
        model = TreePolyaModel(tree, splits, NegativeBinomial(3.0, 0.8))
        counts = model.sample_many(1_500, np.random.default_rng(113))
        _, _, trace = search_tree(counts)
        root = "{1,2,3,4,5,6,7,8,9}"
        expected = [("create", root, [7, 8], -51.974491),
                    ("transfer", root, [5, 7, 8], -25.095828),
                    ("create", root, [3, 4], -70.692422),
                    ("transfer", root, [2, 3, 4], -54.192553),
                    ("transfer", root, [1, 2, 3, 4], -1.869043),
                    ("create", "{5,7,8}", [5, 8], -1.277215),
                    ("create", "{1,2,3,4}", [1, 2], -64.347318)]
        assert [(t["move"], t["parent"], t["node"]) for t in trace] == \
            [e[:3] for e in expected]
        assert [t["delta_aic"] for t in trace] == pytest.approx(
            [e[3] for e in expected], abs=1e-5)


def _three_node_model():
    tree = PartitionTree.from_nested([[1, 2], 3, [4, 5, 6]])
    splits = {tree.ROOT: SplitSpec(1, (2.0, 1.5, 3.0)),
              tree.node_by_subset((1, 2)): SplitSpec(1, (1.0, 2.5)),
              tree.node_by_subset((4, 5, 6)): SplitSpec(1, (1.0, 1.0, 2.0))}
    return TreePolyaModel(tree, splits, NegativeBinomial(4.0, 0.8))


class TestSearchFits:
    def test_cached_aics_match_cold_fits(self):
        counts = _three_node_model().sample_many(
            3_000, np.random.default_rng(108))
        config = SearchConfig()
        cache = fit_module._FitCache(counts, config)
        fit_module._search_node(list(range(1, 7)), cache, [])
        warm = 0
        for key, (aic, weights) in cache.cache.items():
            data = counts @ incidence_matrix(sorted(key), 6).T
            try:
                cold = fit_node_dm(data, tol=config.dm_tol,
                                   max_iter=config.dm_max_iter)
                if cold.divergence_flag:
                    cold = fit_node_multinomial(data)
            except (ConvergenceError, UsageError):
                cold = fit_node_multinomial(data)
            assert aic == pytest.approx(cold.aic, abs=1e-6), sorted(key)
            assert (weights is None) == (cold.kind == "multinomial")
            warm += weights is not None
        assert warm > 0

    def test_budget_stops_the_search_early(self, monkeypatch):
        counts = _three_node_model().sample_many(
            2_000, np.random.default_rng(109))
        calls = []
        original = fit_module.fit_node_dm

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fit_module, "fit_node_dm", counted)
        # count the search's own fits, not those of the final fit_tree
        monkeypatch.setattr(fit_module, "fit_tree", lambda *a, **k: (a, k))
        _, _, trace = search_tree(counts)
        unbounded = len(calls)
        assert len(trace) >= 2
        calls.clear()
        with pytest.raises(ConvergenceError):
            search_tree(counts, config=SearchConfig(max_iterations=1))
        assert len(calls) < unbounded
