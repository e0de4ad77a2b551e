import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from treepolya.examples import ten_leaf_example
from treepolya.exceptions import DomainError, UsageError, ValidationError
from treepolya.model import (MARGINAL_TAIL, ChainStage, MarginalChain,
                             TreePolyaModel, _thin, absorb_binomials,
                             marginal_pmf, marginal_pmf_vector)
from treepolya.polya import (Binomial, Dirac, NegativeBinomial, Poisson,
                             SplitSpec, polya_pmf, sumlaw_factorial_moment,
                             sumlaw_log_pmf, sumlaw_support_max,
                             sumlaw_truncated_log_pmf)
from treepolya.special import (ln_gen_factorial, ln_gen_factorial_many,
                               pfq_convergent)
from treepolya.tree import PartitionTree

from conftest import enumerate_joint, simplex


def five_leaf(total=Dirac(8)):
    """Mixed-split 5-leaf tree: {{1,2},3,{4,5}} with c=1,0 splits."""
    tree = PartitionTree.from_nested([[1, 2], 3, [4, 5]])
    splits = {
        tree.ROOT: SplitSpec(1, (1.5, 1.0, 2.5)),
        tree.node_by_subset((1, 2)): SplitSpec(0, (0.4, 0.6)),
        tree.node_by_subset((4, 5)): SplitSpec(1, (0.7, 1.3)),
    }
    return TreePolyaModel(tree, splits, total)


def _eager_chain(model, nid):
    """A node's chain built by walking its root path."""
    tree, stages = model.tree, []
    for child, parent in zip(tree.root_path(nid), tree.root_path(nid)[1:]):
        spec = model.splits[parent]
        theta = spec.theta[tree.children(parent).index(child)]
        stages.append(ChainStage(spec.c, theta, spec.total - theta))
    return MarginalChain(tuple(stages), model.sum_law)


class TestValidation:
    def test_missing_split_rejected(self):
        tree = PartitionTree.from_nested([[1, 2], 3])
        with pytest.raises(ValidationError):
            TreePolyaModel(tree, {tree.ROOT: SplitSpec(0, (0.5, 0.5))},
                           Dirac(4))

    def test_arity_mismatch_rejected(self):
        tree = PartitionTree.flat(3)
        with pytest.raises(ValidationError):
            TreePolyaModel(tree, {tree.ROOT: SplitSpec(0, (0.5, 0.5))},
                           Dirac(4))

    def test_hypergeometric_under_unbounded_total_rejected(self):
        tree = PartitionTree.flat(2)
        with pytest.raises(ValidationError):
            TreePolyaModel(tree, {tree.ROOT: SplitSpec(-1, (3, 4))},
                           Poisson(2.0))

    def test_hypergeometric_with_enough_weight_accepted(self):
        tree = PartitionTree.flat(2)
        model = TreePolyaModel(tree, {tree.ROOT: SplitSpec(-1, (4, 4))},
                               Dirac(6))
        assert model.parameter_count == 2


class TestJointPmf:
    def test_normalizes_over_simplex(self):
        model = five_leaf(Dirac(8))
        assert sum(enumerate_joint(model, 8).values()) == pytest.approx(
            1.0, abs=1e-12)

    def test_wrong_total_has_zero_mass(self):
        model = five_leaf(Dirac(8))
        assert model.joint_log_pmf(np.array([1, 1, 1, 1, 1])).sign == 0

    def test_poisson_total_normalizes(self):
        tree = PartitionTree.flat(2)
        model = TreePolyaModel(tree, {tree.ROOT: SplitSpec(1, (1.0, 2.0))},
                               Poisson(3.0))
        total = sum(model.joint_log_pmf(np.array(y)).to_float()
                    for n in range(60) for y in simplex(n, 2))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_factorizes_through_subsums(self):
        # pmf = sum-law(n) * product of per-node conditional splits
        model = five_leaf(Dirac(8))
        y = np.array([2, 1, 3, 1, 1])
        subs = model.tree.incidence @ y
        tree = model.tree
        expect = sumlaw_log_pmf(8, model.sum_law).to_float()
        for nid in tree.internal_ids:
            child = np.array([subs[c] for c in tree.children(nid)])
            expect *= polya_pmf(child, model.splits[nid]).to_float()
        assert model.joint_log_pmf(y).to_float() == pytest.approx(
            expect, rel=1e-12)

    def test_fractional_count_has_zero_mass(self):
        model = ten_leaf_example()
        y = model.sample_many(1, np.random.default_rng(5))[0].astype(float)
        y[3] += 0.7
        assert model.joint_log_pmf(y).sign == 0
        assert model.joint_log_pmf_many(y[None, :])[0] == -math.inf

    def test_half_count_moved_between_sibling_leaves_has_zero_mass(self):
        # leaves 4 and 5 are siblings, so every node subsum stays integer
        model = ten_leaf_example()
        y = model.sample_many(1, np.random.default_rng(6))[0].astype(float)
        y[[3, 4]] += [0.5, 1.5]
        y[4] -= 2
        assert model.joint_log_pmf(y).sign == 0
        assert model.joint_log_pmf_many(y[None, :])[0] == -math.inf
        assert polya_pmf([1.5, 0.5], SplitSpec(1, (1.0, 2.0))).sign == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, 2)])
    def test_nan_or_infinite_count_is_usage_error(self, bad):
        # a complex count was a bare TypeError in a list, and an array's
        # complex counts were cast to their real parts
        model = ten_leaf_example()
        y = np.ones(10, dtype=type(bad))
        y[2] = bad
        with pytest.raises(UsageError):
            model.joint_log_pmf(y)
        with pytest.raises(UsageError):
            model.joint_log_pmf_many(np.vstack([np.ones(10), y]))
        with pytest.raises(UsageError):
            polya_pmf([1.0, bad], SplitSpec(0, (0.5, 0.5)))

    @pytest.mark.parametrize("shape", [(2, 5), (1, 10), ()])
    def test_observation_must_be_a_vector(self, shape):
        # a (2, 5) matrix was read as one ten-leaf row (log-mass -29.14)
        model = ten_leaf_example()
        with pytest.raises(UsageError, match="count vector"):
            model.joint_log_pmf(np.ones(shape, dtype=int))


class TestDeepTrees:
    def test_1500_leaf_cascade(self):
        # the split over k leaves has weights (1, k - 1), so every leaf
        # has the same mean and no path constant underflows
        tree = PartitionTree.cascade(range(1, 1501))
        splits = {nid: SplitSpec(0, (1.0, len(tree.subset(nid)) - 1.0))
                  for nid in tree.internal_ids}
        model = TreePolyaModel(tree, splits, NegativeBinomial(5.0, 0.99))
        rows = model.sample_many(20, np.random.default_rng(8))
        assert np.all(np.isfinite(model.joint_log_pmf_many(rows)))
        corr = model.correlation_matrix()
        assert np.array_equal(corr, corr.T)
        assert np.all(np.diag(corr) == 1.0)
        sub, _ = tree.prune_at(tree.children(tree.ROOT)[1])
        assert sub.leaf_count == 1499


@st.composite
def small_models(draw):
    """Random trees over 2-6 leaves with every split kind and sum law;
    hypergeometric splits only below a bounded total, with integer
    weights that may lie under the node's maximal total."""
    j = draw(st.integers(2, 6))

    def nest(labels):
        if len(labels) == 1:
            return labels[0]
        cuts = sorted(draw(st.sets(st.integers(1, len(labels) - 1),
                                   min_size=1)))
        bounds = [0] + cuts + [len(labels)]
        return [nest(labels[a:b]) for a, b in zip(bounds, bounds[1:])]

    tree = PartitionTree.from_nested(
        nest(draw(st.permutations(range(1, j + 1)))))
    law = draw(st.one_of(
        st.builds(Dirac, st.integers(0, 6)),
        st.builds(Binomial, st.integers(1, 6), st.floats(0.1, 0.9)),
        st.builds(Poisson, st.floats(0.5, 6.0)),
        st.builds(NegativeBinomial, st.floats(0.5, 5.0),
                  st.floats(0.1, 0.8))))
    bound, splits = {tree.ROOT: sumlaw_support_max(law)}, {}
    for nid in tree.internal_ids:  # parents come first
        arity = len(tree.children(nid))
        kinds = [0, 1] if bound[nid] is None else [-1, 0, 1]
        c = draw(st.sampled_from(kinds))
        if c == -1:
            theta = draw(st.lists(st.integers(1, max(bound[nid], 1)),
                                  min_size=arity, max_size=arity))
            theta[-1] += max(0, bound[nid] - sum(theta))
        else:
            theta = draw(st.lists(st.floats(0.2, 5.0), min_size=arity,
                                  max_size=arity))
        splits[nid] = SplitSpec(c, theta)
        for cid, t in zip(tree.children(nid), theta):
            bound[cid] = bound[nid] if c != -1 else min(bound[nid], int(t))
    return TreePolyaModel(tree, splits, law)


def _assembled_log_pmf(model, y):
    """Sum law times every node's split, on explicit leaf-subset sums."""
    tree = model.tree
    sums = [sum(y[j - 1] for j in tree.subset(nid))
            for nid in range(len(tree))]
    out = sumlaw_log_pmf(sums[tree.ROOT], model.sum_law)
    for nid in tree.internal_ids:
        out = out * polya_pmf([sums[c] for c in tree.children(nid)],
                              model.splits[nid])
    return out.log_magnitude if out.sign else -math.inf


class TestBatchProperties:
    @settings(max_examples=60, deadline=None)
    @given(model=small_models(), seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_pmf_matches_assembly(self, model, seed):
        rng = np.random.default_rng(seed)
        j = model.tree.leaf_count
        top = sumlaw_support_max(model.sum_law)
        top = 6 if top is None else top
        rows = np.vstack([
            model.sample_many(8, rng),
            rng.multinomial(top, np.full(j, 1.0 / j), size=8),
            rng.integers(-1, top + 3, size=(8, j))])
        got = model.joint_log_pmf_many(rows)
        expect = np.array([_assembled_log_pmf(model, y) for y in rows])
        assert np.array_equal(got == -math.inf, expect == -math.inf)
        finite = np.isfinite(expect)
        assert np.allclose(got[finite], expect[finite], rtol=1e-12,
                           atol=1e-12)
        perm = rng.permutation(rows.shape[0])
        assert np.array_equal(model.joint_log_pmf_many(rows[perm]), got[perm])

    @settings(max_examples=60, deadline=None)
    @given(model=small_models(), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_form_of_a_count_matrix_gives_the_same_bits(self, model,
                                                              seed):
        rows = np.random.default_rng(seed).integers(
            -1, 9, size=(12, model.tree.leaf_count))
        got = model.joint_log_pmf_many(rows)
        for same in (rows.astype(float), rows.tolist()):
            assert np.array_equal(got, model.joint_log_pmf_many(same))

    @settings(max_examples=60, deadline=None)
    @given(model=small_models())
    def test_correlation_matches_covariance(self, model):
        j = model.tree.leaf_count
        var = [model.covariance(i, i) for i in range(1, j + 1)]
        if min(var) <= 0:
            with pytest.raises(DomainError):
                model.correlation_matrix()
            return
        corr = model.correlation_matrix()
        for i in range(j):
            for k in range(j):
                expect = model.covariance(i + 1, k + 1) \
                    / math.sqrt(var[i] * var[k])
                assert corr[i, k] == pytest.approx(expect, rel=1e-10,
                                                   abs=1e-12)


class TestMarginals:
    def test_closed_form_matches_enumeration(self):
        model = five_leaf(Dirac(8))
        table = enumerate_joint(model, 8)
        for leaf in range(1, 6):
            chain = model.leaf_marginal_chain(leaf)
            for n in range(9):
                brute = sum(p for y, p in table.items() if y[leaf - 1] == n)
                assert marginal_pmf(chain, n) == pytest.approx(
                    brute, abs=1e-10), f"leaf {leaf}, n={n}"

    def test_internal_node_marginal(self):
        model = five_leaf(Dirac(8))
        table = enumerate_joint(model, 8)
        node = model.tree.node_by_subset((4, 5))
        chain = model.marginal_chain(node)
        for n in range(9):
            brute = sum(p for y, p in table.items() if y[3] + y[4] == n)
            assert marginal_pmf(chain, n) == pytest.approx(brute, abs=1e-10)

    def test_nb_terminal_closed_form_branches_agree(self):
        # with the multinomial stages absorbed into NB(alpha, q), q < 0.5,
        # P(n) = prod_k (a_k)_n / (a_k + b_k)_n * (alpha)_n / n!
        # * (q / (1-q))^n * pFq(alpha + n, a + n; a + b + n; q / (q - 1))
        for p in (0.3, 0.45):
            chain = ten_leaf_example(p=p).leaf_marginal_chain(6)
            absorbed = absorb_binomials(chain)
            alpha, q = absorbed.terminal.alpha, absorbed.terminal.p
            a = np.array([stage.theta_num for stage in absorbed.stages])
            b = np.array([stage.theta_rest for stage in absorbed.stages])
            for n in range(11):
                log_pref = (np.sum(gammaln(a + n) - gammaln(a)
                                   - gammaln(a + b + n) + gammaln(a + b))
                            + gammaln(alpha + n) - gammaln(alpha)
                            - gammaln(n + 1) + n * math.log(q / (1 - q)))
                series = pfq_convergent([alpha + n, *(a + n)], list(a + b + n),
                                        q / (q - 1))
                assert marginal_pmf(chain, n) == pytest.approx(
                    math.exp(log_pref) * series, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("law", [Dirac(6), Binomial(6, 0.4)])
    def test_hypergeometric_stages_match_enumeration(self, law):
        tree = PartitionTree.from_nested([[1, 2], [3, [4, 5]]])
        by = tree.node_by_subset
        splits = {tree.ROOT: SplitSpec(-1, (4, 5)),
                  by((1, 2)): SplitSpec(1, (0.7, 1.6)),
                  by((3, 4, 5)): SplitSpec(-1, (2, 3)),
                  by((4, 5)): SplitSpec(0, (0.35, 0.65))}
        model = TreePolyaModel(tree, splits, law)
        table = {}
        for m in range(sumlaw_support_max(law) + 1):
            table.update(enumerate_joint(model, m))
        for nid in range(len(tree)):
            cols = [j - 1 for j in tree.subset(nid)]
            vec = marginal_pmf_vector(model.marginal_chain(nid))
            brute = np.zeros(vec.size)
            for y, prob in table.items():
                brute[sum(y[j] for j in cols)] += prob
            assert np.abs(vec - brute).max() <= 1e-12, tree.subset(nid)

    def test_chain_lists_the_root_path_leaf_side_first(self):
        model = ten_leaf_example()
        for nid in range(len(model.tree)):
            assert model.marginal_chain(nid) == _eager_chain(model, nid)

    @settings(max_examples=40, deadline=None)
    @given(model=small_models(), seed=st.integers(0, 2 ** 32 - 1))
    def test_lazy_chains_equal_eager_ones(self, model, seed):
        # asked in a random order, so that some chains are built from a
        # cached ancestor and some from the root
        order = np.random.default_rng(seed).permutation(len(model.tree))
        for nid in order:
            assert model.marginal_chain(int(nid)) == \
                _eager_chain(model, int(nid))

    def test_deep_cascade_builds_no_chains_up_front(self):
        tree = PartitionTree.cascade(list(range(1, 1202)))  # depth 1200
        splits = {nid: SplitSpec(1, (1.0, 2.0)) for nid in tree.internal_ids}
        tracemalloc.start()
        try:
            model = TreePolyaModel(tree, splits, NegativeBinomial(2.0, 0.5))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # building every chain eagerly kept 12.2 MB here
        assert kept < 256 * 1024
        deepest = tree.leaf_node(1201)
        assert len(model.marginal_chain(deepest).stages) == 1200

    def test_marginal_normalizes(self):
        model = ten_leaf_example()
        chain = model.leaf_marginal_chain(9)
        total = sum(marginal_pmf(chain, n) for n in range(2500))
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("law", [NegativeBinomial(2.0, 0.45), Dirac(8)])
    def test_non_integer_n_has_zero_mass(self, law):
        chain = five_leaf(law).leaf_marginal_chain(4)
        assert marginal_pmf(chain, 2.5) == 0.0
        assert marginal_pmf(chain, 2.0) == marginal_pmf(chain, 2) > 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(2, 1)])
    def test_nan_or_infinite_n_is_usage_error(self, bad):
        chain = ten_leaf_example(alpha=2.0, p=0.45).leaf_marginal_chain(6)
        with pytest.raises(UsageError):
            marginal_pmf(chain, bad)

    def test_n_past_truncation_point_is_zero(self):
        chain = ten_leaf_example(alpha=2.0, p=0.45).leaf_marginal_chain(6)
        assert marginal_pmf(chain, 10 ** 6) == 0.0
        assert marginal_pmf(chain, marginal_pmf_vector(chain).size) == 0.0

    @pytest.mark.parametrize("n", [-1, -3.0, np.int64(-2), -(10 ** 30)])
    def test_negative_n_has_zero_mass(self, n):
        # a Python int takes the lookup's fast path; -1 must not index
        # the vector's last entry
        chain = ten_leaf_example(alpha=2.0, p=0.45).leaf_marginal_chain(6)
        assert marginal_pmf(chain, n) == 0.0

    def test_equal_chains_share_one_cached_vector(self):
        model = ten_leaf_example(alpha=2.0, p=0.45)
        chain = model.leaf_marginal_chain(6)
        rebuilt = MarginalChain(tuple(ChainStage(s.c, s.theta_num,
                                                 s.theta_rest)
                                      for s in chain.stages), chain.terminal)
        assert rebuilt is not chain and rebuilt == chain
        assert hash(rebuilt) == hash(chain) == hash((chain.stages,
                                                     chain.terminal))
        assert marginal_pmf_vector(rebuilt) is marginal_pmf_vector(chain)

    def test_nb_099_leaf_marginals_in_bounded_memory(self):
        # dense (n_max + 1)^2 stage kernels took 286 MB here
        model = ten_leaf_example(alpha=2.0, p=0.99)
        marginal_pmf_vector.cache_clear()
        tracemalloc.start()
        try:
            for leaf in range(1, 11):
                marginal_pmf(model.leaf_marginal_chain(leaf), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_hypergeometric_stage_below_bounded_total_rejected(self):
        # |theta| = 4 cannot split a total of 6: the vector was all zeros
        chain = MarginalChain((ChainStage(-1, 2, 2),), Dirac(6))
        with pytest.raises(ValidationError):
            marginal_pmf_vector(chain)

    def test_hypergeometric_stage_under_unbounded_total_rejected(self):
        # the negative binomial's totals above 4 were silently dropped
        chain = MarginalChain((ChainStage(-1, 2, 2),),
                              NegativeBinomial(2, 0.5))
        with pytest.raises(ValidationError):
            marginal_pmf(chain, 1)

    @settings(max_examples=60, deadline=None)
    @given(model=small_models(), data=st.data())
    def test_vector_is_a_pmf_with_the_path_moments(self, model, data):
        node = data.draw(st.integers(0, len(model.tree) - 1))
        vec = marginal_pmf_vector(model.marginal_chain(node))
        assert np.all(vec >= 0)
        assert abs(vec.sum() - 1.0) <= 1e-12
        n = np.arange(vec.size)
        assert vec @ n == pytest.approx(model.node_mean(node), rel=1e-8,
                                        abs=1e-12)
        assert vec @ (n * (n - 1)) == pytest.approx(
            model.node_factorial_moment(node, 2), rel=1e-8, abs=1e-12)


def _unabsorbed(chain):
    """A chain's p.m.f. with every stage applied entry by entry (``_thin``'s
    ``direct`` kernel, the oracle of its correlation) to the terminal's
    grid, none absorbed."""
    dist = np.exp(sumlaw_truncated_log_pmf(chain.terminal, MARGINAL_TAIL))
    for stage in reversed(chain.stages):
        dist = _thin(stage, dist, direct=True)
    return dist


def _assert_close_to_unabsorbed(chain, vec):
    """Each side is within MARGINAL_TAIL of the exact p.m.f., and a
    shorter vector's missing entries are zeros."""
    ref = _unabsorbed(chain)
    size = max(ref.size, vec.size)
    ref, vec = (np.pad(v, (0, size - v.size)) for v in (ref, vec))
    assert np.abs(vec - ref).max() <= 2 * MARGINAL_TAIL


def _two_level(root, inner, law):
    """[[1, 2], 3] with the given root and {1, 2} splits."""
    tree = PartitionTree.from_nested([[1, 2], 3])
    return TreePolyaModel(tree, {tree.ROOT: root,
                                 tree.node_by_subset((1, 2)): inner}, law)


def _assert_law(got, expect):
    """Same family, and each parameter equal up to rounding."""
    assert type(got) is type(expect)
    for name, value in vars(expect).items():
        assert getattr(got, name) == pytest.approx(value, rel=1e-14)


class TestAbsorption:
    def test_collapses_multinomial_stages(self):
        model = ten_leaf_example()
        chain = model.leaf_marginal_chain(9)
        collapsed = absorb_binomials(chain)
        assert all(stage.c != 0 for stage in collapsed.stages)
        _assert_close_to_unabsorbed(chain, marginal_pmf_vector(collapsed))

    def test_pure_binomial_chain_collapses_to_terminal(self):
        model = _two_level(SplitSpec(0, (0.6, 0.4)),
                           SplitSpec(0, (0.25, 0.75)),
                           NegativeBinomial(2.0, 0.5))
        collapsed = absorb_binomials(model.leaf_marginal_chain(1))
        assert not collapsed.stages
        law = collapsed.terminal
        # thinned NB keeps alpha, success odds scale with gamma
        gamma = 0.6 * 0.25
        expect_p = 0.5 * gamma / (1 - 0.5 * (1 - gamma))
        assert law.alpha == pytest.approx(2.0)
        assert law.p == pytest.approx(expect_p, rel=1e-12)

    @pytest.mark.parametrize("law, expect", [
        (Dirac(40), Binomial(40, 0.15)),
        (Binomial(60, 0.5), Binomial(60, 0.075)),
        (Poisson(30.0), Poisson(4.5))])
    def test_every_terminal_absorbs_multinomial_stages(self, law, expect):
        model = _two_level(SplitSpec(0, (0.6, 0.4)),
                           SplitSpec(0, (0.25, 0.75)), law)
        collapsed = absorb_binomials(model.leaf_marginal_chain(1))
        assert not collapsed.stages
        _assert_law(collapsed.terminal, expect)
        # below a DM split the multinomial stage still folds
        model = _two_level(SplitSpec(1, (0.6, 0.4)),
                           SplitSpec(0, (0.25, 0.75)), law)
        chain = model.leaf_marginal_chain(1)
        collapsed = absorb_binomials(chain)
        assert [stage.c for stage in collapsed.stages] == [1]
        assert type(collapsed.terminal) is type(expect)
        _assert_close_to_unabsorbed(chain, marginal_pmf_vector(chain))

    @pytest.mark.parametrize("law, root, leaf3, leaf1", [
        (NegativeBinomial(4.0, 0.6), SplitSpec(1, (1.5, 2.5)),
         NegativeBinomial(2.5, 0.6), NegativeBinomial(1.5, 0.375 / 1.375)),
        (Binomial(10, 0.4), SplitSpec(-1, (4, 6)), Binomial(6, 0.4),
         Binomial(4, 0.1)),
        (Dirac(10), SplitSpec(-1, (4, 6)), Dirac(6), Binomial(4, 0.25)),
        # integral to within the split's tolerance, and |theta| is 10
        (Dirac(10), SplitSpec(-1, (4.0000000001, 5.9999999999)), Dirac(6),
         Binomial(4, 0.25))])
    def test_closing_root_stage_collapses_the_chain(self, law, root, leaf3,
                                                    leaf1):
        model = _two_level(root, SplitSpec(0, (0.25, 0.75)), law)
        for leaf, expect in ((3, leaf3), (1, leaf1)):
            chain = model.leaf_marginal_chain(leaf)
            collapsed = absorb_binomials(chain)
            assert not collapsed.stages
            _assert_law(collapsed.terminal, expect)
            _assert_close_to_unabsorbed(chain, marginal_pmf_vector(chain))

    def test_closing_stage_below_a_kept_stage_is_kept(self):
        # {1, 2}'s DM split has |theta| = alpha but sits below a DM root
        # that does not close, so leaf 1's chain has nothing to fold
        law = NegativeBinomial(4.0, 0.6)
        model = _two_level(SplitSpec(1, (1.0, 2.0)),
                           SplitSpec(1, (1.5, 2.5)), law)
        chain = model.leaf_marginal_chain(1)
        assert absorb_binomials(chain) is chain
        # a root that closes makes theta_num the base the next one meets
        model = _two_level(SplitSpec(1, (2.0, 2.0)),
                           SplitSpec(1, (0.5, 1.5)), law)
        chain = model.leaf_marginal_chain(1)
        collapsed = absorb_binomials(chain)
        assert not collapsed.stages
        _assert_law(collapsed.terminal, NegativeBinomial(0.5, 0.6))
        _assert_close_to_unabsorbed(chain, marginal_pmf_vector(chain))

    def test_chain_with_nothing_to_fold_is_returned_as_it_is(self):
        chain = ten_leaf_example().leaf_marginal_chain(1)
        collapsed = absorb_binomials(chain)
        assert absorb_binomials(collapsed) is collapsed

    def test_shares_past_the_float_range_give_a_point_mass_at_zero(self):
        # forty multinomial (1e-10, 1) splits: leaf 1's share, 1e-400,
        # underflows to 0, and an NB of p = 0 is no law
        nested = 1
        for label in range(2, 42):
            nested = [nested, label]
        tree = PartitionTree.from_nested(nested)
        splits = {nid: SplitSpec(0, (1e-10, 1.0))
                  for nid in tree.internal_ids}
        model = TreePolyaModel(tree, splits, NegativeBinomial(2.0, 0.5))
        vec = marginal_pmf_vector(model.leaf_marginal_chain(1))
        assert vec.tolist() == [1.0]


@st.composite
def stage_grids(draw):
    """A terminal grid of one of the four families with N <= ~3 000, and
    a DM or hypergeometric stage, theta log-uniform in [1e-3, 1e6]
    (integral, and at least the grid's end, where hypergeometric)."""
    law = draw(st.one_of(
        st.builds(NegativeBinomial, st.floats(0.1, 10.0),
                  st.floats(0.01, 0.95)),
        st.builds(Poisson, st.floats(1e-3, 2000.0)),
        st.builds(Binomial, st.integers(1, 3000), st.floats(0.001, 0.999)),
        st.builds(Dirac, st.integers(0, 3000))))
    dist = np.exp(sumlaw_truncated_log_pmf(law, MARGINAL_TAIL))
    c = draw(st.sampled_from((-1, 1)))
    num, rest = (math.exp(draw(st.floats(math.log(1e-3), math.log(1e6))))
                 for _ in range(2))
    if c == -1:
        num = max(1, round(num))
        rest = max(round(rest), dist.size - 1 - num)
    return ChainStage(c, float(num), float(rest)), dist


def _fallback_rows(caplog, call):
    """``call()``, and the rows that each of its ``_thin`` calls computed
    entry by entry, read from the model logger's debug lines."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="treepolya.model"):
        out = call()
    return out, [int(re.search(r"(\d+) of \d+ rows", rec.getMessage())[1])
                 for rec in caplog.records if rec.name == "treepolya.model"]


class TestStageKernel:
    @settings(max_examples=80, deadline=None)
    @given(case=stage_grids())
    def test_factored_stage_matches_the_per_entry_kernel(self, case):
        stage, dist = case
        got, want = _thin(stage, dist), _thin(stage, dist, direct=True)
        assert np.all((got >= 0) & (got <= 1))
        # both sum logs as large as the stage's largest factor, and round
        # in proportion to it: at theta ~ 1e6 either is off the exact
        # value by ~1e-12 (against mpmath), past MARGINAL_TAIL
        n = np.arange(dist.size, dtype=float)
        logs = np.concatenate([gammaln(n + 1)] + [
            ln_gen_factorial_many(theta, n, stage.c) for theta in
            (stage.theta_num, stage.theta_rest,
             stage.theta_num + stage.theta_rest)])
        largest = np.abs(logs[np.isfinite(logs)]).max()
        assert np.all(np.abs(got - want) <= MARGINAL_TAIL
                      + 4 * np.finfo(float).eps * largest * want)

    def test_a_certain_value_is_not_rounded_past_one(self):
        # under a one-weight hypergeometric stage, Dirac(237) puts all its
        # mass on 1; the correlation read 1.0000000000000002 there
        dist = np.exp(sumlaw_truncated_log_pmf(Dirac(237), MARGINAL_TAIL))
        stage = ChainStage(-1, 1.0, 236.0)
        got, want = _thin(stage, dist), _thin(stage, dist, direct=True)
        assert got[1] == want[1] == 1.0 and got.max() == 1.0

    @pytest.mark.parametrize("stage, law, flagged", [
        (ChainStage(1, 1e3, 2e3), NegativeBinomial(2.0, 0.99), True),
        (ChainStage(1, 1e6, 2e6), NegativeBinomial(2.0, 0.99), True),
        (ChainStage(-1, 2500, 3500), Binomial(5000, 0.3), True),
        (ChainStage(-1, 2000, 4000), Dirac(300), True),
        (ChainStage(1, 1e6, 2e6), Dirac(0), False),
        (ChainStage(-1, 2, 3), Dirac(0), False)])
    def test_rows_past_the_underflow_bound_are_recomputed(
            self, caplog, stage, law, flagged):
        # the bound, e^(by_y + g0 + w0) N^2 tiny > MARGINAL_TAIL, flags
        # rows of near-multinomial DM and wide hypergeometric stages, and
        # never the one row of Dirac(0)'s grid
        chain = MarginalChain((stage,), law)
        marginal_pmf_vector.cache_clear()
        vec, rows = _fallback_rows(caplog, lambda: marginal_pmf_vector(chain))
        assert (sum(rows) > 0) is flagged
        assert np.abs(vec - _unabsorbed(chain)).max() <= MARGINAL_TAIL
        assert abs(vec.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("p, leaves", [(0.45, range(1, 11)),
                                           (0.99, range(1, 11)),
                                           (0.999, (9,))])
    def test_worked_example_takes_no_fallback(self, caplog, p, leaves):
        model = ten_leaf_example(alpha=2.0, p=p)
        for leaf in leaves:
            chain = absorb_binomials(model.leaf_marginal_chain(leaf))
            marginal_pmf_vector.cache_clear()
            vec, rows = _fallback_rows(caplog,
                                       lambda: marginal_pmf_vector(chain))
            assert np.all((vec >= 0) & (vec <= 1))
            assert np.abs(vec - _unabsorbed(chain)).max() <= MARGINAL_TAIL
            assert len(rows) == len(chain.stages) and not any(rows)


class TestMoments:
    def test_factorial_moment_matches_enumeration(self):
        model = five_leaf(Dirac(8))
        table = enumerate_joint(model, 8)
        for r in [(1, 0, 0, 0, 0), (0, 1, 1, 0, 0), (2, 0, 0, 0, 1),
                  (1, 1, 1, 1, 1)]:
            brute = sum(p * math.prod(
                math.prod(range(y[k], y[k] - r[k], -1)) for k in range(5))
                for y, p in table.items())
            assert model.factorial_moment(r) == pytest.approx(
                brute, rel=1e-9, abs=1e-12)

    def test_node_moment_equals_vector_moment(self):
        model = ten_leaf_example()
        leaf = model.tree.leaf_node(6)
        r = [0] * 10
        r[5] = 3
        assert model.node_factorial_moment(leaf, 3) == pytest.approx(
            model.factorial_moment(r), rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(model=small_models(), data=st.data())
    def test_node_moments_are_marginal_moments(self, model, data):
        """Orders to 3: the vector leaves out at most 1e-14 of the mass,
        which weighs ~1e-8 of a fifth moment of NB(1, 0.5)."""
        node = data.draw(st.integers(0, len(model.tree) - 1))
        vec = marginal_pmf_vector(model.marginal_chain(node))
        n = np.arange(vec.size, dtype=float)
        falling = np.ones(vec.size)  # n (n-1) ... (n-r+1)
        for r in range(4):
            assert model.node_factorial_moment(node, r) == pytest.approx(
                vec @ falling, rel=1e-9, abs=1e-12)
            falling *= n - r

    @pytest.mark.parametrize("call, error, message", [
        (lambda m: sumlaw_factorial_moment(1.5, Poisson(2.0)), UsageError,
         "counts must be integers"),
        (lambda m: m.node_factorial_moment(1, 1.5), UsageError,
         "counts must be integers"),
        (lambda m: m.node_factorial_moment(1, True), UsageError,
         "counts must be numbers"),
        (lambda m: m.factorial_moment([1.5] + [0] * 9), UsageError,
         "counts must be integers"),
        (lambda m: ln_gen_factorial(2.0, 1.5, 1), UsageError,
         "counts must be integers"),
        (lambda m: sumlaw_factorial_moment(-1, Poisson(2.0)), DomainError,
         "moment order must be nonnegative"),
        (lambda m: m.node_factorial_moment(1, -1), DomainError,
         "moment order must be nonnegative"),
        (lambda m: m.factorial_moment([-1] + [0] * 9), DomainError,
         "moment orders must be nonnegative"),
        (lambda m: ln_gen_factorial(2.0, -1, 1), DomainError,
         "n >= 0")], ids=[
        "sumlaw-1.5", "node-1.5", "node-True", "vector-1.5", "ln_gen-1.5",
        "sumlaw-neg", "node-neg", "vector-neg", "ln_gen-neg"])
    def test_orders_pass_the_int64_count_rule(self, call, error, message):
        # the non-integral and boolean orders were evaluated: 2.83, 0.0,
        # 57.0, 28.5 (the order cut to 1) and a product of 1.5 factors
        with pytest.raises(error, match=message):
            call(ten_leaf_example())

    def test_mean_variance_against_enumeration(self):
        model = five_leaf(Dirac(8))
        table = enumerate_joint(model, 8)
        for leaf in range(1, 6):
            node = model.tree.leaf_node(leaf)
            mean = sum(p * y[leaf - 1] for y, p in table.items())
            var = sum(p * y[leaf - 1] ** 2 for y, p in table.items()) \
                - mean ** 2
            assert model.node_mean(node) == pytest.approx(mean, rel=1e-10)
            assert model.node_variance(node) == pytest.approx(var, rel=1e-9)

    @pytest.mark.parametrize("m", [10, 2 ** 40, 2 ** 63 - 1])
    def test_root_variance_of_a_dirac_total_is_zero(self, m):
        # mu2 - mu1**2 cancelled: -2.0e-13, -1.34e8 and 9.22e18
        example = ten_leaf_example()
        model = TreePolyaModel(example.tree, example.splits, Dirac(m))
        assert model.node_variance(model.tree.ROOT) == 0.0

    @pytest.mark.parametrize("m", [10, 2 ** 40, 2 ** 62])
    def test_multinomial_leaves_under_a_dirac_total(self, m):
        """Leaf 1 takes p = 0.4 x 0.3 and leaf 3 takes 0.6 of m: variance
        m p (1 - p) and covariance -m p q, as for a multinomial draw."""
        tree = PartitionTree.from_nested([[1, 2], 3])
        model = TreePolyaModel(
            tree, {tree.ROOT: SplitSpec(0, (0.4, 0.6)),
                   tree.node_by_subset((1, 2)): SplitSpec(0, (0.3, 0.7))},
            Dirac(m))
        p = 0.4 * 0.3
        assert model.node_variance(tree.leaf_node(1)) == pytest.approx(
            m * p * (1 - p), rel=1e-12)
        assert model.covariance(1, 3) == pytest.approx(-m * p * 0.6,
                                                       rel=1e-12)

    @pytest.mark.parametrize("law, mean", [
        (Dirac(10), 10.0), (Dirac(2 ** 63 - 1), float(2 ** 63 - 1)),
        (Binomial(10, 0.3), 10 * 0.3)])
    def test_root_mean_is_exact(self, law, mean):
        # the mean was the exp of a log: Dirac(10) read 10.00000000000001
        example = ten_leaf_example()
        model = TreePolyaModel(example.tree, example.splits, law)
        assert model.node_mean(model.tree.ROOT) == mean

    def test_moments_are_summed_in_logs(self):
        """The sum law's order-21 moment, ~1e315, is past the float range,
        but leaf 3 takes a tenth of the total at a multinomial root, so
        its moment is ~1e294: both were the product of the two factors,
        which overflowed."""
        example = ten_leaf_example()
        model = TreePolyaModel(example.tree, example.splits, Dirac(10 ** 15))
        leaf = model.tree.leaf_node(3)
        want = math.exp(sum(math.log((10 ** 15 - k) * 0.1)
                            for k in range(21)))
        assert model.node_factorial_moment(leaf, 21) == pytest.approx(
            want, rel=1e-11)
        assert model.factorial_moment([0, 0, 21] + [0] * 7) \
            == pytest.approx(want, rel=1e-11)
        with pytest.raises(DomainError, match="past the float range"):
            model.node_factorial_moment(model.tree.ROOT, 21)
        with pytest.raises(DomainError, match="past the float range"):
            model.factorial_moment([30] * 10)

    def test_a_mean_past_1e154_squares_only_where_it_must(self):
        """mu1**2 was a bare OverflowError from every moment call once the
        mean passed ~1.3e154; the root has delta - gamma = 0, so its
        variance is the mean plus the law's Var - E."""
        example = ten_leaf_example()
        model = TreePolyaModel(example.tree, example.splits,
                               NegativeBinomial(1e200, 0.5))
        root, leaf = model.tree.ROOT, model.tree.leaf_node(3)
        assert model.node_mean(root) == 1e200
        assert model.node_variance(root) == pytest.approx(2e200, rel=1e-14)
        # leaf 3 hangs from the multinomial root alone
        assert model.node_variance(leaf) == pytest.approx(
            0.1 * 1e200 + 0.01 * 1e200, rel=1e-14)
        assert model.covariance(1, 3) == pytest.approx(
            0.3 * 0.5 * 0.1 * 1e200, rel=1e-14)
        with pytest.raises(DomainError, match="variance is past the float"):
            model.node_variance(model.tree.leaf_node(1))
        assert model.dispersion_report()["nodes"][root]["dispersion"] == "over"


class TestCovariance:
    def test_matches_enumeration(self):
        model = five_leaf(Dirac(8))
        table = enumerate_joint(model, 8)
        means = [sum(p * y[k] for y, p in table.items()) for k in range(5)]
        for i in range(1, 6):
            for j in range(1, 6):
                brute = sum(p * y[i - 1] * y[j - 1]
                            for y, p in table.items()) \
                    - means[i - 1] * means[j - 1]
                assert model.covariance(i, j) == pytest.approx(
                    brute, rel=1e-9, abs=1e-12), (i, j)

    def test_flat_tree_closed_form(self):
        # flat Dirichlet-multinomial over a Dirac total: the textbook
        # covariance -m * (m+|t|)/(1+|t|) * t_i t_j / |t|^2 ... verified
        # against enumeration, and the general path formula must agree
        theta = (1.0, 2.0, 3.0)
        tree = PartitionTree.flat(3)
        model = TreePolyaModel(tree, {tree.ROOT: SplitSpec(1, theta)},
                               Dirac(7))
        s = sum(theta)
        m = 7
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                expect = -m * (s + m) / (s + 1) * theta[i - 1] \
                    * theta[j - 1] / s ** 2
                assert model.covariance(i, j) == pytest.approx(
                    expect, rel=1e-10)

    def test_monte_carlo_nb_model(self, rng):
        model = ten_leaf_example()
        draws = model.sample_many(400_000, rng).astype(float)
        cov = np.cov(draws, rowvar=False)
        for i, j in [(1, 2), (6, 7), (6, 9), (4, 8), (9, 10)]:
            exact = model.covariance(i, j)
            # rough standard error of a sample covariance
            se = np.std(
                (draws[:, i - 1] - draws[:, i - 1].mean())
                * (draws[:, j - 1] - draws[:, j - 1].mean())) \
                / math.sqrt(draws.shape[0])
            assert abs(cov[i - 1, j - 1] - exact) < 4 * se, (i, j)

    def test_covariance_ratio(self):
        model = ten_leaf_example()
        t = model.tree
        ratio, cov1, cov2 = model.covariance_ratio(
            t.leaf_node(6), t.leaf_node(7), t.leaf_node(9))
        assert ratio == pytest.approx(0.8 / 1.0)
        assert cov1 / cov2 == pytest.approx(ratio, rel=1e-10)

    def test_correlation_matrix_properties(self):
        model = ten_leaf_example()
        corr = model.correlation_matrix()
        assert np.allclose(np.diag(corr), 1.0)
        assert np.allclose(corr, corr.T)
        eigvals = np.linalg.eigvalsh(corr)
        assert eigvals.min() > -1e-10

    def test_correlation_decays_with_depth(self):
        model = ten_leaf_example()
        corr = model.correlation_matrix()
        # leaf 4's correlation weakens as the shared ancestor gets
        # shallower: sibling 5, then 3 (root child), then 1 (two deep
        # on the other side)
        assert abs(corr[3, 4]) > abs(corr[3, 2]) > abs(corr[3, 0])


class TestIndependence:
    def test_flat_dm_with_matched_nb_factorizes(self):
        theta = (1.0, 2.0, 1.5)
        tree = PartitionTree.flat(3)
        model = TreePolyaModel(
            tree, {tree.ROOT: SplitSpec(1, theta)},
            NegativeBinomial(sum(theta), 0.6))
        for y in [(0, 0, 0), (1, 2, 3), (4, 0, 2), (5, 5, 5)]:
            joint = model.joint_log_pmf(np.array(y)).to_float()
            product = math.prod(
                marginal_pmf(model.leaf_marginal_chain(k + 1), y[k])
                for k in range(3))
            assert joint == pytest.approx(product, rel=1e-10)
        for i in range(1, 4):
            for j in range(i + 1, 4):
                assert model.covariance(i, j) == pytest.approx(0, abs=1e-10)

    def test_cross_block_correlation_sign_flips_with_alpha(self):
        # the {6,7} x {8,9,10} correlation is exactly zero when the
        # sum-law shape matches the total weight of their ancestor split,
        # and changes sign on either side
        base = ten_leaf_example()
        s_node = base.tree.node_by_subset((4, 5, 6, 7, 8, 9, 10))
        alpha_star = base.splits[s_node].total  # 10.0
        at = ten_leaf_example(alpha=alpha_star).correlation_matrix()[5, 8]
        below = ten_leaf_example(alpha=alpha_star - 3).correlation_matrix()[5, 8]
        above = ten_leaf_example(alpha=alpha_star + 3).correlation_matrix()[5, 8]
        assert at == pytest.approx(0.0, abs=1e-12)
        assert above < 0 < below


class TestDispersion:
    def test_ten_leaf_report(self):
        report = ten_leaf_example().dispersion_report()
        assert report["sum_law"] == "over"
        assert all(entry["dispersion"] == "over"
                   for entry in report["nodes"].values())

    def test_dirac_total_is_under(self):
        # Var - E = -m < 0 for a point mass at m, and the deficit
        # propagates to every subsum
        report = five_leaf(Dirac(8)).dispersion_report()
        assert report["sum_law"] == "under"
        assert report["nodes"][0]["dispersion"] == "under"

    @pytest.mark.parametrize("law, sign", [
        (Binomial(10, 1e-7), "under"),
        (NegativeBinomial(1e-3, 1e-6), "over")])
    def test_a_tiny_excess_keeps_its_sign(self, law, sign):
        # Var - E is -1e-13 and +1e-15: small, but not zero
        base = ten_leaf_example()
        report = TreePolyaModel(base.tree, base.splits,
                                law).dispersion_report()
        assert report["sum_law"] == sign
        assert report["nodes"][base.tree.ROOT]["dispersion"] == sign

    @pytest.mark.parametrize("law", [Poisson(3.0), Dirac(0)])
    def test_multinomial_paths_keep_a_null_total_null(self, law):
        model = _two_level(SplitSpec(0, (0.6, 0.4)),
                           SplitSpec(0, (0.25, 0.75)), law)
        report = model.dispersion_report()
        assert report["sum_law"] == "null"
        assert all(entry["dispersion"] == "null"
                   for entry in report["nodes"].values())


class TestSampling:
    def test_sample_pmf_total_variation(self, rng):
        model = five_leaf(Dirac(4))
        table = enumerate_joint(model, 4)
        draws = model.sample_many(1_000_000, rng)
        keys = {k: i for i, k in enumerate(table)}
        counts = np.zeros(len(keys))
        for row in draws:
            counts[keys[tuple(row)]] += 1
        tv = 0.5 * sum(abs(counts[i] / draws.shape[0] - table[k])
                       for k, i in keys.items())
        assert tv < 5e-3

    def test_determinism(self):
        model = ten_leaf_example()
        a = model.sample_many(100, np.random.default_rng(11))
        b = model.sample_many(100, np.random.default_rng(11))
        assert np.array_equal(a, b)


def _empirical_tv(model, draws):
    """Total variation between the draws' empirical law and the model,
    over the whole support (a cell never drawn counts its mass), and the
    expected total variation of exact draws, 0.5 sum sqrt(2 p (1-p) /
    (pi n)) over the drawn cells."""
    rows, counts = np.unique(draws, axis=0, return_counts=True)
    p = np.exp(model.joint_log_pmf_many(rows))
    n = draws.shape[0]
    tv = 0.5 * (np.abs(counts / n - p).sum() + 1.0 - p.sum())
    return tv, 0.5 * np.sqrt(2 * p * (1 - p) / (math.pi * n)).sum()


def _leaf_moments(draws):
    """Each leaf mean and each leaf covariance (pairs i <= j), with their
    standard errors."""
    n, leaves = draws.shape
    centred = draws - draws.mean(axis=0)
    products = np.stack([centred[:, i] * centred[:, j]
                         for i in range(leaves) for j in range(i, leaves)])
    return (draws.mean(axis=0), draws.std(axis=0) / math.sqrt(n),
            products.mean(axis=1), products.std(axis=1) / math.sqrt(n))


class TestRateRoute:
    """NB and Poisson totals are drawn as one Poisson count per leaf,
    their rate split down the tree; Dirac and binomial totals split the
    count itself."""

    @pytest.mark.parametrize("law", [NegativeBinomial(2.0, 0.5),
                                     Poisson(2.0)], ids=["nb", "poisson"])
    def test_sample_pmf_total_variation(self, law):
        """The five-leaf model nests a multinomial split under a DM root
        beside a DM split.  The bound is 1.3 times the total variation
        that exact draws expect: the conditional route's draws read
        0.97-1.15 times it here, and DM splits drawn as multinomial ones
        13-20 times it."""
        model = five_leaf(law)
        tv, floor = _empirical_tv(
            model, model.sample_many(1_000_000, np.random.default_rng(5)))
        assert tv < 1.3 * floor

    @pytest.mark.parametrize("law", [NegativeBinomial(10.0, 0.95),
                                     Poisson(20.0)], ids=["nb", "poisson"])
    def test_moments_match_the_model_and_the_conditional_route(self, law):
        base = ten_leaf_example()
        model = TreePolyaModel(base.tree, base.splits, law)
        rate = model.sample_many(400_000, np.random.default_rng(12))
        conditional = model._sample_conditional(
            400_000, np.random.default_rng(13))
        leaves = range(1, model.tree.leaf_count + 1)
        exact_mean = [model.node_mean(model.tree.leaf_node(j))
                      for j in leaves]
        exact_cov = [model.covariance(i, j) for i in leaves
                     for j in leaves if i <= j]
        mean, mean_se, cov, cov_se = _leaf_moments(rate)
        assert np.all(np.abs(mean - exact_mean) < 5 * mean_se)
        assert np.all(np.abs(cov - exact_cov) < 5 * cov_se)
        other = _leaf_moments(conditional)
        assert np.all(np.abs(mean - other[0])
                      < 5 * np.hypot(mean_se, other[1]))
        assert np.all(np.abs(cov - other[2]) < 5 * np.hypot(cov_se, other[3]))

    def test_tiny_dm_weights_give_finite_counts(self):
        """All-1e-10 weights, as a fit leaves on empty children: every
        gamma draw of such weights underflows to 0, and their normalised
        ratio would be 0/0.  The Dirichlet draw sends each row's rate to
        one child, as the DM's limit does."""
        tree = PartitionTree.from_nested([[1, 2], 3])
        splits = {tree.ROOT: SplitSpec(1, (3.0, 1e-10)),
                  tree.node_by_subset((1, 2)): SplitSpec(1, (1e-10, 1e-10))}
        law = NegativeBinomial(2.0, 0.8)
        draws = TreePolyaModel(tree, splits, law).sample_many(
            20_000, np.random.default_rng(14))
        assert draws.min() >= 0
        # a row's {1,2} rate goes whole to leaf 1 or whole to leaf 2
        assert not np.any((draws[:, 0] > 0) & (draws[:, 1] > 0))
        assert np.count_nonzero(draws[:, 0]) and np.count_nonzero(
            draws[:, 1])
        totals = draws.sum(axis=1)
        mean = law.alpha * law.p / (1 - law.p)
        assert abs(totals.mean() - mean) < 5 * totals.std() / math.sqrt(
            totals.size)

    @pytest.mark.parametrize("law", [NegativeBinomial(3.0, 0.7),
                                     Poisson(4.0)], ids=["nb", "poisson"])
    def test_rows_are_deterministic_for_a_seed(self, law):
        model = five_leaf(law)
        a, b, c = (model.sample_many(500, np.random.default_rng(seed))
                   for seed in (21, 21, 22))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("law, conditional", [
        (NegativeBinomial(1e4, 1 - 2.3e-16), "n too large or p too small"),
        (Poisson(1e19), "lam value too large")], ids=["nb", "poisson"])
    def test_a_law_past_numpys_samplers_is_a_domain_error(self, law,
                                                          conditional):
        """Before, numpy's bare ValueError escaped.  The rate route checks
        each row's rate before it draws (two leaves at 5e18 each would
        draw, and their total would pass int64); the conditional route
        passes on what numpy said."""
        tree = PartitionTree.flat(2)
        model = TreePolyaModel(tree, {tree.ROOT: SplitSpec(0, (1.0, 1.0))},
                               law)
        rng = np.random.default_rng(15)
        with pytest.raises(DomainError, match=re.escape(
                f"{law} cannot be sampled: a row's total has Poisson rate")):
            model.sample_many(3, rng)
        with pytest.raises(DomainError, match=re.escape(
                f"{law} cannot be sampled") + ".*" + conditional):
            model._sample_conditional(3, rng)


class TestParameterCount:
    def test_running_example(self):
        # NB(2) + c=1 splits {1,2},{4..10},{6,7},{8,9,10} contribute
        # arity each (2+3+2+2) + c=0 splits root,{4,5},{9,10} contribute
        # arity-1 each (2+1+1)
        assert ten_leaf_example().parameter_count == 15
