import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from treepolya import polya
from treepolya.exceptions import DomainError, UsageError
from treepolya.examples import ten_leaf_example
from treepolya.model import MarginalChain, TreePolyaModel, marginal_pmf
from treepolya.polya import (Binomial, Dirac, NegativeBinomial, Poisson,
                             SplitSpec, polya_pmf, polya_sample_many,
                             polya_uni_pmf, sumlaw_factorial_moment,
                             sumlaw_log_pmf, sumlaw_log_pmf_many,
                             sumlaw_sample_many, sumlaw_truncated_log_pmf,
                             sumlaw_truncation_point)

from conftest import simplex


class TestSplitSpec:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DomainError):
            SplitSpec(1, (1.0, 0.0))

    def test_rejects_single_child(self):
        with pytest.raises(DomainError):
            SplitSpec(0, (1.0,))

    def test_hypergeometric_needs_integer_weights(self):
        with pytest.raises(DomainError):
            SplitSpec(-1, (2.5, 3.0))


class TestParameterChecks:
    @pytest.mark.parametrize("make", [
        lambda: Poisson(math.nan), lambda: NegativeBinomial(math.inf, 0.5),
        lambda: NegativeBinomial(2.0, math.nan), lambda: Dirac(math.inf),
        lambda: Dirac(3.7), lambda: Binomial(10.5, 0.5),
        lambda: Binomial(10, -math.inf), lambda: Poisson("3"),
        lambda: SplitSpec(1, (math.nan, 1.0)), lambda: SplitSpec(0.6, (1, 2)),
        lambda: SplitSpec(0, (math.inf, 1.0)),
        lambda: SplitSpec(None, (1, 2)), lambda: SplitSpec(True, (1, 2)),
        lambda: SplitSpec(1, (True, 2.0)), lambda: Dirac(True),
        lambda: NegativeBinomial(True, 0.5), lambda: Poisson(True),
        lambda: Dirac(2 ** 63), lambda: Dirac(1e20),
        lambda: Binomial(10 ** 20, 0.5), lambda: Binomial(2 ** 63, 0.5)])
    def test_rejected_as_domain_errors(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize("law", [Dirac(2 ** 63 - 1),
                                     Binomial(2 ** 63 - 1, 0.5)])
    def test_a_count_parameter_may_reach_int64_max(self, law):
        # Dirac(10**20) was built, then the model raised a bare TypeError,
        # and at 2**63 - 1 the falling factorial's t + 1 wrapped in int64
        example = ten_leaf_example()
        model = TreePolyaModel(example.tree, example.splits, law)
        assert np.isfinite(model._mu).all()
        assert np.isfinite(sumlaw_factorial_moment(2, law))

    def test_factorial_moments_past_2_53(self):
        """m + 1 rounds to m past 2**53, so the falling factorial's
        gammaln(m + 1) - gammaln(m) was 0 and the first moment of
        Dirac(2**62) read 1.0.  The moments are exp of their logs, and
        half an ulp of a log near 43 is 3.6e-15 relative in the moment,
        hence the tolerance."""
        m = 2 ** 62
        assert sumlaw_factorial_moment(1, Dirac(m)) == pytest.approx(
            m, rel=1e-14)
        assert sumlaw_factorial_moment(2, Dirac(m)) == pytest.approx(
            m * (m - 1), rel=1e-14)
        example = ten_leaf_example()
        model = TreePolyaModel(example.tree, example.splits,
                               Dirac(2 ** 63 - 1))
        root = model.tree.ROOT
        mean = model.node_mean(root)
        assert mean == pytest.approx(2 ** 63 - 1, rel=1e-14)
        # Var = mu2 - mu1^2 + mu1 cancels: zero to the rounding of mu1^2
        assert abs(model.node_variance(root)) <= 1e-14 * mean ** 2

    def test_stored_as_the_annotated_type(self):
        assert type(Dirac(3.0).m) is int
        law = Binomial(np.int64(10), np.float64(0.5))
        assert (type(law.size), type(law.prob)) == (int, float)
        assert type(NegativeBinomial(2, 0.5).alpha) is float
        assert type(Poisson(np.float32(2.5)).rate) is float
        spec = SplitSpec(1.0, (1, np.float64(2.0)))
        assert type(spec.c) is int
        assert [type(t) for t in spec.theta] == [float, float]

    def test_family_is_not_a_field(self):
        law = NegativeBinomial(2.0, 0.5)
        assert law.family == "nb"
        assert repr(law) == "NegativeBinomial(alpha=2.0, p=0.5)"
        assert law == NegativeBinomial(2.0, 0.5)


class TestSimplexNormalization:
    @pytest.mark.parametrize("c,theta", [
        (-1, (5, 7)), (-1, (4, 3, 6)),
        (0, (0.2, 0.8)), (0, (0.5, 0.3, 0.2)),
        (1, (1.5, 2.0)), (1, (0.7, 1.1, 2.3)),
    ])
    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_sums_to_one(self, c, theta, n):
        spec = SplitSpec(c, theta)
        total = sum(polya_pmf(np.array(y), spec).to_float()
                    for y in simplex(n, len(theta)))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_two_split_matches_univariate(self):
        for y in range(6):
            via_pair = polya_pmf(np.array([y, 5 - y]),
                                 SplitSpec(1, (1.2, 3.4))).to_float()
            via_uni = polya_uni_pmf(y, 5, 1.2, 3.4, 1)
            assert via_pair == pytest.approx(via_uni.to_float(), rel=1e-12)


class TestKnownPmfs:
    def test_multinomial_case(self):
        got = polya_pmf(np.array([2, 1]), SplitSpec(0, (0.3, 0.7))).to_float()
        assert got == pytest.approx(3 * 0.3 ** 2 * 0.7, rel=1e-12)

    def test_hypergeometric_case(self):
        # drawing 3 from an urn with 4 and 6 marked items
        got = polya_pmf(np.array([2, 1]), SplitSpec(-1, (4, 6))).to_float()
        expect = math.comb(4, 2) * math.comb(6, 1) / math.comb(10, 3)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_hypergeometric_out_of_support(self):
        assert polya_pmf(np.array([5, 0]), SplitSpec(-1, (4, 6))).sign == 0

    def test_beta_binomial_uniform_special_case(self):
        # theta = (1,1) gives the uniform law on {0..n}
        for y in range(7):
            got = polya_pmf(np.array([y, 6 - y]),
                            SplitSpec(1, (1.0, 1.0))).to_float()
            assert got == pytest.approx(1 / 7, rel=1e-12)

    def test_aggregation_property(self):
        # merging the last two categories of a 3-split gives the 2-split
        # with summed weights (c=1)
        spec3 = SplitSpec(1, (1.5, 2.0, 2.5))
        spec2 = SplitSpec(1, (1.5, 4.5))
        n = 6
        for y1 in range(n + 1):
            merged = sum(polya_pmf(np.array([y1, a, n - y1 - a]),
                                   spec3).to_float()
                         for a in range(n - y1 + 1))
            expect = polya_pmf(np.array([y1, n - y1]), spec2).to_float()
            assert merged == pytest.approx(expect, rel=1e-10)


_SPLIT3 = SplitSpec(1, (1.0, 2.0, 3.0))


class TestKernelShapes:
    # a 3-d array was evaluated as rows (a (2, 3) array came back), a
    # vector was a bare AxisError and a row of the wrong arity a bare
    # ValueError
    @pytest.mark.parametrize("y", [np.ones((2, 2, 3)), np.ones(3),
                                   np.ones((2, 4))], ids=["3-d", "vector",
                                                          "arity"])
    def test_rows_of_another_shape_are_usage_errors(self, y):
        with pytest.raises(UsageError, match=re.escape(
                f"count rows have shape {y.shape}, split has 3 components")):
            polya.polya_log_pmf_many(y, _SPLIT3)


class TestSumLaws:
    @pytest.mark.parametrize("law", [
        Dirac(7), Binomial(12, 0.3), Poisson(4.5),
        NegativeBinomial(2.0, 0.6),
    ])
    def test_pmf_normalizes(self, law):
        cutoff = sumlaw_truncation_point(law, tail=1e-13)
        total = sum(sumlaw_log_pmf(n, law).to_float()
                    for n in range(cutoff + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("law,mean,var", [
        (Dirac(7), 7.0, 0.0),
        (Binomial(12, 0.3), 3.6, 12 * 0.3 * 0.7),
        (Poisson(4.5), 4.5, 4.5),
        (NegativeBinomial(2.0, 0.6), 3.0, 3.0 / 0.4),
    ])
    def test_factorial_moments_give_mean_variance(self, law, mean, var):
        m1 = sumlaw_factorial_moment(1, law)
        m2 = sumlaw_factorial_moment(2, law)
        assert m1 == pytest.approx(mean, rel=1e-12)
        assert m2 + m1 - m1 ** 2 == pytest.approx(var, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("law", [
        Binomial(12, 0.3), Poisson(4.5), NegativeBinomial(2.0, 0.6),
    ])
    def test_factorial_moment_matches_enumeration(self, law):
        cutoff = sumlaw_truncation_point(law, tail=1e-14)
        for r in (1, 2, 3):
            direct = sum(sumlaw_log_pmf(n, law).to_float()
                         * math.prod(range(n, n - r, -1))
                         for n in range(cutoff + 1))
            assert sumlaw_factorial_moment(r, law) == pytest.approx(
                direct, rel=1e-8)

    @pytest.mark.parametrize("rate", [5e-324, 0.5, 30.0, 1e6, 1e15, 1e16,
                                      2.0 ** 62])
    def test_poisson_log_pmf_matches_mpmath(self, rate):
        """k log(rate) - rate - log k! at 50 digits, from k = 0 to far
        past the rate.  In floats that form cancels near k = rate: at
        rate 1e16 it gave +64 for k = rate - 3, and 0 from 1e17.  At the
        least rate, k / rate overflows."""
        ks = np.unique(np.round(np.concatenate([
            np.arange(41.0),
            rate * np.array([0.5, 0.8, 0.9, 0.99, 1.0, 1.01, 1.1, 1.3, 2.0,
                             10.0]),
            rate + np.array([-3.0, 3.0, -5.0, 5.0]) * math.sqrt(rate)])))
        ks = ks[ks >= 0]
        got = sumlaw_log_pmf_many(ks, Poisson(rate))
        with mpmath.workdps(50):
            lam = mpmath.mpf(rate)
            want = [float(k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1))
                    for k in map(mpmath.mpf, ks.tolist())]
        assert got == pytest.approx(want, rel=1e-13)
        assert got.max() < 0.0

    @pytest.mark.parametrize("call", [
        lambda law: sumlaw_log_pmf(1, law),
        lambda law: sumlaw_log_pmf_many([1, 2], law),
        lambda law: sumlaw_factorial_moment(2, law),
        lambda law: sumlaw_sample_many(law, 3, np.random.default_rng(0)),
        lambda law: polya.sumlaw_support_max(law),
        lambda law: sumlaw_truncation_point(law),
        lambda law: sumlaw_truncated_log_pmf(law),
    ], ids=["log_pmf", "log_pmf_many", "factorial_moment", "sample_many",
            "support_max", "truncation_point", "truncated_log_pmf"])
    def test_a_non_law_is_an_unknown_sum_law(self, call):
        with pytest.raises(UsageError, match="unknown sum law"):
            call("x")

    def test_sampling_matches_moments(self, rng):
        law = NegativeBinomial(3.0, 0.7)
        draws = sumlaw_sample_many(law, 200_000, rng)
        mean = sumlaw_factorial_moment(1, law)
        m2 = sumlaw_factorial_moment(2, law)
        var = m2 + mean - mean ** 2
        assert draws.mean() == pytest.approx(mean,
                                             abs=4 * math.sqrt(var / 2e5))


def _scipy_law(law):
    if isinstance(law, Poisson):
        return stats.poisson(law.rate)
    return stats.nbinom(law.alpha, 1.0 - law.p)


def _scipy_truncation_point(law, tail):
    """isf(tail) + 1, moved to where scipy's own sf crosses ``tail``:
    its Poisson isf inverts the c.d.f. at 1 - tail, which loses tails
    below ~1e-15 (isf(1e-16) of Poisson(10) is 45, where sf is 1.05e-16)."""
    dist = _scipy_law(law)
    n = int(dist.isf(tail)) + 1
    while n > 1 and dist.sf(n - 2) <= tail:
        n -= 1
    while dist.sf(n - 1) > tail:
        n += 1
    return n


class TestTruncationPoint:
    @settings(max_examples=80, deadline=None)
    @given(law=st.one_of(
               st.builds(NegativeBinomial, st.floats(0.01, 50.0),
                         st.floats(0.01, 0.999)),
               st.builds(Poisson, st.floats(1e-3, 1e4))),
           log_tail=st.floats(-16.0, -6.0))
    def test_matches_scipy(self, law, log_tail):
        tail = 10.0 ** log_tail
        n = sumlaw_truncation_point(law, tail)
        ref = _scipy_truncation_point(law, tail)
        if n != ref:
            # only where the tail mass at the boundary is tail itself
            boundary = _scipy_law(law).sf(min(n, ref) - 1)
            assert abs(n - ref) == 1 and \
                abs(boundary / tail - 1.0) <= 1e-9, (n, ref, boundary)

    @pytest.mark.parametrize("law, tail", [
        (NegativeBinomial(2.0, 0.99), 1e-14),
        (NegativeBinomial(0.3, 0.9), 1e-16),
        (Poisson(1e-6), 1e-14), (Poisson(1000.0), 1e-16),
        (Binomial(12, 0.3), 1e-14), (Dirac(7), 1e-14)])
    def test_grid_is_the_log_pmf_up_to_n(self, law, tail):
        grid = sumlaw_truncated_log_pmf(law, tail)
        assert grid.size == sumlaw_truncation_point(law, tail) + 1
        assert np.array_equal(
            grid, sumlaw_log_pmf_many(np.arange(grid.size), law))

    @pytest.mark.parametrize("tail", [0.0, 1.0, math.nan])
    def test_tail_outside_unit_interval_is_domain_error(self, tail):
        with pytest.raises(DomainError):
            sumlaw_truncation_point(Poisson(3.0), tail)

    def test_huge_total_is_domain_error_naming_n(self):
        law = NegativeBinomial(2.0, 1 - 1e-12)
        with pytest.raises(DomainError, match="NegativeBinomial") as err:
            marginal_pmf(MarginalChain((), law), 3)
        needed = int(re.search(r"N = (\d+)", str(err.value)).group(1))
        assert needed == pytest.approx(_scipy_truncation_point(law, 1e-14),
                                       rel=1e-3)

    @pytest.mark.parametrize("law", [Poisson(1e9), Dirac(10 ** 9),
                                     Binomial(10 ** 9, 0.5)])
    def test_other_huge_laws_are_domain_errors(self, law):
        with pytest.raises(DomainError, match=r"N = \d+"):
            sumlaw_truncated_log_pmf(law)

    @pytest.mark.parametrize("law", [Dirac(99), Binomial(99, 0.5),
                                     Poisson(40.0)])
    def test_grid_limit_is_on_n(self, law, monkeypatch):
        n = sumlaw_truncation_point(law)
        monkeypatch.setattr(polya, "_MAX_GRID_ENTRIES", n + 1)
        assert sumlaw_truncated_log_pmf(law).size == n + 1
        monkeypatch.setattr(polya, "_MAX_GRID_ENTRIES", n)
        with pytest.raises(DomainError, match=f"N = {n} "):
            sumlaw_truncated_log_pmf(law)


class TestSampling:
    @pytest.mark.parametrize("spec", [
        SplitSpec(0, (0.2, 0.5, 0.3)),
        SplitSpec(1, (0.8, 1.5, 2.2)),
        SplitSpec(-1, (6, 9, 5)),
    ])
    def test_total_variation_small(self, spec, rng):
        n, draws = 8, 600_000
        sample = polya_sample_many(np.full(draws, n), spec, rng)
        keys = list(simplex(n, 3))
        index = {k: i for i, k in enumerate(keys)}
        counts = np.zeros(len(keys))
        for row in sample:
            counts[index[tuple(row)]] += 1
        emp = counts / draws
        exact = np.array([polya_pmf(np.array(k), spec).to_float()
                          for k in keys])
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 5e-3

    def test_row_sums_match_totals(self, rng):
        totals = rng.integers(0, 20, size=500)
        out = polya_sample_many(totals, SplitSpec(1, (1.0, 2.0, 3.0)), rng)
        assert np.array_equal(out.sum(axis=1), totals)
        assert np.all(out >= 0)

    def test_zero_total(self, rng):
        out = polya_sample_many(np.zeros(4, dtype=int),
                                SplitSpec(0, (0.5, 0.5)), rng)
        assert np.array_equal(out, np.zeros((4, 2), dtype=int))

    @pytest.mark.parametrize("totals, message", [
        ([2.7, 3], "integers"), ([-1, 3], "nonnegative"),
        ([[2, 3], [4, 5]], r"a vector, got an array of shape \(2, 2\)"),
        (3, r"a vector, got an array of shape \(\)")])
    def test_totals_pass_the_int64_count_rule(self, totals, message):
        # 2.7 was drawn as a total of 2, -1 was a DomainError, a matrix a
        # bare ValueError and a single total a bare IndexError
        with pytest.raises(UsageError, match=message):
            polya_sample_many(totals, SplitSpec(0, (0.5, 0.5)),
                              np.random.default_rng(0))

    def test_seed_determinism(self):
        a = polya_sample_many(np.full(50, 10), SplitSpec(1, (1.0, 2.0)),
                              np.random.default_rng(5))
        b = polya_sample_many(np.full(50, 10), SplitSpec(1, (1.0, 2.0)),
                              np.random.default_rng(5))
        assert np.array_equal(a, b)
