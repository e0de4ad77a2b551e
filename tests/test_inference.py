import logging
import math
import os
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import gammaln

import treepolya.fit as fit_module
from treepolya.examples import ten_leaf_example
from treepolya.exceptions import ConvergenceError, DomainError, UsageError
from treepolya.fit import (fit_node_dm, fit_node_multinomial, fit_sum_law,
                           fit_tree, node_data, search_tree, select_node_split)
from treepolya.io import CountMatrix, write_counts_csv
from treepolya.model import TreePolyaModel, marginal_pmf
from treepolya.polya import (Binomial, Dirac, NegativeBinomial, SplitSpec,
                             polya_log_pmf_many, polya_pmf, polya_sample_many,
                             polya_uni_pmf, sumlaw_factorial_moment,
                             sumlaw_log_pmf, sumlaw_log_pmf_many,
                             sumlaw_sample_many)
from treepolya.special import ln_gen_factorial
from treepolya.tree import PartitionTree, incidence_matrix

from search_oracle import exhaustive_grow_node, exhaustive_search


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

    def test_near_poisson_nb_is_the_profile_maximum(self):
        # variance/mean 1.02: the profile Newton iteration stopped on its
        # score test after one iteration, 0.12% low in alpha and below the
        # profile at alpha * (1 + 1e-3)
        totals = sumlaw_sample_many(NegativeBinomial(1e4, 0.01), 2_000,
                                    np.random.default_rng(2))
        fit = fit_sum_law(totals, "nb")
        ybar = totals.mean()

        def profile(alpha):
            law = NegativeBinomial(alpha, ybar / (alpha + ybar))
            return float(sumlaw_log_pmf_many(totals, law).sum())
        alpha = fit.params["alpha"]
        assert fit.log_lik >= max(profile(alpha * (1 - 1e-3)),
                                  profile(alpha * (1 + 1e-3)))

    def test_a_score_that_never_falls_is_a_domain_error(self, monkeypatch):
        monkeypatch.setattr(fit_module, "_nb_profile_score",
                            lambda *args: 1.0)
        with pytest.raises(DomainError, match="too close to Poisson"):
            fit_sum_law(np.array([0, 1, 5, 9]), "nb")

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

    def test_closed_forms_build_no_survival_row(self):
        """Totals near 2**62 pass the count gate, and the closed-form fits
        return at once instead of counting up to the largest total, with
        the Poisson log-likelihood that 50 digits give (it read 0.0 when
        k log(rate) - rate - log k! cancelled)."""
        totals = np.array([2 ** 62, 2 ** 62])
        assert fit_sum_law(totals, "dirac").params["m"] == 2 ** 62
        poisson = fit_sum_law(totals, "poisson")
        assert poisson.params["rate"] == 2.0 ** 62
        with mpmath.workdps(50):
            k = mpmath.mpf(2) ** 62
            exact = 2 * float(k * mpmath.log(k) - k - mpmath.loggamma(k + 1))
        assert poisson.log_lik == pytest.approx(exact, rel=1e-13)

    def test_binomial_recovery(self, rng):
        totals = rng.binomial(20, 0.4, size=20_000)
        fit = fit_sum_law(totals, "binomial")
        assert fit.params["size"] == pytest.approx(20, abs=3)
        assert fit.params["size"] * fit.params["prob"] == pytest.approx(
            8.0, rel=0.02)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(size=st.integers(1, 40), prob=st.floats(0.05, 0.95),
           rows=st.integers(2, 30), seed=st.integers(0, 2 ** 32 - 1))
    def test_binomial_size_is_the_profile_maximum(self, size, prob, rows,
                                                  seed):
        """On small underdispersed samples the bisected size is the
        maximum of a brute-force scan of the binomial log-likelihood over
        every size up to far past it."""
        totals = np.random.default_rng(seed).binomial(size, prob, rows)
        assume(0 < totals.var() < 0.9 * totals.mean())
        fit = fit_sum_law(totals, "binomial")
        ybar = totals.mean()
        sizes = np.arange(totals.max(), 20 * totals.max() + 20)
        scan = [sumlaw_log_pmf_many(totals, Binomial(int(m), ybar / m)).sum()
                for m in sizes]
        best = int(np.argmax(scan))
        assert fit.params["size"] < sizes[-1]
        assert fit.log_lik == pytest.approx(scan[best], abs=1e-9)
        if max(np.delete(scan, best)) < scan[best] - 1e-9:
            assert fit.params["size"] == sizes[best]

    def test_a_large_binomial_size_is_bisected(self, monkeypatch):
        """s^2 = 99.32 just below the mean 99.98 puts the size near
        15 000.  A walk up from the largest total took 0.6 s and stopped
        at 15 045, fooled by rounding in a profile that moves by 1e-10
        there; 15 049 is the maximum in 40-digit arithmetic."""
        totals = np.random.default_rng(44).binomial(20_000, 0.005, 200)
        steps = []
        original = fit_module._binomial_profile_step
        monkeypatch.setattr(
            fit_module, "_binomial_profile_step",
            lambda *args: steps.append(args[0]) or original(*args))
        assert fit_sum_law(totals, "binomial").params["size"] == 15_049
        assert len(steps) <= 2 * math.log2(15_049)

    def test_underdispersed_rejected_for_nb(self, rng):
        totals = rng.binomial(10, 0.5, size=2_000)
        with pytest.raises(DomainError):
            fit_sum_law(totals, "nb")

    @pytest.mark.parametrize("totals", [[3, 5, 9, 1], [0, 2], [0, 0, 10]])
    def test_binomial_needs_underdispersion(self, totals):
        # [3, 5, 9, 1] walked size up to 327 209 for ~10 s and returned
        # the Poisson limit; [0, 2] has variance equal to its mean
        with pytest.raises(DomainError, match="no underdispersion"):
            fit_sum_law(np.array(totals), "binomial")


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

    def test_failed_dm_fit_selects_flagged_multinomial(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceError("no convergence")

        monkeypatch.setattr(fit_module, "fit_node_dm", fail)
        sel = select_node_split(np.array([[2, 1], [0, 3], [4, 4]]))
        assert sel.kind == "multinomial" and sel.divergence_flag

    def test_negative_counts_are_usage_errors(self):
        # bincount raised a bare ValueError in the DM fit
        data = np.array([[2, -1], [0, 3]])
        for fit in (fit_node_dm, fit_node_multinomial):
            with pytest.raises(UsageError):
                fit(data)

    def test_start_at_the_optimum_needs_no_sweeps(self, rng):
        data = polya_sample_many(np.full(500, 30),
                                 SplitSpec(1, (1.0, 2.0)), rng)
        cold = fit_node_dm(data)
        at_optimum = fit_module._DmAggregates.from_matrix(data)
        at_optimum.start = cold.params["theta"]
        warm = fit_node_dm(at_optimum)
        assert warm.iterations == 1
        assert warm.log_lik == pytest.approx(cold.log_lik, abs=1e-9)

    def test_near_multinomial_fit_reaches_the_maximum(self):
        """A two-column multinomial with a 1% DM admixture: the
        likelihood is nearly flat in the weights' scale (maximum at a
        weight sum of ~1700), where a gradient stop ended the fit 0.013
        short.  The fit reaches the independent maximum, and so do fits
        from a moment start moved 100-fold either way and from a start
        100 times the maximiser."""
        rng = np.random.default_rng(1)
        rows = 10_000
        multi = rng.multinomial(40, [0.4, 0.6], size=rows)
        mixed = rng.random(rows) < 0.01
        dm = polya_sample_many(np.full(rows, 40), SplitSpec(1, (4.0, 6.0)),
                               rng)
        data = np.where(mixed[:, None], dm, multi)
        agg = fit_module._DmAggregates.from_matrix(data)
        reference = _tight_dm_max(agg)
        cold = fit_node_dm(data)
        assert not cold.divergence_flag
        assert cold.log_lik == pytest.approx(reference, abs=1e-6)
        fits = []
        for start in (0.01 * agg.start, 100.0 * agg.start,
                      100.0 * cold.params["theta"]):
            moved = fit_module._DmAggregates.from_matrix(data)
            moved.start = start
            fits.append(fit_node_dm(moved))
        for fit in fits:
            assert fit.log_lik == pytest.approx(cold.log_lik, abs=1e-6)

    def test_multinomial_data_diverge_to_the_stand_in(self):
        """Multinomial data whose DM likelihood rises all the way to the
        multinomial limit: the DM fit passes the divergence threshold,
        and node selection and fit_tree report the flagged multinomial."""
        rng = np.random.default_rng(6)
        data = polya_sample_many(np.full(4_000, 40),
                                 SplitSpec(0, (0.3, 0.7)), rng)
        agg = fit_module._DmAggregates.from_matrix(data)
        pi = data.sum(axis=0) / data.sum()
        along = [agg.log_lik(pi * 10.0 ** e) for e in range(2, 13)]
        assert np.all(np.diff(along) > 0)  # the sample is underdispersed
        fit = fit_node_dm(data)
        assert fit.divergence_flag and not fit.converged
        assert fit.params["theta"].sum() > fit_module.DIVERGENCE_THETA
        sel = select_node_split(data)
        assert sel.kind == "multinomial" and sel.divergence_flag
        _, report = fit_tree(PartitionTree.flat(2), data, family="dirac")
        node = report["rows"][1]
        assert node["kind"] == "multinomial" and node["divergence"]

    def test_divergence_stops_past_the_threshold(self):
        """Multinomial data: the fit stops once its weight sum is past
        the divergence threshold while the likelihood still rises along
        the weights' scale, and is flagged.  It ran on to a weight sum of
        2.2e10 in 11 iterations when only the decrement stopped it."""
        rng = np.random.default_rng(6)
        data = polya_sample_many(np.full(4_000, 40),
                                 SplitSpec(0, (0.3, 0.7)), rng)
        fit = fit_node_dm(data)
        assert fit.divergence_flag and fit.iterations < 11
        assert fit_module.DIVERGENCE_THETA < fit.params["theta"].sum() \
            < 100 * fit_module.DIVERGENCE_THETA

    def test_start_past_the_threshold_returns_to_the_maximiser(self):
        """A start 1e7 times a finite maximiser, past the divergence
        threshold, where the likelihood falls along the weights' scale:
        the fit comes back to the maximiser and is not flagged."""
        data = polya_sample_many(np.full(2_000, 30),
                                 SplitSpec(1, (10.0, 20.0)),
                                 np.random.default_rng(1))
        cold = fit_node_dm(data)
        far = fit_module._DmAggregates.from_matrix(data)
        far.start = 1e7 * cold.params["theta"]
        assert far.start.sum() > fit_module.DIVERGENCE_THETA
        fit = fit_node_dm(far)
        assert not fit.divergence_flag and fit.converged
        assert fit.log_lik == pytest.approx(cold.log_lik, abs=1e-6)
        assert fit.params["theta"] == pytest.approx(cold.params["theta"],
                                                    rel=1e-4)

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


def _dense_survival(values):
    """Row j holds S_j(u) = #{i : values_ij > u} for u = 0..max-1, over
    the columns of a count matrix, from one histogram: the dense survival
    rows that count profiles replace, as the reference."""
    rows, cols = values.shape
    width = int(values.max(initial=0)) + 1
    hist = np.bincount((values + np.arange(cols) * width).ravel(),
                       minlength=cols * width).reshape(cols, width)
    return (rows - np.cumsum(hist, axis=1))[:, :-1].astype(float)


def _profile_rows(profiles):
    """Each row of a packed set of count profiles as its dense survival
    row, up to its largest value."""
    heads = np.split(profiles.head, np.cumsum(profiles.h)[:-1])
    ds = np.split(profiles.d, np.cumsum(profiles.tails)[:-1])
    ms = np.split(profiles.m, np.cumsum(profiles.tails)[:-1])
    rows = []
    for h, head, d, m in zip(profiles.h, heads, ds, ms):
        d = d.astype(np.int64)
        tail = np.zeros(int(d.max(initial=0)))
        for dv, mv in zip(d, m):
            tail[:dv] += mv
        rows.append(np.concatenate([head.astype(float), tail]))
    return rows


class TestDmAggregates:
    @settings(max_examples=80, deadline=None)
    @given(case=node_counts())
    def test_log_lik_is_row_wise_dm_log_pmf(self, case):
        data, theta = case
        agg = fit_module._DmAggregates.from_matrix(data)
        rowwise = polya_log_pmf_many(data, SplitSpec(1, tuple(theta))).sum()
        assert agg.log_lik(theta) == pytest.approx(rowwise, rel=1e-10,
                                                   abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(case=node_counts(), fixed=st.floats(1e-3, 10.0))
    def test_derivatives_match_central_differences(self, case, fixed):
        """:func:`fit._evaluate` gives :func:`fit._lockstep_max`'s
        objective, and its sums the gradient b1 - a1 and the Hessian
        a2 * ones - diag(b2) of it, for three problems at once that share
        one node's profiles and hold positive fixed weights; the
        objective against the dense survival rows of the node matrix."""
        data, theta = case
        agg = fit_module._DmAggregates.from_matrix(data)
        k = theta.size
        x = theta * np.array([[1.0], [0.3], [4.0]])
        fixed = fixed * np.array([1.0, 0.1, 20.0])
        cols = fit_module._Profiles.concat(agg.entries * 3)
        rows = fit_module._Profiles.concat([*agg.entries, agg.total] * 3)
        surv = _dense_survival(data)
        tot_surv = _dense_survival(data.sum(axis=1)[:, None])[0]

        def objective(x):
            return np.array([
                sum(s @ np.log(xj + np.arange(s.size))
                    for s, xj in zip(surv, xi))
                - tot_surv @ np.log(fi + xi.sum() + np.arange(tot_surv.size))
                for xi, fi in zip(x, fixed)])

        def gradient(x):
            _, a1, _, b1, _ = fit_module._evaluate(rows, fixed, x)
            return b1 - a1[:, None]

        value, _, a2, _, b2 = fit_module._evaluate(rows, fixed, x)
        # one totals profile that every problem shares gives the same
        # derivative sums, to the bit, and the same f to rounding
        shared = fit_module._evaluate(cols, fixed, x, agg.total)
        for one, each in zip(shared[1:], fit_module._evaluate(rows, fixed,
                                                              x)[1:]):
            assert one.tobytes() == each.tobytes()
        assert shared[0] == pytest.approx(value, rel=1e-15, abs=1e-12)
        assert value == pytest.approx(objective(x), rel=1e-12, abs=1e-9)
        hessian = a2[:, None, None] - b2[:, :, None] * np.eye(k)
        for j in range(k):
            step = np.zeros_like(x)
            step[:, j] = 1e-5 * x[:, j]
            width = 2 * step[:, j]
            num_grad = (objective(x + step) - objective(x - step)) / width
            assert num_grad == pytest.approx(gradient(x)[:, j], rel=1e-5,
                                             abs=1e-4)
            num_col = (gradient(x + step) - gradient(x - step)) \
                / width[:, None]
            assert num_col == pytest.approx(hessian[:, :, j], rel=1e-5,
                                            abs=1e-4)


@st.composite
def deep_columns(draw):
    """Count matrices whose columns reach ~1e4, with sparse large values
    (so that their profiles have tails) among dense small ones."""
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([3.0, 60.0, 800.0, 5_000.0]))
    values = rng.negative_binomial(draw(st.sampled_from([0.3, 1.0, 5.0])),
                                   1.0 / (1.0 + scale / 2.0),
                                   size=(rows, cols))
    return np.minimum(values, 12_000)


class TestProfiles:
    """Count profiles against the dense survival rows they replace, and
    the lockstep kernel's independence of what a problem is stacked
    with."""

    @settings(max_examples=100, deadline=None)
    @given(values=deep_columns(), x=st.floats(1e-6, 1e6))
    def test_kernel_sums_are_the_dense_sums(self, values, x):
        profiles = fit_module._Profiles.of_columns(values)
        got = profiles.kernel_sums(np.full(values.shape[1], x))
        for j, surv in enumerate(_dense_survival(values)):
            shift = x + np.arange(surv.size)
            dense = (surv @ np.log(shift), surv @ (1.0 / shift),
                     surv @ (1.0 / shift ** 2))
            for total, want in zip(got, dense):
                assert total[j] == pytest.approx(want, rel=1e-13, abs=1e-300)
        assert profiles.sums.tolist() == values.sum(axis=0).tolist()
        assert profiles.squares.tolist() == (values ** 2).sum(axis=0).tolist()
        # a profile is O(H_MIN + distinct values), never as long as the
        # largest count when that is far past them
        distinct = [np.unique(c[c > 0]).size for c in values.T]
        assert np.all(profiles.h + profiles.tails
                      <= fit_module.H_MIN + fit_module.TAIL_FIXED
                      + (fit_module.TAIL_COST + 1) * np.array(distinct))

    @settings(max_examples=60, deadline=None)
    @given(values=deep_columns())
    def test_a_columns_profile_is_its_own(self, values):
        """A column's profile is the one it has alone, beside other
        columns and beside a column of 2**40 (which takes a tail)."""
        wide = np.column_stack([values, np.full(values.shape[0], 2 ** 40)])
        together = [fit_module._Profiles.of_columns(m) for m in (values, wide)]
        for j in range(values.shape[1]):
            alone = fit_module._Profiles.of_columns(values[:, [j]])
            for both in together:
                assert _same_profiles(alone, both.take(np.array([j])))

    def test_a_count_of_2_62_is_one_tail_pair(self):
        values = np.array([[0], [3], [2 ** 62]])
        profile = fit_module._Profiles.of_columns(values)
        assert profile.h.tolist() == [fit_module.H_MIN]
        assert profile.d.tolist() == [2.0 ** 62 - fit_module.H_MIN]
        assert profile.head.tolist() == [2.0] * 3 + [1.0] * 61

    @staticmethod
    def _problems(count):
        """``count`` two-child nodes from different data, as lockstep
        problems: their totals' and children's profiles, fixed weights and
        starts."""
        rng = np.random.default_rng(122)
        aggs = []
        for i in range(count):
            scale = [2.0, 30.0, 400.0, 3_000.0][i % 4]
            data = rng.negative_binomial(1.0 + i % 3, 1.0 / (1.0 + scale),
                                         size=(60 + 7 * i, 2))
            aggs.append(fit_module._DmAggregates.from_matrix(data))
        rows = fit_module._Profiles.concat(
            [row for agg in aggs for row in (*agg.entries, agg.total)])
        return rows, np.linspace(0.0, 2.0, count), \
            np.array([agg.start for agg in aggs])

    def test_a_problem_is_the_same_alone_and_stacked(self):
        """Problem 7's (f, a1, a2, b1, b2) are the same to the bit alone,
        stacked with 50 others, and in the set left once others retire;
        and so is its lockstep maximum, whatever stops the others."""
        rows, fixed, x0 = self._problems(51)
        assert rows.tails.any() and not rows.tails.all()

        def some(picked):
            picked = np.array(picked)
            return rows.take((3 * picked[:, None] + np.arange(3)).ravel()), \
                fixed[picked], x0[picked]

        alone = fit_module._evaluate(*some([7]))
        stacked = fit_module._evaluate(rows, fixed, x0)
        kept = fit_module._evaluate(*some([3, 7, 40]))
        for one, many, few in zip(alone, stacked, kept):
            assert one[0].tobytes() == many[7].tobytes() == few[1].tobytes()
        best, x, steps, done, sums = fit_module._lockstep_max(
            rows, fixed, x0)
        assert len(set(steps.tolist())) > 1  # problems retire apart
        one = fit_module._lockstep_max(*some([7]))
        assert done[7] and one[3][0]
        assert best[7].hex() == one[0][0].hex()
        assert x[7].tobytes() == one[1][0].tobytes()
        assert steps[7] == one[2][0]
        for many, single in zip(sums, one[4]):
            assert many[7].tobytes() == single[0].tobytes()


class TestNewtonSolve:
    """The one Sherman-Morrison solve, :func:`fit._newton_step`, and the
    screen's refit gain built on it, against a dense solve of the
    Hessian H = diag(d) + a2 x x^T."""

    @staticmethod
    def _rows():
        """(x, grad, d, a2) for three rows: H negative definite; d with a
        positive entry; d < 0 with a rank-one term that makes H
        indefinite."""
        rng = np.random.default_rng(120)
        x = np.exp(rng.uniform(-1.0, 2.0, size=(3, 4)))
        grad = rng.normal(size=(3, 4))
        d = -np.exp(rng.uniform(0.0, 2.0, size=(3, 4)))
        d[1, 2] = 0.5
        a2 = np.array([0.05, 0.05, 2.0 / float(x[2] @ (x[2] / -d[2]))])
        return x, grad, d, a2

    def test_newton_step_is_the_dense_solve(self):
        x, grad, d, a2 = self._rows()
        step, concave = fit_module._newton_step(x, grad, d, a2)
        for i in range(3):
            hess = np.diag(d[i]) + a2[i] * np.outer(x[i], x[i])
            assert step[i] == pytest.approx(np.linalg.solve(hess, -grad[i]),
                                            rel=1e-9)
            assert concave[i] == np.all(np.linalg.eigvalsh(hess) < 0)
        assert concave.tolist() == [True, False, False]

    def test_a_frozen_coordinate_leaves_the_solve(self):
        """grad 0 and d = -inf take a coordinate out of H: its step is 0
        and the others' is the solve without its row and column."""
        x, grad, d, a2 = (v[:1].copy() for v in self._rows())
        grad[0, 1], d[0, 1] = 0.0, -np.inf
        step, concave = fit_module._newton_step(x, grad, d, a2)
        rest = [0, 2, 3]
        hess = np.diag(d[0, rest]) + a2[0] * np.outer(x[0, rest], x[0, rest])
        assert step[0, 1] == 0.0 and concave[0]
        assert step[0, rest] == pytest.approx(
            np.linalg.solve(hess, -grad[0, rest]), rel=1e-9)

    def test_refit_gain_is_half_the_dense_decrement(self):
        """Half of g^T (-H)^-1 g over the free weight and the kept ones,
        for a concave row, a row with a frozen kept weight, and a row
        whose H is not negative definite (NaN)."""
        rng = np.random.default_rng(121)
        x = np.exp(rng.uniform(-1.0, 1.0, size=(3, 1)))
        a1 = rng.uniform(0.5, 1.0, size=3)
        a2 = np.array([0.01, 0.01, 100.0])
        b1, b2 = rng.uniform(0.5, 1.5, (3, 1)), rng.uniform(3.0, 4.0, (3, 1))
        theta = np.exp(rng.uniform(-1.0, 1.0, size=4))
        kept_b1, kept_b2 = rng.uniform(0.5, 1.5, 4), rng.uniform(3.0, 4.0, 4)
        kept = np.ones((3, 4), dtype=bool)
        kept[1, 2] = False
        gain = fit_module._refit_gain((a1, a2, b1, b2), x, kept_b1, kept_b2,
                                      theta, kept)
        assert np.isnan(gain).tolist() == [False, False, True]
        for i in range(2):
            use = np.concatenate([[True], kept[i]])
            w = np.concatenate([x[i], theta])[use]
            g = w * (np.concatenate([b1[i], kept_b1])[use] - a1[i])
            hess = np.diag(g - w * w * np.concatenate([b2[i], kept_b2])[use]) \
                + a2[i] * np.outer(w, w)
            assert np.all(np.linalg.eigvalsh(hess) < 0)
            assert gain[i] == pytest.approx(
                -g @ np.linalg.solve(hess, g) / 2.0, rel=1e-9)


def _tight_dm_max(agg) -> float:
    """The maximum of a node's DM log-likelihood (``agg.log_lik``) over
    the log weights of its children with counts, the others at the floor
    weight: scipy's Nelder-Mead from the moment start, restarted twice
    from where it ends.  It uses the likelihood's values only, so it
    checks the fit's Newton iteration and its stop from outside."""
    free = agg.free

    def neg_log_lik(log_w):
        theta = np.full(free.size, fit_module.THETA_FLOOR)
        theta[free] = np.exp(log_w)
        return -agg.log_lik(theta)

    log_w = np.log(agg.start[free])
    for _ in range(3):
        res = minimize(neg_log_lik, log_w, method="Nelder-Mead",
                       options={"xatol": 1e-9, "fatol": 1e-11,
                                "maxfev": 20_000, "adaptive": True})
        log_w = res.x
    return -res.fun


@st.composite
def search_nodes(draw):
    """A count matrix with all-zero rows and columns, and a node over it
    as the search builds one: child subsets partitioning all leaves or a
    proper part of them."""
    k = draw(st.integers(2, 6))
    rows = draw(st.integers(1, 12))
    tops = draw(st.lists(st.sampled_from([0, 1, 3, 40]),
                         min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = np.column_stack([rng.integers(0, top + 1, size=rows)
                              for top in tops])
    counts[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = 0
    if draw(st.booleans()):  # a single nonzero cell
        counts[:] = 0
        counts[draw(st.integers(0, rows - 1)),
               draw(st.integers(0, k - 1))] = draw(st.integers(1, 50))
    leaves = draw(st.permutations(range(1, k + 1)))[:draw(st.integers(2, k))]
    groups = draw(st.lists(st.integers(0, len(leaves) - 1),
                           min_size=len(leaves), max_size=len(leaves)))
    order = sorted(tuple(sorted(leaf for leaf, g in zip(leaves, groups)
                                if g == group)) for group in set(groups))
    return counts, order


def _stacked_aggregates(data):
    """Dense survival rows, log_coef and moment start of a node matrix as
    whole-matrix expressions over its rows with positive totals: the
    reference for the assembly from count profiles."""
    totals = data.sum(axis=1)
    data, totals = data[totals > 0], totals[totals > 0]
    surv = _dense_survival(data)
    log_coef = gammaln(totals + 1.0).sum() - gammaln(data + 1.0).sum()
    # pooled proportions, and the precision whose DM expects the cells'
    # summed squares given the totals
    n1, n2, squares = totals.sum(), (totals ** 2).sum(), (data ** 2).sum()
    pi = data.sum(axis=0) / n1
    r = pi @ pi
    excess = squares - n1 - r * (n2 - n1)
    precision = np.clip((n2 - squares) / excess, 0.1, 1e6) \
        if excess > 0 else 1e6
    start = np.maximum(pi, 1e-3) * precision
    start[data.sum(axis=0) == 0] = fit_module.THETA_FLOOR
    return surv, log_coef, start


_PROFILE_FIELDS = ("h", "head", "tails", "d", "m", "log_fact", "sums",
                   "squares")


def _same_profiles(one, other):
    """Two packed sets of count profiles, equal to the bit."""
    return all(np.array_equal(getattr(one, f), getattr(other, f))
               and getattr(one, f).dtype == getattr(other, f).dtype
               for f in _PROFILE_FIELDS)


class TestAggregateConstructors:
    @settings(max_examples=150, deadline=None)
    @given(case=search_nodes())
    def test_cache_statistics_build_the_matrix_aggregates(self, case):
        counts, order = case
        data = (counts @ incidence_matrix(order, counts.shape[1]).T
                ).astype(np.int64)
        from_matrix = fit_module._DmAggregates.from_matrix(data)
        cache = fit_module._FitCache(counts)
        # the flat node first, so that its statistics are reused
        cache._aggregates([(j,) for j in range(1, counts.shape[1] + 1)])
        from_cache = cache._aggregates(order)
        for agg in (from_matrix, from_cache):
            assert _same_profiles(agg.cols, from_matrix.cols)
            assert _same_profiles(agg.total, from_matrix.total)
            assert agg.log_coef.hex() == from_matrix.log_coef.hex()
            assert np.array_equal(agg.free, data.sum(axis=0) > 0)
            assert agg.shape == data.shape
        if data.sum() == 0:
            assert from_matrix.start is None and from_cache.start is None
            return
        assert np.array_equal(from_cache.start, from_matrix.start)
        surv, log_coef, start = _stacked_aggregates(data)
        for dense, row in zip(surv, _profile_rows(from_matrix.cols)):
            assert np.array_equal(np.trim_zeros(dense, "b"), row)
        assert np.array_equal(
            _profile_rows(from_matrix.total)[0],
            _dense_survival(data.sum(axis=1)[:, None])[0])
        # the log-factorial sums are summed per distinct value, not per
        # cell: equal to 1e-13 of the totals' log-factorial sum, of which
        # log_coef is a difference
        scale = gammaln(data.sum(axis=1) + 1.0).sum()
        assert from_matrix.log_coef == pytest.approx(
            log_coef, rel=1e-13, abs=1e-13 * max(scale, 1.0))
        assert np.array_equal(from_matrix.start, start)

    def test_one_pass_over_the_rows_per_leaf_subset(self, monkeypatch):
        """The cache keeps one statistic per leaf subset, so a node over
        subsets it holds costs no pass over the rows: after the flat node
        and the node {1}, {2}, the node {1,2}, {3}, {4} costs none."""
        counts = np.random.default_rng(118).integers(0, 6, size=(50, 4))
        cache = fit_module._FitCache(counts)
        passes = []
        subsums = cache._subsums
        monkeypatch.setattr(cache, "_subsums", lambda leaves: passes.append(
            tuple(leaves)) or subsums(leaves))
        cache.fit([(1,), (2,), (3,), (4,)])
        assert sorted(passes) == [(1,), (1, 2, 3, 4), (2,), (3,), (4,)]
        passes.clear()
        cache.fit([(1,), (2,)])
        assert passes == [(1, 2)]
        passes.clear()
        cache.fit([(1, 2), (3,), (4,)])
        assert passes == []


class TestNodeData:
    def test_child_subsums(self):
        tree = PartitionTree.from_nested([[1, 2], 3])
        counts = np.array([[1, 2, 3], [4, 0, 1]])
        got = node_data(tree, counts, tree.ROOT)
        assert got.tolist() == [[3, 3], [4, 1]]

    @pytest.mark.parametrize("counts, message", [
        ([[1, 2, 3], [4, 0, 1]], None),
        (np.array([[1, 2, 3]]).astype(str), "counts must be numbers"),
        ([[1.5, 2, 3]], "counts must be integers"),
        (np.array([[1, 2]]), "data has 2 columns, tree has 3 leaves")])
    def test_counts_pass_the_fit_layer_check(self, counts, message):
        # a list was a bare AttributeError, strings a bare UFuncTypeError,
        # 1.5 came back as a float subsum and a wrong width was a bare
        # ValueError
        tree = PartitionTree.from_nested([[1, 2], 3])
        if message is None:
            got = node_data(tree, counts, tree.ROOT)
            assert got.dtype == np.int64 and got.tolist() == [[3, 3], [4, 1]]
            return
        with pytest.raises(UsageError, match=message):
            node_data(tree, counts, tree.ROOT)

    def test_subsums_are_exact_past_float_precision(self):
        # a float matmul read 2**61 for the subsum {1,2}
        tree = PartitionTree.from_nested([[1, 2], 3])
        got = node_data(tree, [[2 ** 60 + 1, 2 ** 60 + 1, 3]], tree.ROOT)
        assert got.tolist() == [[2 ** 61 + 2, 3]]

    def test_a_subsum_past_int64_names_its_row(self):
        # the float matmul wrapped to -2**63 with a RuntimeWarning
        tree = PartitionTree.from_nested([[1, 2], 3])
        with pytest.raises(DomainError, match=f"row 2 sum to {2 ** 63}"):
            node_data(tree, [[1, 2, 3], [2 ** 62, 2 ** 62, 1]], tree.ROOT)


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

    def test_one_dimensional_counts_rejected(self):
        # raised a bare IndexError
        with pytest.raises(UsageError, match="matrix"):
            fit_tree(PartitionTree.flat(3), np.array([1, 2, 3]))
        for entry in (search_tree, fit_node_dm, fit_node_multinomial):
            with pytest.raises(UsageError, match="matrix"):
                entry(np.array([1, 2, 3]))


def _ten_leaf_and_cascade():
    """(tree, counts) on the ten-leaf example's tree (7 internal nodes)
    and on a 40-leaf cascade (39), whose splits alternate DM and
    multinomial."""
    ten = ten_leaf_example()
    tree = PartitionTree.cascade(list(range(1, 41)))
    cascade = TreePolyaModel(tree, {nid: SplitSpec(nid % 2, (2.0, 5.0))
                                    for nid in tree.internal_ids},
                             NegativeBinomial(3.0, 0.95))
    return [(model.tree, model.sample_many(300, np.random.default_rng(119)))
            for model in (ten, cascade)]


class TestFitTreeNodes:
    def test_counts_are_gated_once_per_fit(self, monkeypatch):
        # node_data and the node fit each gated every node's matrix again:
        # 16 calls for the ten-leaf tree and 80 for the cascade
        calls = []
        gate = fit_module.count_int64
        monkeypatch.setattr(fit_module, "count_int64",
                            lambda y: calls.append(1) or gate(y))
        per_tree = []
        for tree, counts in _ten_leaf_and_cascade():
            calls.clear()
            fit_tree(tree, counts)
            per_tree.append(len(calls))
        assert per_tree == [2, 2]

    def test_node_rows_are_the_node_matrix_fits(self):
        """fit_tree builds its nodes from the leaf-subset store; each row
        is the fit of the node's child-subsum matrix, to the bit."""
        def hexed(row):
            return {k: v.hex() if isinstance(v, float) else v
                    for k, v in row.items()}
        for tree, counts in _ten_leaf_and_cascade():
            _, report = fit_tree(tree, counts)
            assert len(report["rows"]) == len(tree.internal_ids) + 1
            for nid, row in zip(tree.internal_ids, report["rows"][1:]):
                fit = select_node_split(node_data(tree, counts, nid))
                assert hexed(row) == hexed({
                    "node": "{" + ",".join(map(str, tree.subset(nid))) + "}",
                    "kind": fit.kind, "n_params": fit.n_params,
                    "log_lik": fit.log_lik, "aic": fit.aic,
                    "divergence": fit.divergence_flag,
                    "converged": fit.converged,
                    "iterations": fit.iterations, "empty": fit.empty})


class TestRowSumsPastInt64:
    """Row sums that pass int64 wrapped to negative totals, which the
    count gate then rejected as "counts must be nonnegative"."""

    ROWS = np.array([[1, 2, 3], [2 ** 62, 2 ** 62, 1]])

    @pytest.mark.parametrize("entry", [
        lambda c: fit_tree(PartitionTree.flat(3), c),
        lambda c: fit_tree(PartitionTree.from_nested([[1, 2], 3]), c),
        search_tree, fit_node_dm, fit_node_multinomial, select_node_split],
        ids=["fit_tree", "fit_tree_nested", "search_tree", "fit_node_dm",
             "fit_node_multinomial", "select_node_split"])
    def test_are_a_domain_error_naming_the_row(self, entry):
        with pytest.raises(DomainError, match="row 2 sum to "
                           f"{2 ** 63 + 1}, past the int64 range"):
            entry(self.ROWS)

    def test_sums_up_to_int64_max_are_fitted(self):
        rows = np.array([[1, 2, 3], [2 ** 62, 2 ** 62 - 2, 1]])
        _, report = fit_tree(PartitionTree.flat(3), rows, family="poisson")
        assert report["rows"][0]["kind"] == "poisson"


# each entry point of the fit layer, called on a count matrix (an array or
# a list of rows)
COUNT_ENTRY_POINTS = {
    "fit_tree": lambda x: fit_tree(PartitionTree.flat(np.shape(x)[1]), x),
    "search_tree": search_tree,
    "fit_sum_law": lambda x: fit_sum_law(
        x[:, 0] if isinstance(x, np.ndarray) else [row[0] for row in x],
        "poisson"),
    "fit_node_dm": fit_node_dm,
    "fit_node_multinomial": fit_node_multinomial,
    "select_node_split": select_node_split,
}


def _first_column(x):
    return x[:, 0] if isinstance(x, np.ndarray) else [row[0] for row in x]


_FLAT = PartitionTree.flat(3)
_SPLIT = SplitSpec(1, (1.0, 2.0, 3.0))
_LAW = NegativeBinomial(2.0, 0.5)
_MODEL = TreePolyaModel(_FLAT, {_FLAT.ROOT: _SPLIT}, _LAW)

# every public entry point that takes counts, on the same count matrix:
# the whole of it, its first row, its first column or its first cell,
# whichever the entry point takes; the fit layer's entry points first
NON_NUMBER_ENTRY_POINTS = {
    **COUNT_ENTRY_POINTS,
    "node_data": lambda x: node_data(_FLAT, x, _FLAT.ROOT),
    "joint_log_pmf_many": _MODEL.joint_log_pmf_many,
    "joint_log_pmf": lambda x: _MODEL.joint_log_pmf(x[0]),
    "factorial_moment": lambda x: _MODEL.factorial_moment(x[0]),
    "node_factorial_moment": lambda x: _MODEL.node_factorial_moment(
        1, x[0][0]),
    "marginal_pmf": lambda x: marginal_pmf(_MODEL.leaf_marginal_chain(1),
                                           x[0][0]),
    "polya_pmf": lambda x: polya_pmf(x[0], _SPLIT),
    "polya_log_pmf_many": lambda x: polya_log_pmf_many(x, _SPLIT),
    "polya_uni_pmf": lambda x: polya_uni_pmf(x[0][0], 9, 1.0, 2.0, 1),
    "polya_sample_many": lambda x: polya_sample_many(
        _first_column(x), _SPLIT, np.random.default_rng(0)),
    "sumlaw_log_pmf": lambda x: sumlaw_log_pmf(x[0][0], _LAW),
    "sumlaw_log_pmf_many": lambda x: sumlaw_log_pmf_many(_first_column(x),
                                                         _LAW),
    "sumlaw_factorial_moment": lambda x: sumlaw_factorial_moment(x[0][0],
                                                                 _LAW),
    "ln_gen_factorial": lambda x: ln_gen_factorial(2.0, x[0][0], 1),
    "CountMatrix": lambda x: CountMatrix(("a", "b", "c"), x),
    "write_counts_csv": lambda x: write_counts_csv(os.devnull, x,
                                                   ["a", "b", "c"]),
}


class TestCountChecks:
    @staticmethod
    def _counts():
        return np.random.default_rng(112).integers(
            0, 6, size=(40, 3)).astype(float)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("bad, message", [
        (math.nan, "finite numbers"), (math.inf, "finite numbers"),
        (0.7, "integers"), (-1.0, "nonnegative"),
        (1e30, "int64 range"), (2.0 ** 63, "int64 range")])
    def test_bad_count_is_a_usage_error(self, entry, bad, message):
        counts = self._counts()
        counts[0, 0] = bad
        with pytest.raises(UsageError, match=message):
            COUNT_ENTRY_POINTS[entry](counts)

    @staticmethod
    def _with_first_cell(value):
        rows = TestCountChecks._counts().astype(int).tolist()
        rows[0][0] = value
        return rows

    @pytest.mark.parametrize("entry", NON_NUMBER_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [
        "strings", "string_among_ints", "bytes", "boolean_among_ints",
        "booleans", "complex_among_ints"])
    def test_non_numbers_are_a_usage_error(self, entry, bad):
        # numpy read each of these as counts, and they were fitted (a
        # complex count by its real part, with a ComplexWarning); past
        # the fit layer they were evaluated, drawn from or written, or
        # raised a bare ValueError or TypeError
        counts = self._counts().astype(int)
        data = {"strings": lambda: counts.astype(str),
                "string_among_ints": lambda: self._with_first_cell("2"),
                "bytes": lambda: counts.astype(bytes),
                "boolean_among_ints": lambda: self._with_first_cell(True),
                "booleans": lambda: counts > 2,
                "complex_among_ints": lambda: self._with_first_cell(
                    complex(2, 1))}[bad]()
        with pytest.raises(UsageError, match="counts must be numbers"):
            NON_NUMBER_ENTRY_POINTS[entry](data)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_int_past_the_float_range_is_a_usage_error(self, entry):
        # numpy's float cast of it was a bare OverflowError
        with pytest.raises(UsageError, match="finite numbers"):
            COUNT_ENTRY_POINTS[entry](self._with_first_cell(10 ** 400))

    @pytest.mark.parametrize("family", ["dirac", "poisson", "binomial", "nb"])
    @pytest.mark.parametrize("totals", [[[3, 5], [9, 1]], 4])
    def test_totals_must_be_a_vector(self, family, totals):
        # a matrix raised a bare ValueError under nb, and its cells were
        # fitted as totals under poisson and binomial
        with pytest.raises(UsageError, match="vector"):
            fit_sum_law(np.array(totals), family)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_integral_floats_fit_as_integers(self, entry):
        counts = self._counts()
        as_float = COUNT_ENTRY_POINTS[entry](counts)
        as_int = COUNT_ENTRY_POINTS[entry](counts.astype(np.int64))
        # and a list of Python ints fits as their array
        as_list = COUNT_ENTRY_POINTS[entry](counts.astype(int).tolist())
        if isinstance(as_float, tuple):  # (model, report[, trace])
            as_float, as_int, as_list = as_float[1], as_int[1], as_list[1]
            assert as_float["total_aic"] == as_int["total_aic"] \
                == as_list["total_aic"]
        else:
            assert as_float.aic == as_int.aic == as_list.aic


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
        _, _, trace = search_tree(counts)
        assert all(t["delta_aic"] <= -fit_module.AIC_EPSILON for t in trace)

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


    def test_unknown_family_is_rejected_before_searching(self, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(fit_module, "_search_node", search)
        counts = np.ones((5, 4), dtype=np.int64)
        for family in ("negbin", ["nb"]):
            with pytest.raises(UsageError, match="unknown sum-law family"):
                search_tree(counts, family=family)
        # totals that the family cannot fit fail before the search too
        counts = np.random.default_rng(1).multinomial(20, [0.1] * 10, 300)
        with pytest.raises(DomainError, match="no overdispersion"):
            search_tree(counts, family="nb")

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
        counts = model._sample_conditional(1_500, np.random.default_rng(113))
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
        """Every cached AIC is exactly the node's fit from its count
        matrix, and the independent maximum's: a DM entry within 1e-6 of
        2k minus twice that maximum, a multinomial stand-in where the DM
        likelihood does not rise above the multinomial's."""
        counts = _three_node_model().sample_many(
            3_000, np.random.default_rng(108))
        cache = fit_module._FitCache(counts)
        fit_module._search_node(list(range(1, 7)), cache, [])
        dm_entries = 0
        for key, (aic, weights) in cache.cache.items():
            data = counts @ incidence_matrix(sorted(key), 6).T
            try:
                cold = fit_node_dm(data)
                if cold.divergence_flag:
                    cold = fit_node_multinomial(data)
            except (ConvergenceError, UsageError):
                cold = fit_node_multinomial(data)
            assert aic == cold.aic, sorted(key)
            assert (weights is None) == (cold.kind == "multinomial")
            reference = _tight_dm_max(fit_module._DmAggregates.from_matrix(
                data.astype(np.int64)))
            if weights is None:
                assert reference <= cold.log_lik + 1e-6, sorted(key)
            else:
                assert aic == pytest.approx(2 * len(key) - 2 * reference,
                                            abs=1e-6), sorted(key)
            dm_entries += weights is not None
        assert dm_entries > 0

    def test_budget_stops_the_search_early(self, monkeypatch):
        counts = _three_node_model().sample_many(
            2_000, np.random.default_rng(109))
        calls = []
        original = fit_module.fit_node_dm

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fit_module, "fit_node_dm", counted)
        # count the search's own fits, not those of the final node pass
        monkeypatch.setattr(fit_module, "_fit_nodes", lambda *a, **k: (a, k))
        _, _, trace = search_tree(counts)
        unbounded = len(calls)
        assert len(trace) >= 2
        calls.clear()
        monkeypatch.setattr(fit_module, "MAX_MOVES", 1)
        with pytest.raises(ConvergenceError):
            search_tree(counts)
        assert len(calls) < unbounded


def _search_trace(counts):
    """The search's moves as (move, parent, node, delta_aic.hex()), and
    its fit cache."""
    cache = fit_module._FitCache(counts)
    trace = []
    fit_module._search_node(list(range(1, counts.shape[1] + 1)), cache, trace)
    return [(t["move"], t["parent"], t["node"], t["delta_aic"].hex())
            for t in trace], cache


# 61 rows that the screened search and the exhaustive loop search
# differently: drawn by the conditional route of the model with tree
# [1, 2, [3, 4, 5, 6]], root DM theta = (5.4759772333532695,
# 29.436758516396257, 0.8665879474776162), DM theta = 6.126515708593197
# on each child of {3,4,5,6} and an NB(1.9131882440747598,
# 0.8497013715451494) total, from default_rng(3307402494)
_SCREEN_MISS_COUNTS = np.array([
    [2, 5, 0, 0, 0, 0], [8, 24, 0, 0, 0, 0], [0, 18, 0, 0, 0, 0],
    [1, 9, 0, 0, 0, 0], [1, 3, 0, 0, 0, 0], [2, 3, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0], [1, 9, 0, 0, 0, 0], [1, 4, 0, 0, 0, 0],
    [2, 5, 0, 0, 0, 0], [1, 17, 0, 0, 0, 0], [4, 27, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0], [3, 7, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0],
    [0, 16, 0, 0, 0, 1], [0, 8, 0, 0, 0, 0], [4, 13, 0, 0, 0, 0],
    [1, 5, 0, 0, 0, 0], [7, 12, 0, 0, 1, 0], [0, 15, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0], [0, 8, 0, 0, 0, 0], [2, 9, 0, 1, 0, 0],
    [6, 12, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [4, 10, 0, 0, 0, 0],
    [0, 9, 1, 0, 0, 1], [2, 11, 0, 0, 0, 0], [0, 15, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [2, 14, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0], [1, 9, 0, 0, 1, 0], [0, 2, 0, 0, 0, 0],
    [2, 13, 0, 0, 0, 0], [0, 5, 0, 0, 0, 0], [0, 6, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0], [1, 2, 0, 0, 0, 0], [8, 23, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0], [1, 5, 0, 0, 0, 0], [0, 6, 0, 0, 0, 0],
    [1, 14, 0, 0, 0, 0], [3, 3, 0, 1, 0, 0], [0, 5, 0, 0, 0, 0],
    [2, 5, 0, 1, 0, 0], [3, 3, 0, 0, 0, 0], [2, 13, 0, 0, 0, 0],
    [1, 13, 0, 0, 0, 0], [4, 3, 0, 0, 0, 0], [0, 7, 0, 0, 0, 0],
    [1, 3, 0, 0, 0, 0], [1, 2, 0, 0, 0, 0], [1, 16, 0, 0, 0, 0],
    [2, 4, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0],
    [3, 3, 0, 0, 0, 0]])


class TestScreen:
    """The search's move screen: its scores against fully fitted moves,
    its lockstep maxima against the DM fit, the fits' independence of
    the round that makes them, and the screened search against the
    exhaustive oracle."""

    @staticmethod
    def _true_deltas(cache, moves, outer, grown, inner):
        """Each move's ΔAIC as the exhaustive loop fits it."""
        base = cache.fit(outer)[0]
        if grown:
            base += cache.fit(inner)[0]
        deltas = []
        for move in moves:
            moved = [outer[pos] for pos in move]
            parts = moved + grown
            merged = tuple(sorted(sum(parts, ())))
            rest = [c for c in outer if c not in parts] + [merged]
            deltas.append(cache.fit(rest)[0] + cache.fit(inner + moved)[0]
                          - base)
        return np.array(deltas)

    def test_scores_track_the_fitted_deltas(self):
        counts = _three_node_model().sample_many(
            1_000, np.random.default_rng(110))
        cache = fit_module._FitCache(counts)
        outer = [(j,) for j in range(1, 7)]
        moves = list(combinations(range(6), 2))
        scores = fit_module._screen_scores(cache, moves, outer,
                                           cache.fit(outer)[1], [], [], None)
        true = self._true_deltas(cache, moves, outer, [], [])
        assert np.abs(scores - true).max() < 0.5
        assert np.argmin(scores) == np.argmin(true)
        # a transfer round into the created node {1, 2}
        outer = [(3,), (4,), (5,), (6,), (1, 2)]
        inner = [(1,), (2,)]
        moves = [(pos,) for pos in range(4)]
        scores = fit_module._screen_scores(
            cache, moves, outer, cache.fit(outer)[1], [(1, 2)], inner,
            cache.fit(inner)[1])
        true = self._true_deltas(cache, moves, outer, [(1, 2)], inner)
        assert np.abs(scores - true).max() < 0.5

    def test_moves_of_a_multinomial_base_are_not_scored(self):
        counts = _three_node_model().sample_many(
            300, np.random.default_rng(116))
        cache = fit_module._FitCache(counts)
        outer = [(j,) for j in range(1, 7)]
        cache.fit(outer)
        scores = fit_module._screen_scores(
            cache, [(0, 1), (2, 3)], outer, None, [], [], None)
        assert np.isnan(scores).all()

    def test_lockstep_maxima_are_the_dm_fits(self):
        """The lockstep maxima with every weight free, for several nodes
        at once, are each node's independent maximum and, to the bit, its
        DM fit."""
        rng = np.random.default_rng(117)
        nodes = [rng.negative_binomial(2.0, 0.3, size=(400, 3)),
                 rng.negative_binomial(5.0, 0.5, size=(400, 3))]
        aggs = [fit_module._DmAggregates.from_matrix(d) for d in nodes]
        rows = fit_module._Profiles.concat(
            [row for agg in aggs for row in (*agg.entries, agg.total)])
        best, x, steps, done, _ = fit_module._lockstep_max(
            rows, 0.0, np.array([agg.start for agg in aggs]))
        assert done.all() and np.all(steps > 1)
        for i, (data, agg) in enumerate(zip(nodes, aggs)):
            assert best[i] + agg.log_coef == pytest.approx(
                _tight_dm_max(agg), abs=1e-6)
            fit = fit_node_dm(data)
            assert (best[i] + agg.log_coef).hex() == fit.log_lik.hex()
            assert np.array_equal(x[i], fit.params["theta"])

    def test_every_cached_fit_is_its_node_alone(self):
        """Three planted groups of five leaves.  The screened search
        makes the exhaustive loop's moves, and each node in its cache is
        bit for bit the node's fit in a fresh cache, whichever round of
        the search fitted it."""
        groups = [list(range(k, k + 5)) for k in (1, 6, 11)]
        tree = PartitionTree.from_nested(groups)
        splits = {tree.ROOT: SplitSpec(1, (4 / 3,) * 3)}
        splits.update({tree.node_by_subset(tuple(g)): SplitSpec(1, (4.0,) * 5)
                       for g in groups})
        counts = TreePolyaModel(tree, splits, NegativeBinomial(1.5, 0.995)
                                ).sample_many(200, np.random.default_rng(1))
        trace, cache = _search_trace(counts)
        oracle_trace, _ = exhaustive_search(counts)
        assert trace == oracle_trace
        for key, (aic, weights) in cache.cache.items():
            fresh = fit_module._FitCache(counts)
            fresh.fit(key)
            fresh_aic, fresh_weights = fresh.cache[key]
            assert aic.hex() == fresh_aic.hex(), sorted(key)
            assert (weights is None) == (fresh_weights is None)
            if weights is not None:
                assert np.array_equal(weights, fresh_weights), sorted(key)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_screened_search_ends_at_the_oracle(self, data):
        """On small planted-group data the screened search makes the
        exhaustive loop's moves, so it ends at its tree and total AIC."""
        leaves = data.draw(st.integers(4, 8))
        cuts = sorted(data.draw(st.sets(st.integers(1, leaves - 1),
                                        min_size=1, max_size=3)))
        bounds = [0, *cuts, leaves]
        groups = [list(range(a + 1, b + 1))
                  for a, b in zip(bounds, bounds[1:])]
        nested = [g if len(g) > 1 else g[0] for g in groups]
        tree = PartitionTree.from_nested(nested)
        precision = st.floats(0.5, 30.0)
        splits = {tree.ROOT: SplitSpec(1, tuple(data.draw(precision)
                                                for _ in nested))}
        for g in groups:
            if len(g) > 1:
                share = data.draw(precision) / len(g)
                splits[tree.node_by_subset(tuple(g))] = SplitSpec(
                    1, (share,) * len(g))
        law = NegativeBinomial(data.draw(st.floats(1.0, 4.0)),
                               data.draw(st.floats(0.8, 0.95)))
        counts = TreePolyaModel(tree, splits, law)._sample_conditional(
            data.draw(st.integers(60, 250)),
            np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
        model, report, trace = search_tree(counts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fit_module, "_grow_node", exhaustive_grow_node)
            oracle_model, oracle_report, oracle_trace = search_tree(counts)
        assert [t["node"] for t in trace] == \
            [t["node"] for t in oracle_trace]
        assert {model.tree.subset(n) for n in model.tree.internal_ids} == \
            {oracle_model.tree.subset(n)
             for n in oracle_model.tree.internal_ids}
        assert report["total_aic"] == oracle_report["total_aic"]

    @pytest.mark.xfail(strict=True, reason="the move screen can skip the "
                       "exhaustive loop's best move (ROADMAP item 2)")
    def test_screen_can_skip_the_best_move(self):
        """The screened search creates {3,6} (ΔAIC -2.468, total AIC
        647.084); the exhaustive loop creates {1,2} (-2.934, 648.617).
        About one in 400-1 000 draws of the parameter space of
        test_screened_search_ends_at_the_oracle is such a case."""
        _, report, trace = search_tree(_SCREEN_MISS_COUNTS)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fit_module, "_grow_node", exhaustive_grow_node)
            _, oracle_report, oracle_trace = search_tree(_SCREEN_MISS_COUNTS)
        assert [t["node"] for t in trace] == \
            [t["node"] for t in oracle_trace]
        assert report["total_aic"] == oracle_report["total_aic"]

    def test_each_round_logs_one_debug_record(self, caplog):
        counts = _three_node_model().sample_many(
            1_000, np.random.default_rng(110))
        with caplog.at_level(logging.DEBUG, logger="treepolya"):
            _, _, trace = search_tree(counts)
        rounds = [r for r in caplog.records if r.name == "treepolya.fit"]
        assert all(r.levelno == logging.DEBUG for r in rounds)
        first = rounds[0].getMessage()
        assert first.startswith("search round at {1,2,3,4,5,6}, create: "
                                "15 moves scored, ")
        assert "0 unscreenable" in first
        # every accepted move is the best of its round
        bests = [r.getMessage().rsplit("best ΔAIC ", 1)[1] for r in rounds]
        accepted = iter(repr(t["delta_aic"]) for t in trace)
        move = next(accepted)
        for best in bests:
            if best == move:
                move = next(accepted, None)
        assert move is None
        assert len(rounds) > len(trace)

    def test_rounds_are_not_logged_below_debug(self, monkeypatch, caplog):
        def fail(*args, **kwargs):
            raise AssertionError("a round was logged")

        monkeypatch.setattr(fit_module._log, "debug", fail)
        counts = _three_node_model().sample_many(
            300, np.random.default_rng(110))
        with caplog.at_level(logging.INFO, logger="treepolya"):
            search_tree(counts)


class TestSearchIsPinned:
    """Seeded searches whose every move and ΔAIC is pinned to the bit, so
    that a rewrite of the candidate loop keeps the same candidates, fits
    and order.  Their counts come from the conditional route, whose
    stream the NB models' rate route left as it was."""

    def test_three_node_model(self):
        counts = _three_node_model()._sample_conditional(
            1_000, np.random.default_rng(110))
        trace, _ = _search_trace(counts)
        root = "{1,2,3,4,5,6}"
        assert trace == [
            ("create", root, [1, 2], "-0x1.fcd4388c67800p+3"),
            ("create", root, [5, 6], "-0x1.0f9bc4061b000p+1"),
            ("transfer", root, [4, 5, 6], "-0x1.177e60c35e000p+1")]
        assert trace == exhaustive_search(counts)[0]

    def test_candidates_of_a_multinomial_base_start_cold(self, monkeypatch):
        """The flat base has an interior DM maximum (leaves 1-3 are
        overdispersed among themselves), so its DM fit is made to
        diverge: it falls back to the multinomial and the first round's
        moves are not screened.  The pair {4}, {5}, a multinomial split in
        the model, passes the divergence threshold by itself, and its
        multinomial stand-in makes the first move."""
        tree = PartitionTree.from_nested([[1, 2, 3], 4, 5])
        splits = {tree.ROOT: SplitSpec(0, (0.4, 0.3, 0.3)),
                  tree.node_by_subset((1, 2, 3)): SplitSpec(1, (20.0,) * 3)}
        model = TreePolyaModel(tree, splits, NegativeBinomial(4.0, 0.9))
        counts = model._sample_conditional(600, np.random.default_rng(111))
        original = fit_module.fit_node_dm

        def diverge_flat(data, *args, **kwargs):
            fit = original(data, *args, **kwargs)
            fit.divergence_flag |= np.shape(data)[1] == 5
            return fit

        monkeypatch.setattr(fit_module, "fit_node_dm", diverge_flat)
        trace, cache = _search_trace(counts)
        root = "{1,2,3,4,5}"
        assert trace == [
            ("create", root, [4, 5], "-0x1.cba4bb8e9d400p+4"),
            ("create", root, [1, 3], "-0x1.744e95f966000p+1"),
            ("transfer", root, [1, 2, 3], "-0x1.860866d6a0000p+0")]
        assert [sorted(key) for key, (_, weights) in cache.cache.items()
                if weights is None] == [[(1,), (2,), (3,), (4,), (5,)],
                                        [(4,), (5,)]]
        assert trace == exhaustive_search(counts)[0]

    @staticmethod
    def _zero_rows_and_column():
        """Every sixth row all zero, and leaf 4 an all-zero column."""
        counts = _three_node_model()._sample_conditional(
            800, np.random.default_rng(115))
        counts[::6] = 0
        return np.insert(counts, 3, 0, axis=1)

    def test_zero_total_rows_and_an_empty_column(self):
        counts = self._zero_rows_and_column()
        trace, cache = _search_trace(counts)
        root = "{1,2,3,4,5,6,7}"
        assert trace == [
            ("create", root, [1, 2], "-0x1.7c9029ab09c00p+4"),
            ("create", root, [6, 7], "-0x1.3898603258000p+1"),
            ("transfer", root, [5, 6, 7], "-0x1.86b14379c0000p-2"),
            ("create", "{5,6,7}", [5, 6], "-0x1.23f7f09c06000p-1")]
        assert all(weights is not None
                   for _, weights in cache.cache.values())
        assert trace == exhaustive_search(counts)[0]

    def test_number_of_dm_fits_is_pinned(self, monkeypatch):
        """One fit_node_dm call per cache miss, through the module global
        that tracing patches; the screen fits about half the nodes that
        the exhaustive loop does."""
        calls = []
        original = fit_module.fit_node_dm

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fit_module, "fit_node_dm", counted)
        _, cache = _search_trace(self._zero_rows_and_column())
        assert len(calls) == len(cache.cache) == 35
        calls.clear()
        _, cache = exhaustive_search(self._zero_rows_and_column())
        assert len(calls) == len(cache.cache) == 77

    def test_two_create_rounds_at_the_root(self):
        tree = PartitionTree.from_nested([[[1, 2], 3, 4], [[5, 6], 7, 8], 9])
        weights = {(1, 2, 3, 4): (4.0, 4.0, 4.0), (1, 2): (0.5, 0.5),
                   (5, 6, 7, 8): (4.0, 4.0, 4.0), (5, 6): (0.5, 0.5)}
        splits = {tree.node_by_subset(k): SplitSpec(1, v)
                  for k, v in weights.items()}
        splits[tree.ROOT] = SplitSpec(1, (3.0, 3.0, 1.0))
        model = TreePolyaModel(tree, splits, NegativeBinomial(3.0, 0.8))
        counts = model._sample_conditional(800, np.random.default_rng(114))
        trace, _ = _search_trace(counts)
        root = "{1,2,3,4,5,6,7,8,9}"
        assert trace == [
            ("create", root, [7, 8], "-0x1.7420e97947800p+4"),
            ("transfer", root, [6, 7, 8], "-0x1.50e32d8b05800p+3"),
            ("create", root, [2, 4], "-0x1.0863402a23200p+5"),
            ("transfer", root, [2, 3, 4], "-0x1.3cf119d72db00p+5"),
            ("create", root, [1, 5], "-0x1.569489fb28000p+1"),
            ("create", "{6,7,8}", [6, 7], "-0x1.a4986bdd84000p-1"),
            ("create", "{2,3,4}", [2, 3], "-0x1.b68b52e31e000p-2")]
        assert trace == exhaustive_search(counts)[0]
