import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepolya.exceptions import DomainError, UsageError
from treepolya.special import (H_MIN, LogValue, ln_gen_factorial,
                               ln_gen_factorial_many, pfq_convergent,
                               pfq_terminating, shifted_sums)


class TestLogValue:
    def test_round_trip(self):
        for x in [0.0, 1.0, -2.5, 1e-200, -1e200]:
            assert LogValue.from_float(x).to_float() == pytest.approx(
                x, rel=1e-12)

    def test_product_and_quotient(self):
        a = LogValue.from_float(3.0)
        b = LogValue.from_float(-0.25)
        assert (a * b).to_float() == pytest.approx(-0.75)
        assert (a / b).to_float() == pytest.approx(-12.0)

    def test_zero_absorbs(self):
        assert (LogValue.ZERO * LogValue.from_float(5.0)).sign == 0
        assert LogValue.ZERO.to_float() == 0.0


class TestGeneralizedFactorial:
    @given(theta=st.floats(0.1, 50), n=st.integers(0, 30),
           c=st.sampled_from([0, 1]))
    def test_recurrence(self, theta, n, c):
        # (theta)_{(n+1,c)} = (theta)_{(n,c)} * (theta + n*c)
        lhs = ln_gen_factorial(theta, n + 1, c)
        rhs = ln_gen_factorial(theta, n, c) * LogValue.from_float(
            theta + n * c)
        assert lhs.to_float() == pytest.approx(rhs.to_float(), rel=1e-10)

    def test_empty_product_is_one(self):
        for c in (-1, 0, 1):
            assert ln_gen_factorial(2.0, 0, c).to_float() == 1.0

    def test_rising_matches_gamma_ratio(self):
        val = ln_gen_factorial(2.5, 4, 1)
        expect = math.gamma(6.5) / math.gamma(2.5)
        assert val.to_float() == pytest.approx(expect, rel=1e-12)

    def test_power_case(self):
        assert ln_gen_factorial(3.0, 4, 0).to_float() == pytest.approx(81.0)

    def test_falling_direct(self):
        # 5*4*3 = 60
        assert ln_gen_factorial(5, 3, -1).to_float() == pytest.approx(60.0)

    def test_falling_vanishes_past_integer(self):
        assert ln_gen_factorial(4, 5, -1).sign == 0

    def test_falling_requires_integer(self):
        with pytest.raises(DomainError):
            ln_gen_factorial(4.5, 2, -1)


class TestTerminatingSeries:
    def test_vandermonde_identity(self):
        # 2F1(-n, b; c; 1) = (c-b)_n / (c)_n
        n, b, c = 5, 2.0, 7.0
        got = pfq_terminating([-n, b], [c], 1.0)
        expect = (ln_gen_factorial(c - b, n, 1)
                  / ln_gen_factorial(c, n, 1)).to_float()
        assert got == pytest.approx(expect, rel=1e-12)

    def test_matches_mpmath(self):
        got = pfq_terminating([-4, 1.5, 2.0], [3.0, 0.5], 0.7)
        expect = float(mpmath.hyper([-4, 1.5, 2.0], [3.0, 0.5], 0.7))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_requires_terminating_parameter(self):
        with pytest.raises(UsageError):
            pfq_terminating([1.5, 2.0], [3.0], 0.5)

    @given(n=st.integers(0, 12), a=st.floats(0.5, 8), z=st.floats(-1, 1))
    @settings(max_examples=60)
    def test_binomial_mixture_collapses(self, n, a, z):
        # sum_i C(n,i) pi^i (1-pi)^(n-i) 2F1(-i, a; a+b; z)
        #   = 2F1(-n, a; a+b; pi*z)
        pi, b = 0.4, 3.0
        mix = sum(math.comb(n, i) * pi ** i * (1 - pi) ** (n - i)
                  * pfq_terminating([-i, a], [a + b], z)
                  for i in range(n + 1))
        assert mix == pytest.approx(
            pfq_terminating([-n, a], [a + b], pi * z), rel=1e-9, abs=1e-12)


class TestConvergentSeries:
    def test_geometric(self):
        # 1F0(1;;z) = 1/(1-z)
        assert pfq_convergent([1.0], [], 0.3) == pytest.approx(1 / 0.7)

    def test_gauss_2f1_against_mpmath(self):
        got = pfq_convergent([1.2, 2.3], [3.4], -0.8)
        expect = float(mpmath.hyp2f1(1.2, 2.3, 3.4, -0.8))
        assert got == pytest.approx(expect, rel=1e-10)

    def test_3f2_against_mpmath(self):
        got = pfq_convergent([0.5, 1.5, 2.5], [3.0, 4.0], -0.9)
        expect = float(mpmath.hyper([0.5, 1.5, 2.5], [3.0, 4.0], -0.9))
        assert got == pytest.approx(expect, rel=1e-9)

    def test_rejects_divergent_argument(self):
        with pytest.raises(DomainError):
            pfq_convergent([1.0, 2.0], [3.0], 1.5)


class TestShiftedSums:
    """The closed forms of sum_{u<d} log(z+u), 1/(z+u) and 1/(z+u)^2 at
    z = H_MIN + x, against mpmath's log-gamma, digamma and trigamma at
    50 digits."""

    D = [0, 1, 2, 3, 10, 63, 64, 1_000, 123_457, 10 ** 6, 10 ** 9, 2 ** 40,
         2 ** 53, 10 ** 17, 2 ** 62]

    @pytest.mark.parametrize("x", [1e-10, 1e-3, 1.0, 1e3, 1e8])
    def test_against_mpmath(self, x):
        with mpmath.workdps(50):
            z = H_MIN + x
            got = shifted_sums(np.full(len(self.D), z),
                               np.array(self.D, dtype=float))
            big_z = mpmath.mpf(z)
            for i, d in enumerate(self.D):
                end = big_z + mpmath.mpf(float(d))
                want = (mpmath.loggamma(end) - mpmath.loggamma(big_z),
                        mpmath.digamma(end) - mpmath.digamma(big_z),
                        mpmath.polygamma(1, big_z) - mpmath.polygamma(1, end))
                for value, exact in zip(got, want):
                    err = abs(mpmath.mpf(float(value[i])) - exact)
                    assert err <= 1e-13 * max(abs(exact), 1), (x, d)

    def test_an_empty_sum_is_zero(self):
        assert [float(s[0]) for s in shifted_sums(np.array([64.5]),
                                                  np.array([0.0]))] \
            == [0.0, 0.0, 0.0]


class TestFactorialsAtLargeBases:
    """Past 2**53 a base plus one rounds to the base, so a log-gamma
    difference of the two is 0; the products come from shifted_sums."""

    def test_falling_and_rising_factorials_past_2_53(self):
        t = 2 ** 62
        for n, c, want in [(1, -1, t), (2, -1, t * (t - 1)),
                           (1, 1, t), (2, 1, t * (t + 1))]:
            got = float(ln_gen_factorial_many(float(t), n, c))
            assert got == pytest.approx(math.log(want), rel=1e-15)

    def test_small_bases_keep_the_gammaln_form(self):
        # below H_MIN the values are the log-gamma differences, unchanged
        from scipy.special import gammaln
        theta = np.array([0.5, 3.0, 63.0])
        n = np.array([4, 7, 2])
        assert ln_gen_factorial_many(theta, n, 1).tolist() == (
            gammaln(theta + n) - gammaln(theta)).tolist()
