"""Numerically stable primitives.

Signed log-space reals, generalized factorial products (as arrays, with
a checked scalar form), and generalized hypergeometric series in both
the terminating and the convergent regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np
from scipy.special import gammaln

from .exceptions import ConvergenceError, DomainError, UsageError

__all__ = [
    "LogValue",
    "ln_gen_factorial",
    "pfq_terminating",
    "pfq_convergent",
]

_INT_TOL = 1e-9


@dataclass(frozen=True)
class LogValue:
    """A real number stored as a sign and the log of its magnitude.

    ``sign == 0`` represents exact zero; ``log_magnitude`` is then ignored.
    """

    sign: int
    log_magnitude: float = float("-inf")

    ZERO: ClassVar["LogValue"]
    ONE: ClassVar["LogValue"]

    @staticmethod
    def from_float(x: float) -> "LogValue":
        if x == 0.0:
            return LogValue.ZERO
        return LogValue(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(x: float) -> "LogValue":
        """Positive value with log ``x``; exact zero for ``x = -inf``."""
        return LogValue.ZERO if x == -math.inf else LogValue(1, float(x))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0 or other.sign == 0:
            return LogValue.ZERO
        return LogValue(self.sign * other.sign,
                        self.log_magnitude + other.log_magnitude)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by an exact-zero LogValue")
        if self.sign == 0:
            return LogValue.ZERO
        return LogValue(self.sign * other.sign,
                        self.log_magnitude - other.log_magnitude)


LogValue.ZERO = LogValue(0)
LogValue.ONE = LogValue(1, 0.0)


def _is_nonpos_int(x: float) -> bool:
    return x <= _INT_TOL and abs(x - round(x)) <= _INT_TOL


# The least argument of :func:`shifted_sums`'s asymptotic series: at
# z >= 64 the first omitted terms are below 1e-19 of the leading ones,
# and the three sums matched mpmath (50 digits) to 2.9e-16 relative at
# z = h + x for h in {64, 65, 100, 1000}, x in {1e-10, 1e-3, 1, 1e3,
# 1e8} and d from 0 to 2**62.
H_MIN = 64


# The series' terms past the first, as polynomials in v = 1/z^2:
# Stirling's remainder less 1/(12z) is w v S(v), ψ less log z - w/2 is
# v P(v), and ψ₁ less w is v (1/2 + w T(v)), w = 1/z.  Entry p holds the
# coefficients of v^p in S, P and T (Abramowitz & Stegun 6.1.41, 6.3.18,
# 6.4.12).
_SERIES = np.array([[-1 / 360, -1 / 12, 1 / 6],
                    [1 / 1260, 1 / 120, -1 / 30],
                    [-1 / 1680, -1 / 252, 1 / 42],
                    [1 / 1188, 1 / 240, -1 / 30],
                    [0.0, -1 / 132, 0.0]])[:, :, None, None]
_ODD = np.array([1.0, 0.0, 1.0])[:, None, None]  # S and T carry a w


def shifted_sums(z, d) -> np.ndarray:
    """sum_{u=0}^{d-1} of log(z+u), 1/(z+u) and 1/(z+u)^2, elementwise
    and stacked as three rows, for z >= ``H_MIN`` and d >= 0: lnΓ(z+d) -
    lnΓ(z), ψ(z+d) - ψ(z) and ψ₁(z) - ψ₁(z+d), in closed form.

    Stirling's series and the asymptotic series of ψ and ψ₁ at both
    ends, with the ends' logs as one log1p and their reciprocals'
    difference as d / (z (z+d)), so that neither a difference of two
    large logs nor one of two close reciprocals is formed."""
    z, d = np.broadcast_arrays(np.asarray(z, dtype=float),
                               np.asarray(d, dtype=float))
    shape = z.shape
    z, d = z.ravel(), d.ravel()
    w = np.divide(1.0, np.stack((z, z + d)))   # both ends' 1/z
    v = w * w
    t = np.log1p(d * w[0])                      # log((z+d) / z)
    gap = d * w[0] * w[1]                       # 1/z - 1/(z+d)
    # each series at both ends, by Horner in v, then its far end less
    # its near end
    series = _SERIES[-1] * v
    for coef in _SERIES[-2::-1]:
        series += coef
        series *= v
    series *= np.where(_ODD, w, 1.0)
    series[2] += 0.5 * v
    rest = series[:, 1] - series[:, 0]
    out = np.empty((3, z.size))
    out[0] = d * (np.log(z) - 1.0) + (z + d - 0.5) * t + rest[0] - gap / 12
    out[1] = t + gap / 2 + rest[1]
    out[2] = gap - rest[2]
    return out.reshape(3, *shape)


def ln_gen_factorial_many(theta, n, c: int) -> np.ndarray:
    """Unchecked elementwise :func:`ln_gen_factorial` as a float array;
    ``-inf`` where c = -1 and n exceeds the base.  Where the rising
    factorial's base, or the falling factorial's t - n + 1, is at least
    ``H_MIN``, the log-gamma difference is :func:`shifted_sums`' (so a
    product at a base past 2**53, where t + 1 rounds to t, is right)."""
    if c == 0:
        return n * np.log(theta)
    if c == 1:
        out = gammaln(theta + n) - gammaln(theta)
        low = np.asarray(theta, dtype=float)
    else:
        # a float, so that t + 1 cannot wrap for an int64 base
        t = np.round(np.asarray(theta, dtype=float))
        low = t - n + 1
        out = np.where(n <= t,
                       gammaln(t + 1) - gammaln(np.maximum(t - n, 0) + 1),
                       -np.inf)
    large = low >= H_MIN
    if np.any(large):
        out = np.where(large, shifted_sums(np.maximum(low, H_MIN),
                                           np.where(large, n, 0))[0], out)
    return out


def ln_gen_factorial(theta: float, n: int, c: int) -> LogValue:
    """Log of the product prod_{j=0}^{n-1} (theta + j*c).

    c = 1 is the rising factorial, c = 0 the plain power, c = -1 the
    falling factorial.  The empty product (n = 0) is 1.  For c = -1 the
    base must be a positive integer; when n exceeds it the product hits
    a zero factor and an exact zero is returned.
    """
    if c not in (-1, 0, 1):
        raise UsageError(f"c must be in {{-1, 0, 1}}, got {c}")
    if theta <= 0:
        raise DomainError(f"generalized factorial needs theta > 0, got "
                          f"{theta}")
    # the count gate lives in polya, which imports this module
    from .polya import count_int64, count_scalar
    if count_scalar(n) < 0:
        raise DomainError(f"generalized factorial needs n >= 0, got {n}")
    n = count_int64(n)
    if c == -1 and abs(theta - round(theta)) > _INT_TOL:
        raise DomainError(
            f"falling factorial needs an integer base, got theta={theta}")
    return LogValue.from_log(ln_gen_factorial_many(theta, n, c))


def _kahan_add(total: float, comp: float, term: float) -> tuple[float, float]:
    y = term - comp
    t = total + y
    return t, (t - total) - y


def pfq_terminating(a: Sequence[float], b: Sequence[float], z: float) -> float:
    """Terminating generalized hypergeometric series pFq(a; b; z).

    At least one upper parameter must be a nonpositive integer; the sum
    runs to the smallest such termination order.  Terms are accumulated
    with compensated summation so the result is deterministic.
    """
    a = tuple(float(x) for x in a)
    b = tuple(float(x) for x in b)
    if not a:
        raise UsageError("pfq_terminating needs at least one upper parameter")
    orders = [int(-round(x)) for x in a if _is_nonpos_int(x)]
    if not orders:
        raise UsageError("no nonpositive-integer upper parameter; series does "
                         "not terminate")
    m_stop = min(orders)
    for x in b:
        if _is_nonpos_int(x) and int(-round(x)) < m_stop:
            raise DomainError(f"lower parameter {x} vanishes before the "
                              "series terminates")
    total, comp = 0.0, 0.0
    term = 1.0
    for k in range(m_stop + 1):
        total, comp = _kahan_add(total, comp, term)
        num = 1.0
        for x in a:
            num *= x + k
        den = 1.0
        for x in b:
            den *= x + k
        term *= num / den * z / (k + 1)
    return total


def pfq_convergent(a: Sequence[float], b: Sequence[float], z: float,
                   tol: float = 1e-12, max_terms: int = 10 ** 6) -> float:
    """Convergent generalized hypergeometric series for |z| < 1.

    Sums until a ratio-test tail bound drops below ``tol``; raises after
    ``max_terms`` terms without meeting it.
    """
    a = tuple(float(x) for x in a)
    b = tuple(float(x) for x in b)
    if len(a) > len(b) + 1:
        raise UsageError("series with more than one excess upper parameter "
                         "diverges for z != 0")
    if abs(z) >= 1.0:
        raise DomainError(f"pfq_convergent needs |z| < 1, got z={z}")
    if tol <= 0:
        raise DomainError("tol must be positive")
    total, comp = 0.0, 0.0
    term = 1.0
    peak = 1.0
    for k in range(max_terms):
        total, comp = _kahan_add(total, comp, term)
        peak = max(peak, abs(term))
        num = 1.0
        for x in a:
            num *= x + k
        den = 1.0
        for x in b:
            den *= x + k
        prev = term
        term *= num / den * z / (k + 1)
        ratio = abs(term / prev) if prev != 0.0 else 0.0
        bound_ratio = max(ratio, abs(z))
        if bound_ratio < 1.0 and abs(term) / (1.0 - bound_ratio) < tol:
            total += term
            # an alternating series whose terms dwarf the sum has lost
            # most of its digits; redo it in arbitrary precision
            if peak > 1e4 * max(abs(total), 1e-300):
                import mpmath
                return float(mpmath.hyper(a, b, z))
            return total
    raise ConvergenceError(
        f"pfq_convergent did not meet tol={tol} within {max_terms} terms")
