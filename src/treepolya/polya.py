"""Singular Pólya kernels, power-series sum laws, and exact sampling.

A split with kind c in {-1, 0, 1} divides a total over its components as
a hypergeometric, multinomial, or Dirichlet-multinomial.  Sum laws are
the univariate distributions placed on the grand total.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import betainc, gammainc, gammaln

from .exceptions import DomainError, UsageError
from .special import LogValue, ln_gen_factorial_many

__all__ = [
    "SplitSpec",
    "Dirac", "Binomial", "Poisson", "NegativeBinomial", "SumLaw", "SUM_LAWS",
    "polya_pmf", "polya_log_pmf_many", "polya_uni_pmf",
    "polya_sample_many", "sumlaw_log_pmf", "sumlaw_log_pmf_many",
    "sumlaw_factorial_moment", "sumlaw_sample_many", "sumlaw_support_max",
    "sumlaw_truncation_point", "sumlaw_truncated_log_pmf",
]

_INT_TOL = 1e-9

# most entries a truncated sum-law grid may hold, 512 MB as floats; the
# marginal built on it keeps a few arrays of that size, so a law that
# needs more raises DomainError instead of running out of memory
_MAX_GRID_ENTRIES = 1 << 26


def _finite(value, what: str) -> float:
    """``value`` as a float; a non-number (a bool too), NaN or infinity is
    a DomainError."""
    try:
        number = float(value) if isinstance(value, numbers.Real) \
            and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise DomainError(f"{what} must be a finite number, got {value!r}")
    return number


def _integral(value, what: str) -> int:
    """``value`` as an int; a non-integer (a bool too) is a DomainError."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or _finite(value, what).is_integer()):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SplitSpec:
    """One Pólya split: kind c and one positive weight per component."""

    c: int
    theta: tuple

    def __post_init__(self):
        object.__setattr__(self, "c", _integral(self.c, "split kind"))
        object.__setattr__(self, "theta", tuple(
            _finite(t, "split weight") for t in self.theta))
        if self.c not in (-1, 0, 1):
            raise DomainError(f"split kind must be -1, 0 or 1, got {self.c}")
        if len(self.theta) < 2:
            raise DomainError("a split needs at least two components")
        if any(t <= 0 for t in self.theta):
            raise DomainError("all split weights must be positive")
        if self.c == -1 and any(abs(t - round(t)) > _INT_TOL
                                for t in self.theta):
            raise DomainError("hypergeometric split weights must be integers")

    @property
    def arity(self) -> int:
        return len(self.theta)

    @property
    def total(self) -> float:
        return sum(self.theta)


# ---------------------------------------------------------------------
# Sum laws


@dataclass(frozen=True)
class Dirac:
    m: int
    family = "dirac"

    def __post_init__(self):
        object.__setattr__(self, "m", _integral(self.m, "Dirac point"))
        if self.m < 0:
            raise DomainError(f"Dirac point must be nonnegative, got {self.m}")


@dataclass(frozen=True)
class Binomial:
    """Binomial on {0, ..., size} with success probability prob.

    The power-series form of this family uses odds alpha = prob/(1-prob);
    the success-probability parameterization is exposed here.
    """

    size: int
    prob: float
    family = "binomial"

    def __post_init__(self):
        object.__setattr__(self, "size", _integral(self.size, "binomial size"))
        object.__setattr__(self, "prob", _finite(self.prob, "binomial prob"))
        if self.size <= 0:
            raise DomainError("binomial size must be positive")
        if not 0.0 < self.prob < 1.0:
            raise DomainError("binomial prob must be in (0, 1)")


@dataclass(frozen=True)
class Poisson:
    rate: float
    family = "poisson"

    def __post_init__(self):
        object.__setattr__(self, "rate", _finite(self.rate, "Poisson rate"))
        if self.rate <= 0:
            raise DomainError("Poisson rate must be positive")


@dataclass(frozen=True)
class NegativeBinomial:
    """P(y) = (alpha)_y / y! * p^y * (1-p)^alpha."""

    alpha: float
    p: float
    family = "nb"

    def __post_init__(self):
        object.__setattr__(self, "alpha", _finite(self.alpha, "NB alpha"))
        object.__setattr__(self, "p", _finite(self.p, "NB p"))
        if self.alpha <= 0:
            raise DomainError("negative binomial alpha must be positive")
        if not 0.0 < self.p < 1.0:
            raise DomainError("negative binomial p must be in (0, 1)")


SumLaw = Union[Dirac, Binomial, Poisson, NegativeBinomial]

# family name -> law class, in the order the CLI lists them; a law's
# parameters are its dataclass fields
SUM_LAWS = {law.family: law
            for law in (NegativeBinomial, Poisson, Dirac, Binomial)}


def sumlaw_support_max(law: SumLaw) -> Optional[int]:
    """Upper support bound, or None when unbounded."""
    if isinstance(law, Dirac):
        return law.m
    if isinstance(law, Binomial):
        return law.size
    return None


def count_array(y) -> np.ndarray:
    """Counts as floats; complex, NaN or infinite entries are a usage
    error."""
    y = np.asarray(y)
    if y.dtype.kind == "c":
        raise UsageError("counts must be numbers")
    y = y.astype(float, copy=False)
    if not np.all(np.isfinite(y)):
        raise UsageError("counts must be finite numbers")
    return y


def sumlaw_log_pmf_many(n, law: SumLaw) -> np.ndarray:
    """Log p.m.f. of a sum law at each total; ``-inf`` for zero mass."""
    n = np.asarray(n, dtype=float)
    ok = (n >= 0) & (n == np.floor(n))
    k = np.where(ok, n, 0.0)
    if isinstance(law, Dirac):
        out = np.where(k == law.m, 0.0, -np.inf)
    elif isinstance(law, Binomial):  # the falling factorial is 0 past size
        out = (ln_gen_factorial_many(law.size, k, -1) - gammaln(k + 1)
               + k * math.log(law.prob)
               + (law.size - k) * math.log1p(-law.prob))
    elif isinstance(law, Poisson):
        out = k * math.log(law.rate) - law.rate - gammaln(k + 1)
    elif isinstance(law, NegativeBinomial):
        out = (ln_gen_factorial_many(law.alpha, k, 1) - gammaln(k + 1)
               + k * math.log(law.p) + law.alpha * math.log1p(-law.p))
    else:
        raise UsageError(f"unknown sum law {law!r}")
    return np.where(ok, out, -np.inf)


def sumlaw_log_pmf(n: int, law: SumLaw) -> LogValue:
    return LogValue.from_log(sumlaw_log_pmf_many(count_array(n), law))


def sumlaw_factorial_moment(r: int, law: SumLaw) -> float:
    """r-th factorial moment E[(N)(N-1)...(N-r+1)]."""
    if r < 0:
        raise DomainError("moment order must be nonnegative")
    if isinstance(law, Poisson):
        return law.rate ** r
    if isinstance(law, Dirac):
        log = ln_gen_factorial_many(law.m, r, -1)
    elif isinstance(law, Binomial):
        log = ln_gen_factorial_many(law.size, r, -1) + r * math.log(law.prob)
    elif isinstance(law, NegativeBinomial):
        log = ln_gen_factorial_many(law.alpha, r, 1) \
            + r * (math.log(law.p) - math.log1p(-law.p))
    else:
        raise UsageError(f"unknown sum law {law!r}")
    return math.exp(log)


def sumlaw_sample_many(law: SumLaw, size: int,
                       rng: np.random.Generator) -> np.ndarray:
    if isinstance(law, Dirac):
        return np.full(size, law.m, dtype=np.int64)
    if isinstance(law, Binomial):
        return rng.binomial(law.size, law.prob, size=size).astype(np.int64)
    if isinstance(law, Poisson):
        return rng.poisson(law.rate, size=size).astype(np.int64)
    if isinstance(law, NegativeBinomial):
        # numpy's p is the success probability of the stopping trials,
        # i.e. 1 - p in the power-series parameterization used here
        return rng.negative_binomial(law.alpha, 1.0 - law.p,
                                     size=size).astype(np.int64)
    raise UsageError(f"unknown sum law {law!r}")


def _sf(law: SumLaw, k: int) -> float:
    """P(Y > k) for an unbounded law: a regularized incomplete gamma or
    beta function."""
    if isinstance(law, Poisson):
        return float(gammainc(k + 1, law.rate))
    if isinstance(law, NegativeBinomial):
        return float(betainc(k + 1, law.alpha, law.p))
    raise UsageError(f"unknown sum law {law!r}")


def sumlaw_truncation_point(law: SumLaw, tail: float = 1e-14) -> int:
    """N = 1 + the smallest k with P(Y > k) <= tail, so at most ``tail``
    of the mass lies at N or beyond; for a bounded law, its support's
    maximum.

    N is found by doubling and then bisection on the survival function,
    about 2 log2(N) scalar evaluations; the survival function resolves
    tails far below double precision's epsilon.
    """
    if not 0.0 < tail < 1.0:
        raise DomainError(f"tail must lie in (0, 1), got {tail}")
    bound = sumlaw_support_max(law)
    if bound is not None:
        return bound
    lo, hi = -1, 1  # P(Y > lo) > tail >= P(Y > hi) once hi is found
    while _sf(law, hi) > tail:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _sf(law, mid) > tail else (lo, mid)
    return hi + 1


def sumlaw_truncated_log_pmf(law: SumLaw, tail: float = 1e-14) -> np.ndarray:
    """Log p.m.f. of a sum law over 0..N, N its
    :func:`sumlaw_truncation_point`.  A grid of more than
    ``_MAX_GRID_ENTRIES`` entries raises ``DomainError`` naming the law
    and N."""
    n = sumlaw_truncation_point(law, tail)
    if n >= _MAX_GRID_ENTRIES:
        raise DomainError(f"{law} needs N = {n} to leave at most {tail:g} "
                          f"of its mass past N: its grid would pass the "
                          f"limit of {_MAX_GRID_ENTRIES} entries")
    return sumlaw_log_pmf_many(np.arange(n + 1), law)


# ---------------------------------------------------------------------
# Pólya kernels


def polya_log_pmf_many(y, spec: SplitSpec) -> np.ndarray:
    """Log p.m.f. of the singular Pólya split at each row of an
    (n, arity) count array; ``-inf`` for rows of zero mass."""
    y = np.asarray(y, dtype=float)
    theta = np.array(spec.theta)
    ok = np.all((y >= 0) & (y == np.floor(y)), axis=1)
    if spec.c == -1:
        ok &= np.all(y <= np.round(theta), axis=1)
    y = np.where(ok[:, None], y, 0.0)
    n = y.sum(axis=1)
    out = (gammaln(n + 1) - gammaln(y + 1).sum(axis=1)
           + ln_gen_factorial_many(theta, y, spec.c).sum(axis=1)
           - ln_gen_factorial_many(spec.total, n, spec.c))
    return np.where(ok, out, -np.inf)


def polya_pmf(y, spec: SplitSpec) -> LogValue:
    """Log p.m.f. of the singular Pólya split at a count vector."""
    y = count_array(y)
    if y.shape != (spec.arity,):
        raise UsageError(f"count vector has shape {y.shape}, split "
                         f"has {spec.arity} components")
    return LogValue.from_log(polya_log_pmf_many(y[None, :], spec)[0])


def polya_uni_pmf(y: int, n: int, theta: float, tau: float,
                  c: int) -> LogValue:
    """Univariate (non-singular) Pólya p.m.f. at y out of a total n."""
    return polya_pmf((y, n - y), SplitSpec(c, (theta, tau)))


def polya_sample_many(totals, spec: SplitSpec,
                      rng: np.random.Generator) -> np.ndarray:
    """Exact draws splitting each total; returns shape (len(totals), arity).

    Sequential conditional construction: component j given the remainder
    is binomial (c=0), beta-binomial via a beta draw (c=1), or
    hypergeometric (c=-1).
    """
    totals = np.asarray(totals, dtype=np.int64)
    if np.any(totals < 0):
        raise DomainError("totals must be nonnegative")
    if spec.c == -1 and np.any(totals > round(spec.total)):
        raise DomainError("total exceeds |theta| for a hypergeometric split")
    size = totals.shape[0]
    out = np.zeros((size, spec.arity), dtype=np.int64)
    remaining = totals.copy()
    rest = spec.total
    for j in range(spec.arity - 1):
        theta_j = spec.theta[j]
        rest -= theta_j
        if spec.c == 0:
            draw = rng.binomial(remaining, theta_j / (theta_j + rest))
        elif spec.c == 1:
            probs = rng.beta(theta_j, rest, size=size)
            draw = rng.binomial(remaining, probs)
        else:
            draw = rng.hypergeometric(round(theta_j), round(rest),
                                      np.maximum(remaining, 1))
            draw = np.where(remaining == 0, 0, draw)
        out[:, j] = draw
        remaining -= draw
    out[:, -1] = remaining
    return out
