"""Node-wise maximum likelihood and greedy AIC structure search.

The joint log-likelihood decomposes into the sum-law term plus one term
per internal node, so every node is fitted independently on its child
subsums and the model AIC is the straight sum of per-node AICs.  Node
log-likelihoods here include the multinomial coefficients, i.e. they are
full conditional log-probabilities, which makes the AIC of the assembled
model identical to 2k minus twice the joint log-likelihood.

Every statistic of the fit layer is a count profile (:class:`_Profiles`):
a vector's survival counts S(u) = #{i : y_i > u} for u below a head
length h, and one (value, multiplicity) pair for each distinct value
past it, so a leaf-subset store entry is O(h + distinct values) and no
array is sized by the largest count.  Every Dirichlet-multinomial node
fit, and every fit in the search's move screen, is one damped Newton
iteration in log weights (:func:`_lockstep_max`) on the node's
profiles, for any number of nodes at once: :func:`fit_tree` fits all
its DM nodes with one call per number of free children, and each
node's fit is bit for bit its fit alone.  One pass over the profiles
(:func:`_evaluate`) gives both the log-likelihood at a trial point and
the sums of its derivatives there, so each trial point costs one pass.
A fit whose weights run off towards the multinomial limit stops just
past ``DIVERGENCE_THETA`` and is flagged; the multinomial stands in for
it.  The Newton step, and the screen's gain from a step in every weight
of a wide node, are one Sherman-Morrison solve (:func:`_newton_step`).
Fits and screen alike read a node's profiles from the leaf-subset store,
as its :class:`_DmAggregates`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaln

from .exceptions import ConvergenceError, DomainError, UsageError
from .model import TreePolyaModel
from .polya import SUM_LAWS, SplitSpec, count_int64, sumlaw_log_pmf_many
from .special import H_MIN, shifted_sums
from .tree import PartitionTree, _subset_label

__all__ = [
    "FitResult", "node_data",
    "fit_sum_law", "fit_node_multinomial", "fit_node_dm",
    "select_node_split", "fit_tree", "search_tree",
]

_log = logging.getLogger(__name__)

DIVERGENCE_THETA = 1e8
THETA_FLOOR = 1e-10
# the DM Newton iteration (:func:`_lockstep_max`): its stop on half the
# Newton decrement, in log-likelihood units, and its iteration budget
NEWTON_TOL = 1e-7
NEWTON_MAX_ITER = 50
AIC_EPSILON = 1e-6  # the least AIC drop that a search move must make
MAX_MOVES = 10_000  # the search's move budget
# the search's move screen: the count-profile entries (head entries plus
# tail pairs) that each lockstep call of one screen block holds at most,
# and the stop rule's margin in AIC units, max(SCREEN_MARGIN,
# SCREEN_SHARE * |best ΔAIC|); SCREEN_BLOCK also bounds the subsums
# (rows x subsets) of one profiling pass of the leaf-subset store
SCREEN_BLOCK = 1 << 16
SCREEN_MARGIN = 2.0
SCREEN_SHARE = 0.1
# What a count profile's tail costs the DM kernel, in dense head entries
# (:meth:`_Profiles.kernel_sums`, 20 rows, min of 7 runs, 2 vCPUs, numpy
# 2.4): a tail pair 105-121 ns against 5.7-6.5 ns per dense entry, and
# the tail pass's fixed cost ~50 us (7 400-10 700 entries) per call.  A
# dense entry also costs a gather at each compaction of the lockstep
# solve, and of pair weights 10, 15 and 20, 10 made the 200-leaf
# cascade's fit fastest (in process, seeds 5 and 7).  The search's
# single-node fits hold a few rows with tails per call and a tree's
# batch hundreds, so a row takes a tail only where it saves more than
# TAIL_FIXED entries: of 0, 500, 1 000 and 2 000, 1 000 kept both the
# 200 x 30 search and that fit at or near their fastest (seeds 1, 3, 5
# and 7).
TAIL_COST = 10
TAIL_FIXED = 1000
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass
class FitResult:
    kind: str                    # a SUM_LAWS family, "multinomial" or "dm"
    params: dict
    log_lik: float
    n_params: int
    converged: bool = True
    iterations: int = 0
    divergence_flag: bool = False
    empty: bool = False          # node without counts: degenerate split

    @property
    def aic(self) -> float:
        return 2.0 * self.n_params - 2.0 * self.log_lik


def _count_table(data, tree: Optional[PartitionTree] = None) -> np.ndarray:
    """Counts as an int64 matrix, one column per leaf of ``tree`` if given."""
    data = count_int64(data)
    if data.ndim != 2:
        raise UsageError("counts must be a matrix")
    if tree is not None and data.shape[1] != tree.leaf_count:
        raise UsageError(f"data has {data.shape[1]} columns, tree has "
                         f"{tree.leaf_count} leaves")
    return data


def _may_wrap(counts: np.ndarray) -> bool:
    """Whether a row sum of an int64 count matrix can pass int64: its
    columns' maxima sum past it."""
    return counts.shape[1] > 1 and sum(
        int(v) for v in counts.max(axis=0, initial=0)) > _INT64_MAX


def _row_totals(counts: np.ndarray, checked: bool = False) -> np.ndarray:
    """The row sums of an int64 count matrix; a row whose sum is past
    int64 is a DomainError naming it (1-based), where numpy would wrap.
    ``checked``: the matrix is known not to wrap."""
    if not checked and _may_wrap(counts):
        # only rows whose float sum comes near the bound can pass it
        near = np.flatnonzero(counts.sum(axis=1, dtype=float) > 2.0 ** 62)
        for r in near:
            total = sum(int(v) for v in counts[r])
            if total > _INT64_MAX:
                raise DomainError(f"the counts of row {r + 1} sum to "
                                  f"{total}, past the int64 range")
    return counts.sum(axis=1)


def node_data(tree: PartitionTree, counts: np.ndarray,
              node: int) -> np.ndarray:
    """Child-subsum matrix (n_sites x J_A) for one internal node, in
    int64; a row whose subsum is past int64 is a DomainError naming it."""
    if tree.is_leaf(node):
        raise UsageError("node data is defined for internal nodes only")
    counts = _count_table(counts, tree)
    return np.column_stack([
        _row_totals(counts[:, np.subtract(tree.subset(c), 1)])
        for c in tree.children(node)])


# ---------------------------------------------------------------------
# Count profiles


def _ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """0, ..., n - 1 for each n in ``lengths``, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) \
        - np.repeat(ends - lengths, lengths)


class _Runs:
    """Consecutive runs along an array's last axis: ``full`` marks the
    nonempty ones, which start at ``starts``."""

    def __init__(self, full: np.ndarray, starts: np.ndarray):
        self.full, self.starts = full, starts

    @classmethod
    def of(cls, lengths: np.ndarray) -> "_Runs":
        """Runs of ``lengths``."""
        full = lengths > 0
        return cls(full, (np.cumsum(lengths) - lengths)[full])

    @classmethod
    def even(cls, count: int, length: int) -> "_Runs":
        """``count`` runs of ``length``."""
        return cls(np.full(count, length > 0),
                   np.arange(0, count * length, length) if length
                   else np.empty(0, dtype=np.int64))

    def sums(self, values: np.ndarray) -> np.ndarray:
        """The sum of each run of ``values``, 0 for an empty run.  Each
        run is summed on its own, so its sum does not depend on what else
        ``values`` holds."""
        if self.starts.size == self.full.size:
            return np.add.reduceat(values, self.starts, axis=-1)
        out = np.zeros((*values.shape[:-1], self.full.size))
        if self.starts.size:
            out[..., self.full] = np.add.reduceat(values, self.starts,
                                                  axis=-1)
        return out


class _Profiles:
    """The count profiles of one or more count vectors ("rows"), packed
    flat, row after row.

    A vector's profile keeps its survival counts S(u) = #{i : y_i > u}
    for u below its head length h (``head``, h entries), and for each
    distinct value v > h the pair (v - h, m_v), m_v its multiplicity
    (``d`` and ``m``, ``tails`` pairs).  Any sum over u of S(u) f(u) is
    the head's sum plus sum_v m_v sum_{u=h}^{v-1} f(u), and the three
    inner sums the DM kernel takes, of log(x+u), 1/(x+u) and 1/(x+u)^2,
    have closed forms at z = x + h (:func:`special.shifted_sums`), exact
    to rounding since a row with a tail has h >= ``H_MIN``.  Past that,
    h minimises h + ``TAIL_COST`` * (tail pairs), and a row keeps no
    tail unless it saves more than ``TAIL_FIXED`` entries, so dense rows
    stay dense and a row is O(H_MIN + TAIL_FIXED + distinct values)
    whatever its largest count.  Zeros change none of it.  Each row also
    keeps its log-factorial sum sum_i lnΓ(y_i + 1), its sum and its sum
    of squares, as floats.
    """

    def __init__(self, h, head, tails, d, m, log_fact, sums, squares):
        self.h, self.head, self.tails, self.d, self.m = h, head, tails, d, m
        self.log_fact, self.sums, self.squares = log_fact, sums, squares

    @classmethod
    def of_columns(cls, values: np.ndarray) -> "_Profiles":
        """The profiles of the columns of a count matrix (rows x columns),
        from a sort of each column: O(rows log rows) per column."""
        rows, cols = values.shape
        ordered = np.sort(values, axis=0).T.ravel()
        # each column's distinct values, 0 included, ascending from
        # begin[j] on, and their multiplicities
        first = np.ones(ordered.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        first[::max(rows, 1)] = True
        starts = np.flatnonzero(first)
        vals, owner = ordered[starts], starts // max(rows, 1)
        mult = np.diff(starts, append=ordered.size)
        count = np.bincount(owner, minlength=cols)
        begin = np.cumsum(count) - count
        top = np.zeros(cols, dtype=np.int64)
        full = count > 0
        top[full] = vals[begin[full] + count[full] - 1]
        # the head length: the whole row, unless a tail saves more than
        # TAIL_FIXED entries; then H_MIN, or the distinct value past it
        # that costs least (its larger values go to the tail), the
        # shortest on a tie
        fmult = mult.astype(float)
        h = top.copy()
        tall = top > H_MIN + TAIL_FIXED
        if tall.any():
            after = np.repeat(begin + count, count) - np.arange(vals.size) - 1
            cost = np.where(vals >= H_MIN, vals.astype(float)
                            + TAIL_COST * after, np.inf)
            least = np.minimum.reduceat(cost, begin)
            pick = np.minimum.reduceat(
                np.where(cost == np.repeat(least, count),
                         np.arange(vals.size), vals.size), begin)
            floor = H_MIN + TAIL_COST * np.bincount(owner[vals > H_MIN],
                                                    minlength=cols)
            short = np.where(floor <= least, H_MIN, vals[pick])
            tall &= np.minimum(floor, least) + TAIL_FIXED < top
            h[tall] = short[tall]
        # the head: S(u) = rows - #{y <= u}
        head_at = np.cumsum(h) - h
        under = vals < h[owner]
        hist = np.bincount(head_at[owner[under]] + vals[under],
                           weights=fmult[under], minlength=int(h.sum()))
        below = np.cumsum(hist)
        before = np.zeros(cols)
        before[h > 0] = below[head_at[h > 0]] - hist[head_at[h > 0]]
        head = np.repeat(rows + before, h) - below
        over = vals > h[owner]
        fvals = vals.astype(float)
        return cls(h, head, np.bincount(owner[over], minlength=cols),
                   (vals[over] - h[owner[over]]).astype(float), fmult[over],
                   *(np.bincount(owner, weights=w, minlength=cols).astype(
                       float, copy=False) for w in (
                           fmult * gammaln(fvals + 1.0), fmult * fvals,
                           fmult * fvals * fvals)))

    @classmethod
    def concat(cls, parts: Sequence["_Profiles"]) -> "_Profiles":
        """The rows of ``parts``, in order, as one packed set."""
        return cls(*(np.concatenate([getattr(p, name) for p in parts],
                                    dtype=None if name in ("h", "tails")
                                    else float)
                     for name in ("h", "head", "tails", "d", "m", "log_fact",
                                  "sums", "squares")))

    def take(self, rows: np.ndarray) -> "_Profiles":
        """Rows ``rows`` (indices, repeats allowed) as a packed set."""
        h, tails = self.h[rows], self.tails[rows]
        u = _ragged_arange(h)
        at = np.repeat(self._head_at[rows], h) + u
        if self.d.size:
            tail_at = np.repeat(self._tail_at[rows], tails) \
                + _ragged_arange(tails)
            d, m = self.d[tail_at], self.m[tail_at]
        else:
            d, m = self.d, self.m
        taken = _Profiles(h, self.head[at], tails, d, m,
                          self.log_fact[rows], self.sums[rows],
                          self.squares[rows])
        taken.u = u.astype(float)
        return taken

    def split(self) -> List["_Profiles"]:
        """Each row as a profile of its own (views of this one's arrays)."""
        heads = np.split(self.head, np.cumsum(self.h)[:-1])
        ends = np.cumsum(self.tails)
        return [_Profiles(self.h[j:j + 1], heads[j], self.tails[j:j + 1],
                          self.d[end - tails:end], self.m[end - tails:end],
                          self.log_fact[j:j + 1], self.sums[j:j + 1],
                          self.squares[j:j + 1])
                for j, (tails, end) in enumerate(zip(self.tails, ends))]

    @property
    def count(self) -> int:
        """The number of rows."""
        return self.h.size

    @cached_property
    def _head_at(self) -> np.ndarray:
        return np.cumsum(self.h) - self.h

    @cached_property
    def _tail_at(self) -> np.ndarray:
        return np.cumsum(self.tails) - self.tails

    @cached_property
    def u(self) -> np.ndarray:
        """The head entries' u, as floats."""
        return _ragged_arange(self.h).astype(float)

    @cached_property
    def _head_runs(self) -> _Runs:
        return _Runs.of(self.h)

    @cached_property
    def _tail(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, _Runs]:
        """The rows with a tail, their head lengths and tail lengths, and
        their tails as runs."""
        rows = np.flatnonzero(self.tails)
        tails = self.tails[rows]
        return rows, self.h[rows].astype(float), tails, _Runs.of(tails)

    def kernel_sums(self, x: np.ndarray) -> np.ndarray:
        """For each row r at shift x_r, as three rows: sum_u S(u) log(x_r +
        u), sum_u S(u) / (x_r + u) and sum_u S(u) / (x_r + u)^2; each
        row's head summed alone, plus its tail's pairs summed alone.  A
        profile of one row takes any number of shifts: the row at each,
        to the bit as if it were repeated once per shift."""
        # the shifts x + u go into row 0, which their logs overwrite last
        if self.count == 1:
            terms = np.empty((3, x.size, self.h[0]))
            np.add(x[:, None], np.arange(self.h[0], dtype=float),
                   out=terms[0])
            runs = _Runs.even(x.size, self.h[0])
        else:
            terms = np.empty((3, self.head.size))
            np.add(np.repeat(x, self.h), self.u, out=terms[0])
            runs = self._head_runs
        np.divide(self.head, terms[0], out=terms[1])
        np.divide(terms[1], terms[0], out=terms[2])
        np.log(terms[0], out=terms[0])
        terms[0] *= self.head
        sums = runs.sums(terms.reshape(3, -1))
        if self.d.size:
            if self.count == 1:
                rows = slice(None)
                terms = shifted_sums((x + self.h[0])[:, None], self.d)
                runs = _Runs.even(x.size, self.d.size)
            else:
                rows, h, tails, runs = self._tail
                terms = shifted_sums(np.repeat(x[rows] + h, tails), self.d)
            terms *= self.m
            sums[:, rows] += runs.sums(terms.reshape(3, -1))
        return sums


# ---------------------------------------------------------------------
# Sum-law fits


def _nb_profile_score(alpha: float, totals: _Profiles, n: int,
                      ybar: float) -> float:
    """Profile score in alpha (p concentrated out) of n totals of mean
    ybar, from their count profile: sum_u S(u) / (alpha + u) - n log(1 +
    ybar / alpha)."""
    return float(totals.kernel_sums(np.array([alpha]))[1, 0]) \
        - n * math.log1p(ybar / alpha)


def _binomial_profile_step(size: int, totals: _Profiles, n: int,
                           ybar: float) -> float:
    """l(size + 1) - l(size) for the binomial log-likelihood of n totals
    profiled over prob = ybar / size, from their count profile:
    l(N) = sum_u S(u) log(N - u) + n ybar log(ybar / N)
    + n (N - ybar) log(1 - ybar / N), plus terms free of N.  Over a tail
    pair (v - h, m) the sum of log1p(1 / (N - u)) for u = h..v-1
    telescopes to log((N - h + 1) / (N - v + 1))."""
    def tail(m):  # (m - ybar) log(1 - ybar / m), 0 at m = ybar
        return (m - ybar) * math.log1p(-ybar / m) if m > ybar else 0.0

    step = float(totals.head @ np.log1p(1.0 / (size - totals.u)))
    if totals.d.size:
        step += float(totals.m @ np.log1p(
            totals.d / (size - float(totals.h[0]) - totals.d + 1.0)))
    return step + n * (tail(size + 1) - tail(size)
                       - ybar * math.log1p(1.0 / size))


def fit_sum_law(totals, family: str) -> FitResult:
    """MLE of the grand-total law.

    The negative binomial's alpha and the binomial's size are bracketed
    and bisected on their profile score and step (``iterations`` counts
    the NB score's evaluations), which read the totals' count profile;
    the others are closed form.
    """
    try:
        law = SUM_LAWS[family]
    except (KeyError, TypeError):
        raise UsageError(f"unknown sum-law family {family!r}") from None
    totals = count_int64(totals)
    if totals.ndim != 1 or totals.size == 0:
        raise UsageError("totals must be a nonempty vector")
    n = totals.size
    ybar = float(totals.mean())

    def result(params: dict, iterations: int = 0) -> FitResult:
        ll = float(sumlaw_log_pmf_many(totals, law(**params)).sum())
        return FitResult(family, params, ll, len(params),
                         iterations=iterations)

    if family == "dirac":
        if np.any(totals != totals[0]):
            raise DomainError("Dirac fit needs constant totals")
        return result({"m": int(totals[0])})

    if family == "poisson":
        if ybar == 0:
            raise DomainError("all-zero totals cannot be fitted by Poisson")
        return result({"rate": ybar})

    if family == "binomial":
        if ybar == 0:
            raise DomainError("all-zero totals cannot be fitted by binomial")
        # the MLE in size is finite only when the biased variance is below
        # the mean (Olkin, Petkau & Zidek 1981)
        if float(totals.var()) >= ybar:
            raise DomainError("totals show no underdispersion; the binomial "
                              "profile has no finite maximum in size")
        # the profile is unimodal in size (DeRiggi 1983): the MLE is the
        # first size from the largest total whose step does not rise,
        # bracketed by doubling, then found by bisection
        profile = _Profiles.of_columns(totals[:, None])
        lo = hi = int(totals.max())
        while _binomial_profile_step(hi, profile, n, ybar) > 0:
            lo, hi = hi, 2 * hi
            if hi > 2 ** 53:
                raise DomainError("totals are too close to Poisson for the "
                                  "binomial size to be resolved")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _binomial_profile_step(mid, profile, n, ybar) > 0:
                lo = mid
            else:
                hi = mid
        return result({"size": hi, "prob": min(ybar / hi, 1.0 - 1e-12)})

    var = float(totals.var())
    if ybar == 0:
        raise DomainError("all-zero totals cannot be fitted by a negative "
                          "binomial")
    if var <= ybar:
        raise DomainError("totals show no overdispersion; the negative "
                          "binomial profile has no interior maximum")
    # the profile score falls through its one root when the totals are
    # overdispersed (Aragón, Eberly & Eberly 1992): bracketed from the
    # moment start, then bisected in log alpha down to adjacent floats
    profile = _Profiles.of_columns(totals[:, None])
    scores = []

    def rising(alpha):
        scores.append(_nb_profile_score(alpha, profile, n, ybar))
        return scores[-1] > 0

    near = ybar ** 2 / max(var - ybar, 1e-8)
    up = rising(near)
    factor = 2.0 if up else 0.5
    while rising(far := near * factor) == up:
        near = far
        if not 0.0 < near * factor < math.inf:
            raise DomainError("totals are too close to Poisson for the "
                              "negative binomial alpha to be resolved")
    lo, hi = sorted((near, far))
    while math.nextafter(lo, hi) < hi:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            mid = lo + (hi - lo) / 2
        lo, hi = (mid, hi) if rising(mid) else (lo, mid)
    if not ybar / (lo + ybar) < 1.0:
        raise DomainError(f"the negative binomial's p rounds to 1 at alpha "
                          f"{lo:.6g} and mean {ybar:.6g}")
    return result({"alpha": lo, "p": ybar / (lo + ybar)}, len(scores))


# ---------------------------------------------------------------------
# Node fits


class _DmAggregates:
    """Sufficient statistics of one node's data: the input of the node
    fits.

    They are the count profiles (:class:`_Profiles`) of the node's
    children, ``cols`` (one row each), and of its row totals, ``total``.
    All likelihood quantities reduce to sums over u of S(u)/(theta+u)
    and S(u)*log(theta+u), which are exact (row-order independent) and
    cost one pass over the profiles instead of O(rows) per evaluation.
    So do the moments of the start, from the profiles' sums and sums of
    squares, and ``log_coef``, the log of the rows' multinomial
    coefficients: the totals' log-factorial sum less the children's.

    Rows whose total is 0 change none of them, so the leaf-subset store
    keeps one profile per leaf subset, O(h + distinct values) each, and
    builds every node from them (:meth:`_FitCache._aggregates`; a count
    matrix's through :meth:`from_matrix`).  ``free`` marks the columns
    with counts, ``start`` is the moment start (None for a node without
    counts) and ``shape`` is the node matrix's shape.

    The moment start takes the pooled proportions pi_j = N1_j / N1 and
    the precision A whose DM(A pi) expects the cells' summed squares,
    given the totals:

        sum_j Q_j = (1-R) (N2 + A N1) / (1+A) + R N2,

    with R = sum_j pi_j^2, N1_j and Q_j the sum and summed squares of
    column j, and N1 and N2 those of the totals.  A is clipped to
    [0.1, 1e6] (1e6 when the cells show no overdispersion), and
    theta_j = A max(pi_j, 1e-3).
    """

    def __init__(self, entries: Sequence[_Profiles], total: _Profiles,
                 rows: int):
        """``entries`` holds each child's one-row profile and ``total``
        that of the row totals, all over the same ``rows`` rows."""
        self.entries, self.total = list(entries), total
        k = len(self.entries)
        sums = np.array([e.sums[0] for e in self.entries])
        self.log_coef = float(total.log_fact[0]) - float(
            sum(e.log_fact[0] for e in self.entries))
        self.free = sums > 0
        self.shape = (rows, k)
        self.start = None
        n1 = float(total.sums[0])
        if n1 > 0:
            n2 = float(total.squares[0])
            squares = float(sum(e.squares[0] for e in self.entries))
            pi = sums / n1
            r = float(pi @ pi)
            # the moment equation solved for A: A * excess = cross, where
            # cross is the cross products' sum and excess the cells'
            # second factorial moment past the multinomial's
            cross, excess = n2 - squares, squares - n1 - r * (n2 - n1)
            precision = float(np.clip(cross / excess, 0.1, 1e6)) \
                if excess > 0 else 1e6
            self.start = np.maximum(pi, 1e-3) * precision
            self.start[~self.free] = THETA_FLOOR

    @classmethod
    def from_matrix(cls, data: np.ndarray) -> "_DmAggregates":
        """The leaf-subset store's, over a checked count matrix's columns."""
        return _FitCache(data)._aggregates(
            [(j,) for j in range(1, data.shape[1] + 1)])

    @classmethod
    def of(cls, data) -> "_DmAggregates":
        """``data`` itself if prebuilt, else those of a count matrix."""
        return data if isinstance(data, cls) \
            else cls.from_matrix(_count_table(data))

    @cached_property
    def cols(self) -> _Profiles:
        """The children's profiles as one packed set."""
        return _Profiles.concat(self.entries)

    def column_terms(self, theta: np.ndarray) -> np.ndarray:
        """sum_u S_j(u) log(theta_j + u) for each child j."""
        return self.cols.kernel_sums(np.asarray(theta, dtype=float))[0]

    def total_term(self, theta_sum: float) -> float:
        """sum_u S_tot(u) log(theta_sum + u)."""
        return float(self.total.kernel_sums(np.array([theta_sum]))[0, 0])

    def log_lik(self, theta: np.ndarray) -> float:
        return self.log_coef - self.total_term(theta.sum()) \
            + float(self.column_terms(theta).sum())


def fit_node_multinomial(data) -> FitResult:
    """Column proportions.  ``data`` is the node's count matrix (rows x
    children) or its prebuilt :class:`_DmAggregates`: the column sums are
    the profiles' sums, and the multinomial coefficients are
    ``log_coef``.  A node without counts has log-likelihood 0 under every
    split; it gets uniform proportions and ``empty`` set."""
    agg = _DmAggregates.of(data)
    k = agg.shape[1]
    colsum = np.array([e.sums[0] for e in agg.entries])
    grand = colsum.sum()
    if grand <= 0:
        return FitResult("multinomial", {"pi": np.full(k, 1.0 / k)}, 0.0,
                         k - 1, empty=True)
    pi = colsum / grand
    with np.errstate(divide="ignore"):
        log_pi = np.where(pi > 0, np.log(np.maximum(pi, 1e-300)), 0.0)
    ll = agg.log_coef + float(colsum @ log_pi)
    return FitResult("multinomial", {"pi": pi}, ll, k - 1)


def _fit_dm_nodes(aggs: Sequence[_DmAggregates]) -> List[Optional[FitResult]]:
    """The DM fit of each node with counts, None for one whose maximum is
    not reached within ``NEWTON_MAX_ITER`` iterations: the nodes with the
    same number of free children are the problems of one
    :func:`_lockstep_max` call, whose every problem is solved as if
    alone, so each fit is bit for bit the node's fit by itself."""
    fits: List[Optional[FitResult]] = [None] * len(aggs)
    groups: Dict[int, List[int]] = {}
    for i, agg in enumerate(aggs):
        groups.setdefault(int(agg.free.sum()), []).append(i)
    for members in groups.values():
        nodes = [aggs[i] for i in members]
        best, x, steps, done, _ = _lockstep_max(
            _Profiles.concat([row for agg in nodes for row in chain(
                (e for e, free in zip(agg.entries, agg.free) if free),
                (agg.total,))]),
            [agg.start[~agg.free].sum() for agg in nodes],
            np.array([agg.start[agg.free] for agg in nodes]))
        for p, (i, agg) in enumerate(zip(members, nodes)):
            if not done[p]:
                continue
            theta = agg.start.copy()
            theta[agg.free] = x[p]
            diverged = bool(theta.sum() > DIVERGENCE_THETA)
            fits[i] = FitResult("dm", {"theta": theta},
                                agg.log_coef + float(best[p]),
                                agg.shape[1], converged=not diverged,
                                iterations=int(steps[p]),
                                divergence_flag=diverged)
    return fits


def fit_node_dm(data) -> FitResult:
    """MLE of the Dirichlet-multinomial weight vector.

    ``data`` is the node's count matrix (rows x children), or its
    prebuilt :class:`_DmAggregates`, which is what the structure search
    passes.  The weights of the children with counts are the one problem
    of :func:`_lockstep_max`, a damped Newton iteration in log weights
    from the moment start that stops once half the Newton decrement is
    below ``NEWTON_TOL`` (log-likelihood units); the other children keep
    the floor weight.  ``iterations`` counts the Newton iterations.  A
    fit whose weight sum passes the divergence threshold while the
    likelihood still rises along the weights' scale (towards the
    multinomial boundary at infinity) stops there and sets
    ``divergence_flag`` instead of failing; a maximum that is not reached
    within ``NEWTON_MAX_ITER`` iterations raises ConvergenceError.
    """
    agg = _DmAggregates.of(data)
    if agg.start is None:
        raise UsageError("node has no counts to fit")
    fit = _fit_dm_nodes([agg])[0]
    if fit is None:
        raise ConvergenceError("Dirichlet-multinomial Newton did not "
                               f"converge in {NEWTON_MAX_ITER} iterations")
    return fit


def _dm_fit(data) -> Optional[FitResult]:
    """The DM fit, or None when it fails or diverges and the multinomial
    stands in."""
    try:
        fit = fit_node_dm(data)
    except (ConvergenceError, UsageError):
        return None
    return None if fit.divergence_flag else fit


def _choose(multi: FitResult, dm: Optional[FitResult]) -> FitResult:
    """The lower-AIC fit of a node with counts; the multinomial, flagged,
    when the DM fit failed (None) or diverged."""
    if dm is None or dm.divergence_flag:
        multi.divergence_flag = True
        return multi
    return dm if dm.aic < multi.aic else multi


def select_node_split(data) -> FitResult:
    """Lower-AIC choice between multinomial and Dirichlet-multinomial;
    the multinomial wins automatically, flagged, when the DM fit fails or
    diverges."""
    agg = _DmAggregates.of(data)
    multi = fit_node_multinomial(agg)
    if multi.empty:
        return multi
    return _choose(multi, _dm_fit(agg))


def _split_from_fit(fit: FitResult) -> SplitSpec:
    if fit.kind == "multinomial":
        pi = np.maximum(fit.params["pi"], 1e-12)
        return SplitSpec(0, tuple(pi / pi.sum()))
    return SplitSpec(1, tuple(np.maximum(fit.params["theta"], THETA_FLOOR)))


def fit_tree(tree: PartitionTree, counts: np.ndarray, family: str = "nb"):
    """Fit the whole model on a fixed tree.

    Returns ``(model, report)`` where the report lists the sum-law row
    and one row per internal node with its selected split kind, number
    of parameters, log-likelihood, AIC, and the fit's ``converged`` and
    ``iterations``; node rows also carry ``divergence`` and ``empty``
    (no counts reach the node: a uniform multinomial with log-likelihood
    0).  A row whose counts sum past int64 is a DomainError.
    """
    counts = _count_table(counts, tree)
    return _fit_nodes(tree, _FitCache(counts),
                      fit_sum_law(_row_totals(counts), family))


def _fit_nodes(tree: PartitionTree, cache: "_FitCache", law_fit: FitResult):
    """:func:`fit_tree`'s model and report, given its sum-law fit, with
    every node built from the leaf-subset store ``cache``, whose missing
    subsets are profiled together (:meth:`_FitCache._store_tree`), and
    every DM node fitted in one batch (:func:`_fit_dm_nodes`)."""
    cache._store_tree(tree)
    nodes = [cache._aggregates([tree.subset(c) for c in tree.children(nid)])
             for nid in tree.internal_ids]
    fits = [fit_node_multinomial(agg) for agg in nodes]
    counted = [i for i, fit in enumerate(fits) if not fit.empty]
    for i, dm in zip(counted, _fit_dm_nodes([nodes[i] for i in counted])):
        fits[i] = _choose(fits[i], dm)
    rows = [{"node": "total", "kind": law_fit.kind,
             "n_params": law_fit.n_params, "log_lik": law_fit.log_lik,
             "aic": law_fit.aic, "converged": law_fit.converged,
             "iterations": law_fit.iterations}]
    splits = {}
    total_aic = law_fit.aic
    total_params = law_fit.n_params
    for nid, fit in zip(tree.internal_ids, fits):
        splits[nid] = _split_from_fit(fit)
        rows.append({"node": _subset_label(tree.subset(nid)),
                     "kind": fit.kind, "n_params": fit.n_params,
                     "log_lik": fit.log_lik, "aic": fit.aic,
                     "divergence": fit.divergence_flag,
                     "converged": fit.converged,
                     "iterations": fit.iterations, "empty": fit.empty})
        total_aic += fit.aic
        total_params += fit.n_params
    model = TreePolyaModel(tree, splits,
                           SUM_LAWS[law_fit.kind](**law_fit.params))
    report = {"rows": rows, "total_aic": total_aic,
              "total_params": total_params}
    return model, report


# ---------------------------------------------------------------------
# Greedy structure search


class _FitCache:
    """The leaf-subset store, through which every node fit sees the
    counts, and the search's DM fits keyed by the (unordered) composition
    of child subsets.  A fit entry holds the AIC and the fitted weights
    in sorted child order, or ``None`` for the weights when the DM fit
    failed or diverged and the multinomial stands in.  A node is fitted
    once, from its moment start, so its entry depends on the node alone.

    A node's :class:`_DmAggregates` (:meth:`_aggregates`) come from one
    entry per leaf subset: the count profile of its subsums, its head in
    the smallest integer type that holds the row count.  A node reads
    its children's entries as columns and its leaf set's as row totals,
    so a node over subsets seen before costs no pass over the rows.  An
    entry is O(h + distinct subsums), h its head length (at most
    ``H_MIN`` + ``TAIL_FIXED`` + ``TAIL_COST`` times the distinct
    subsums), and never sized by the largest count."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.cache: Dict[frozenset, Tuple[float, Optional[np.ndarray]]] = {}
        self.subsets: Dict[tuple, _Profiles] = {}
        self._checked = not _may_wrap(counts)

    def _subsums(self, leaves: Sequence[int]) -> np.ndarray:
        """The row sums over ``leaves``; a DomainError where one is past
        int64."""
        return _row_totals(self.counts[:, np.subtract(leaves, 1)],
                           self._checked)

    def _store(self, new: Sequence[Tuple[int, ...]],
               subsums: Sequence[np.ndarray]) -> None:
        """Profile the subsets ``new``, whose subsums are ``subsums``, in
        one pass, into the store."""
        built = _Profiles.of_columns(np.column_stack(subsums))
        small = np.min_scalar_type(self.counts.shape[0])
        for leaves, entry in zip(new, built.split()):
            entry.head = entry.head.astype(small)
            self.subsets[leaves] = entry

    def _store_tree(self, tree: PartitionTree) -> None:
        """Profile the node subsets of ``tree`` not yet in the store, in
        passes of at most ``SCREEN_BLOCK`` subsums (one subset at least).
        A node's subsums are the row totals of its children's, a
        DomainError where one is past int64, so a node costs O(rows x
        children) where gathering its leaves' columns costs O(rows x
        leaves)."""
        if all(tree.subset(nid) in self.subsets for nid in range(len(tree))):
            return
        chunk = max(1, SCREEN_BLOCK // max(self.counts.shape[0], 1))
        new: List[Tuple[int, ...]] = []
        subsums: List[np.ndarray] = []
        # node ids are in preorder, so from the last one on, a node's
        # children come before it; ``below`` holds the subsums of the
        # nodes whose parent is not reached yet
        below: Dict[int, np.ndarray] = {}
        for nid in range(len(tree) - 1, -1, -1):
            children = tree.children(nid)
            below[nid] = _row_totals(np.column_stack(
                [below.pop(c) for c in children]), self._checked) \
                if children else self.counts[:, tree.subset(nid)[0] - 1]
            if tree.subset(nid) not in self.subsets:
                new.append(tree.subset(nid))
                subsums.append(below[nid])
            if new and (len(new) == chunk or nid == 0):
                self._store(new, subsums)
                new, subsums = [], []

    def _aggregates(self, order: Sequence[Tuple[int, ...]]) -> _DmAggregates:
        """The node over the child subsets ``order``; the subsets not yet
        in the store are profiled in one pass, on first use."""
        total = tuple(sorted(chain.from_iterable(order)))
        new = [s for s in dict.fromkeys([*order, total])
               if s not in self.subsets]
        if new:
            self._store(new, [self._subsums(leaves) for leaves in new])
        return _DmAggregates([self.subsets[c] for c in order],
                             self.subsets[total], self.counts.shape[0])

    def fit(self, children: Sequence[Tuple[int, ...]]
            ) -> Tuple[float, Optional[dict]]:
        """AIC and weights of the node over ``children``, fitted on a miss
        from its moment start."""
        key = frozenset(children)
        if key not in self.cache:
            agg = self._aggregates(sorted(children))
            fit = _dm_fit(agg)
            self.cache[key] = (fit_node_multinomial(agg).aic, None) \
                if fit is None else (fit.aic, fit.params["theta"])
        aic, theta = self.cache[key]
        return aic, None if theta is None else dict(zip(sorted(key), theta))


def _leaves_under(child) -> Tuple[int, ...]:
    if isinstance(child, int):
        return (child,)
    return tuple(sorted(j for sub in child for j in _leaves_under(sub)))


def _search_node(children: list, cache: _FitCache, trace: list) -> None:
    """Greedy node creation among one node's children, in place, then
    in every node it creates, depth first in order of creation, from a
    worklist rather than by recursion."""
    work = [children]
    while work:
        work.extend(reversed(_grow_node(work.pop(), cache, trace)))


def _evaluate(rows: _Profiles, fixed: np.ndarray, x: np.ndarray,
              tot: Optional[_Profiles] = None) -> Tuple[np.ndarray, ...]:
    """:func:`_lockstep_max`'s f at x, and the sums its derivatives take
    there, for P problems of k free weights: ``rows`` holds, problem
    after problem, the profiles of the k free children and then of the
    totals, or of the children only when ``tot`` is one totals profile
    that every problem shares.  The sums are a1 and a2 of T(u) / (fixed
    + sum_j x_j + u) and of its square over u, and b1 and b2 of S_j(u) /
    (x_j + u) and of its square, so that the gradient is b1 - a1 and the
    Hessian a2 - diag(b2).  Every sum is a problem's own, so a problem's
    values do not depend on the others in the batch."""
    count, k = x.shape
    if tot is None:
        shifts = np.empty((count, k + 1))
        shifts[:, :k] = x
        shifts[:, k] = fixed + x.sum(axis=1)
        logs, r1, r2 = rows.kernel_sums(shifts.ravel()).reshape(
            3, count, k + 1)
        return (logs[:, :k].sum(axis=1) - logs[:, k], r1[:, k], r2[:, k],
                r1[:, :k], r2[:, :k])
    logs, b1, b2 = rows.kernel_sums(x.ravel()).reshape(3, count, k)
    tot_log, a1, a2 = tot.kernel_sums(fixed + x.sum(axis=1))
    return logs.sum(axis=1) - tot_log, a1, a2, b1, b2


def _newton_step(x: np.ndarray, grad: np.ndarray, d: np.ndarray,
                 a2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's Newton step -H^-1 grad for H = diag(d) + a2 x x^T, by
    Sherman-Morrison, and a mask of the rows where H is negative
    definite.  A coordinate with grad 0 and d = -inf is frozen: its step
    is 0 and the others' is as if its row and column were not in H."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_g, inv_x = grad / d, x / d
        denom = 1.0 + a2 * (x * inv_x).sum(axis=1)
        step = -(inv_g - inv_x * (
            a2 * (x * inv_g).sum(axis=1) / denom)[:, None])
    return step, (d < 0).all(axis=1) & (denom > 0)


def _lockstep_max(rows: _Profiles, fixed, x0: np.ndarray,
                  tot: Optional[_Profiles] = None) -> Tuple[np.ndarray, ...]:
    """For every problem i at once, the maximum over x > 0 of

        f_i(x) = sum_j sum_u S_ij(u) log(x_j + u)
                 - sum_u T_i(u) log(fixed_i + sum_j x_j + u),

    the DM log-likelihood in the weights x of a node's free children, up
    to terms without them; ``rows`` holds, problem after problem, the
    count profiles S_i1, ..., S_ik and T_i, or S_i1, ..., S_ik only when
    ``tot`` is the one T of every problem (:func:`_evaluate`).  Damped
    Newton in log x from ``x0``: each step is halved until it raises f.
    A problem stops once half its Newton decrement is below
    ``NEWTON_TOL``, once no step raises f, or once its weight sum
    fixed_i + sum_j x_j is past ``DIVERGENCE_THETA`` while f still rises
    along the scale of x (sum_j of the gradient in log x is positive):
    it is then on its way to the multinomial limit, which its caller
    flags.  A step that overshoots a finite maximiser past the threshold
    meets a falling f along the scale, and comes back.  Returns the
    maxima, their arguments, each problem's number of iterations, a mask
    of the problems that stopped within ``NEWTON_MAX_ITER`` iterations,
    and the derivative sums (a1, a2, b1, b2) of :func:`_evaluate` at the
    arguments.

    Every trial point costs one :func:`_evaluate`, whose sums at the
    accepted trial are the next iteration's derivatives.  The active
    problems' profiles and state are kept compacted, and taken anew only
    in an iteration where some problem stops.  Every operation acts on
    each problem alone, so each problem's path is the one it takes by
    itself.
    """
    x = np.array(x0, dtype=float)
    count, k = x.shape
    fixed = np.broadcast_to(np.asarray(fixed, dtype=float), (count,))
    steps = np.full(count, NEWTON_MAX_ITER)
    done = np.zeros(count, dtype=bool)

    width = k if tot is not None else k + 1  # rows per problem

    def take(rows, picked):
        """The profiles of the problems at positions ``picked``."""
        return rows.take((picked[:, None] * width
                          + np.arange(width)).ravel())

    # x, f and the derivative sums at x: ``state`` over the active
    # problems, ``final`` over all, filled in as each problem stops
    active = np.arange(count)
    state = (x, *_evaluate(rows, fixed, x, tot))
    final = [np.empty_like(part) for part in state]

    def retire(leaving, iteration):
        """Record the problems under mask ``leaving`` as stopped at
        ``iteration``; return the active set's arrays without them."""
        idx = active[leaving]
        for whole, part in zip(final, state):
            whole[idx] = part[leaving]
        steps[idx], done[idx] = iteration, True
        keep = ~leaving
        return (active[keep], take(rows, np.flatnonzero(keep))
                if keep.any() else rows, fixed[keep],
                tuple(part[keep] for part in state))

    for iteration in range(1, NEWTON_MAX_ITER + 1):
        xa, _, a1, a2, b1, b2 = state
        # gradient and Hessian in log x: H = diag(d) + a2 * x x^T
        grad = xa * (b1 - a1[:, None])
        d = grad - xa * xa * b2
        step, concave = _newton_step(xa, grad, d, a2)
        if not concave.all():
            # where H is not negative definite, the Newton step on -|H|
            # (each eigenvalue's sign made negative) ascends; a flat
            # direction's long step is cut by the cap below
            bent = ~concave
            xb = xa[bent]
            w, v = np.linalg.eigh(d[bent][:, :, None] * np.eye(xb.shape[1])
                                  + a2[bent, None, None] * xb[:, :, None]
                                  * xb[:, None, :])
            coef = (v * grad[bent][:, :, None]).sum(axis=1)
            step[bent] = (v * (coef / np.maximum(np.abs(w), 1e-12))[:, None, :]
                          ).sum(axis=2)
        stop = (concave & ((grad * step).sum(axis=1) < 2.0 * NEWTON_TOL)) | (
            (fixed + xa.sum(axis=1) > DIVERGENCE_THETA)
            & (grad.sum(axis=1) > 0))
        if stop.any():
            active, rows, fixed, state = retire(stop, iteration)
            step = step[~stop]
        if active.size == 0:
            break
        step *= np.minimum(1.0, 4.0 / np.abs(step).max(axis=1,
                                                       initial=1.0))[:, None]
        log_x, scale, trying = np.log(state[0]), 1.0, None
        # the full step is tried on every active problem at once, then
        # halved on those it did not raise (``trying``, whose profiles
        # are ``trial_rows``)
        trial_rows = rows
        for _ in range(50):
            if trying is None:
                trial = np.exp(log_x + scale * step)
                new = (trial, *_evaluate(rows, fixed, trial, tot))
                up = new[1] > state[1]
                if up.all():
                    break
                trying = np.arange(active.size)
            else:
                trial = np.exp(log_x[trying] + scale * step[trying])
                new = (trial, *_evaluate(trial_rows, fixed[trying], trial,
                                         tot))
                up = new[1] > state[1][trying]
            for kept, fresh in zip(state, new):
                kept[trying[up]] = fresh[up]
            if up.all():
                trying = trying[:0]
                break
            if up.any():
                trial_rows = take(trial_rows, np.flatnonzero(~up))
            trying = trying[~up]
            scale *= 0.5
        if trying is None:
            state = new
        elif trying.size:
            # no step raises f: the problem is at its maximum to rounding
            failed = np.zeros(active.size, dtype=bool)
            failed[trying] = True
            active, rows, fixed, state = retire(failed, iteration)
    for whole, part in zip(final, state):
        whole[active] = part
    x, best, *sums = final
    return best, x, steps, done, sums


def _refit_gain(sums: Tuple[np.ndarray, ...], x: np.ndarray,
                kept_b1: np.ndarray, kept_b2: np.ndarray,
                kept_theta: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Half the Newton decrement g^T (-H)^-1 g = grad . step in log
    weights of a DM node: the gain that refitting its kept weights too
    predicts, with the free ones at :func:`_lockstep_max`'s maximum x
    (``sums`` its derivative sums there), the kept ones (mask ``kept``)
    at ``kept_theta`` with sums ``kept_b1`` and ``kept_b2``, and the
    others frozen.  NaN where the Hessian is not negative definite."""
    a1, a2, b1, b2 = sums
    theta = np.concatenate([x, np.broadcast_to(kept_theta, kept.shape)],
                           axis=1)
    grad = theta * (np.concatenate(
        [b1, np.broadcast_to(kept_b1, kept.shape)], axis=1) - a1[:, None])
    d = grad - theta * theta * np.concatenate(
        [b2, np.broadcast_to(kept_b2, kept.shape)], axis=1)
    grad[:, x.shape[1]:][~kept], d[:, x.shape[1]:][~kept] = 0.0, -np.inf
    step, concave = _newton_step(theta, grad, d, a2)
    return np.where(concave, (grad * step).sum(axis=1) / 2.0, np.nan)


def _screen_scores(cache: "_FitCache", moves: list, outer: list,
                   outer_w: Optional[dict], grown: list,
                   inner: list, inner_w: Optional[dict], *,
                   sizes: Optional[list] = None) -> np.ndarray:
    """Each move's screen score, NaN for a move that cannot be screened.
    A move is positions in ``outer``, the outer node's child subsets.

    The score predicts the move's ΔAIC without a fit of the wide outer
    node.  In the outer node only the merged child's weight m is
    refitted, the other weights staying at the outer fit, and the gain
    that one Newton step in the logs of all of them would add from there
    is added (:func:`_refit_gain`); the grown node, whose children are
    few, has all its weights refitted.  By the DM aggregation property
    the outer node at the merged start, plus a node splitting the merged
    child into its parts, has the outer fit's log-likelihood exactly.
    So with parts P (the moved leaves and, in a transfer round, G),
    merged child M, outer total T, outer weights theta (sum Theta) and
    the grown node's weights w (sum W), the log-likelihood gain is

        f_outer(m) + f_grown(x) + sum_u S_T(u) log(Theta + u)
        - sum_{p in P} sum_u S_p(u) log(theta_p + u)
        + sum_u S_G(u) log(W + u) - sum_{j in G} sum_u S_j(u) log(w_j + u),

    f as in :func:`_lockstep_max`, and the last line only in a transfer
    round, whose grown node G has the children ``inner``.  It needs the
    :class:`_DmAggregates` of the outer node and G (their weights
    ``outer_w`` and ``inner_w``) and the count profiles of M only.
    Moves whose base has no DM fit, or that move a leaf without counts,
    get no score, nor do those whose maxima do not converge or whose
    outer node is not concave at its maximum.

    The screenable moves are solved in blocks, two :func:`_lockstep_max`
    calls each.  A block takes moves while each call holds at most
    ``SCREEN_BLOCK`` profile entries (head entries plus tail pairs): the
    outer call a move's merged child and the outer total, the grown call
    its moved leaves, G's free children and the merged child; it takes
    one move at least.  Every problem is solved as if alone, so no score
    depends on the cut.  ``sizes``, if given, gets each block's number
    of moves appended.
    """
    scores = np.full(len(moves), np.nan)
    if not moves or outer_w is None or (grown and inner_w is None):
        return scores
    node = cache._aggregates(outer)
    theta = np.array([outer_w[c] for c in outer])
    theta_sum = sum(outer_w.values())
    const = node.total_term(theta_sum)
    # terms, b1 and b2 of the outer children at the fit (b 0 without
    # counts)
    terms, b1, b2 = node.cols.kernel_sums(theta)
    moves = parts = np.array(moves)  # parts: the moved leaves, then G
    fixed, grown_sums = 0.0, 0
    pool = node.cols  # the grown nodes' children: outer's, then G's
    inner_theta = np.empty(0)
    if grown:
        inner_node = cache._aggregates(inner)
        inner_theta = np.array([inner_w[c] for c in inner])
        fixed = float(inner_theta[~inner_node.free].sum())
        const += inner_node.total_term(sum(inner_w.values())) - float(
            inner_node.column_terms(inner_theta).sum())
        inner_theta = inner_theta[inner_node.free]
        pool = _Profiles.concat([pool, inner_node.cols.take(
            np.flatnonzero(inner_node.free))])
        parts = np.column_stack(
            [moves, np.full(len(moves), outer.index(grown[0]))])
        grown_sums = cache._subsums(grown[0])
    # the likelihood terms that a move takes out of the outer node
    const -= terms[parts].sum(axis=1)
    screenable = np.flatnonzero(node.free[moves].all(axis=1))
    column = np.array([c[0] for c in outer]) - 1  # a leaf child's column
    free = moves.shape[1] + inner_theta.size
    pooled = len(outer) + inner_theta.size
    # the entries (head plus tail pairs) that a screenable move's two
    # lockstep calls hold besides its merged child's: the outer total,
    # evaluated once per move, and the grown node's free children
    lengths = pool.h + pool.tails
    outer_held = int(node.total.h[0] + node.total.tails[0])
    grown_held = lengths[moves[screenable]].sum(axis=1) \
        + lengths[len(outer):].sum()
    # the merged subsums, a rows x moves matrix, are profiled a chunk of
    # moves at a time (a column's profile is the same in any chunk), and
    # a block takes moves, across chunks, while each call holds at most
    # SCREEN_BLOCK entries
    chunk = max(1, SCREEN_BLOCK // (free * cache.counts.shape[0]))
    held: List[_Profiles] = []  # the merged of screenable[first:profiled]
    first = profiled = 0
    while first < screenable.size:
        size = np.concatenate([p.h + p.tails for p in held]) if held \
            else np.empty(0, dtype=np.int64)
        count = int(np.searchsorted(np.maximum(
            np.cumsum(size + outer_held),
            np.cumsum(size + grown_held[first:profiled])), SCREEN_BLOCK,
            "right"))
        if count == size.size and profiled < screenable.size:
            some = moves[screenable[profiled:profiled + chunk]]
            held.append(_Profiles.of_columns(
                cache.counts[:, column[some]].sum(axis=2)
                + np.reshape(grown_sums, (-1, 1))))
            profiled += some.shape[0]
            continue
        merged = held[0] if len(held) == 1 else _Profiles.concat(held)
        count, held = max(1, count), []
        if count < merged.count:
            held = [merged.take(np.arange(count, merged.count))]
            merged = merged.take(np.arange(count))
        idx = screenable[first:first + count]
        first += count
        if sizes is not None:
            sizes.append(count)
        moved, merging = moves[idx], parts[idx]
        at = np.arange(idx.size)
        # the outer node: the merged child's weight free
        parts_w = theta[merging].sum(axis=1)
        outer_max, outer_x, _, outer_ok, outer_sums = _lockstep_max(
            merged, theta_sum - parts_w, parts_w[:, None], node.total)
        kept = np.repeat((b2 > 0)[None], idx.size, axis=0)
        kept[at[:, None], merging] = False
        refit = _refit_gain(outer_sums, outer_x, b1, b2, theta, kept)
        # the grown node: the weights of the moved leaves and of G's
        # children with counts free (the others' is ``fixed``)
        grown_max, _, _, grown_ok, _ = _lockstep_max(
            _Profiles.concat([pool, merged]).take(np.column_stack(
                [moved, np.broadcast_to(np.arange(len(outer), pooled),
                                        (idx.size, inner_theta.size)),
                 pooled + at]).ravel()),
            fixed, np.concatenate([theta[moved], np.broadcast_to(
                inner_theta, (idx.size, inner_theta.size))], axis=1))
        gain = outer_max + refit + grown_max + const[idx]
        scores[idx] = np.where(outer_ok & grown_ok,
                               2.0 * (1 - len(grown)) - 2.0 * gain, np.nan)
    return scores


def _grow_node(children: list, cache: _FitCache, trace: list) -> list:
    """Greedy node creation among one node's children, in place; returns
    the created nodes in order of creation.

    ``children`` holds int leaf labels and nested child lists.  A move
    takes leaf children into the grown node.  A create round scores
    every pair of leaf children as a new node; once one is created,
    transfer rounds score every single leaf child as one more member of
    it.  Each round makes the move that lowers the summed node AIC the
    most, the first in enumeration order on a tie; when none does, a
    transfer round gives way to a create round and a create round ends
    the search of this node.  Accepted moves are appended to ``trace``;
    one past ``MAX_MOVES`` raises ``ConvergenceError``.

    A round screens its moves before fitting any (:func:`_screen_scores`)
    and then fully fits them in order of their screen score, until the
    next score exceeds the best ΔAIC so far (or -``AIC_EPSILON``, if
    lower) by more than the margin ``max(SCREEN_MARGIN, SCREEN_SHARE *
    |that ΔAIC|)``, or by more than the largest miss |score - ΔAIC| of
    the round's fitted moves, if that is larger.  Moves without a score
    are always fitted.

    Every node is fitted from its moment start (:meth:`_FitCache.fit`),
    so each fit is the one an exhaustive loop makes, whichever round
    makes it.
    """
    label = _subset_label(_leaves_under(children))
    created: list = []
    node = None  # the grown node; None in a create round
    while len(children) >= 3:
        leaves = [idx for idx, ch in enumerate(children)
                  if isinstance(ch, int)]
        outer = [_leaves_under(ch) for ch in children]
        base, outer_w = cache.fit(outer)
        # in a transfer round: the grown node's subset (a part of every
        # move) and its children's subsets
        grown, inner, inner_w = [], [], None
        if node is not None:
            grown = [_leaves_under(node)]
            inner = [_leaves_under(ch) for ch in node]
            inner_aic, inner_w = cache.fit(inner)
            base += inner_aic
        moves = list(combinations(leaves, 2)) if node is None \
            else [(pos,) for pos in leaves]
        blocks: list = []
        scores = _screen_scores(cache, moves, outer, outer_w, grown, inner,
                                inner_w, sizes=blocks)
        best = None
        order = np.argsort(scores, kind="stable")  # NaN last
        unscored = np.flatnonzero(np.isnan(scores))
        fitted, miss = 0, 0.0
        for i in chain(unscored, order[:order.size - unscored.size]):
            if best is not None and not np.isnan(scores[i]):
                bar = min(best[0], -AIC_EPSILON)
                if scores[i] > bar + max(SCREEN_MARGIN, miss,
                                         SCREEN_SHARE * abs(bar)):
                    break
            moved = [outer[pos] for pos in moves[i]]
            parts = moved + grown
            rest = [s for s in outer if s not in parts] + [
                tuple(sorted(chain.from_iterable(parts)))]
            delta = cache.fit(rest)[0] + cache.fit(inner + moved)[0] - base
            fitted += 1
            if not np.isnan(scores[i]):
                miss = max(miss, abs(scores[i] - delta))
            if best is None or (delta, i) < best:
                best = (delta, i)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("search round at %s, %s: %d moves scored, %d fully "
                       "fitted, %d unscreenable, %d screen blocks, best "
                       "ΔAIC %s", label,
                       "create" if node is None else "transfer",
                       len(moves) - unscored.size, fitted, unscored.size,
                       len(blocks), None if best is None else best[0])
        if best is None or best[0] >= -AIC_EPSILON:
            if node is None:
                break
            node = None
            continue
        delta, move = best[0], moves[best[1]]
        kind = "create" if node is None else "transfer"
        if node is None:
            node = []
            children.append(node)
            created.append(node)
        node.extend(children[pos] for pos in move)
        for pos in reversed(move):
            del children[pos]
        trace.append({"move": kind, "parent": label,
                      "node": list(_leaves_under(node)), "delta_aic": delta})
        if len(trace) > MAX_MOVES:
            raise ConvergenceError("structure search exceeded the move budget")
    return created


def search_tree(counts: np.ndarray, family: str = "nb"):
    """Greedy AIC-driven tree search starting from the flat partition.

    Returns ``(model, report, trace)``: the fitted model on the selected
    tree, its per-node fit report as from :func:`fit_tree` (whose node
    fits also serve as the final multinomial-versus-Dirichlet-multinomial
    pass), and the list of accepted structure moves in order.  The sum
    law is fitted first, so totals that ``family`` cannot fit, or that
    are past int64, fail before the search.
    """
    counts = _count_table(counts)
    if counts.shape[1] < 2:
        raise UsageError("counts must be a matrix with at least 2 columns")
    law_fit = fit_sum_law(_row_totals(counts), family)
    trace: list = []
    children: list = list(range(1, counts.shape[1] + 1))
    cache = _FitCache(counts)
    _search_node(children, cache, trace)
    model, report = _fit_nodes(PartitionTree.from_nested(children), cache,
                               law_fit)
    return model, report, trace
