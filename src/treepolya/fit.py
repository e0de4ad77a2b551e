"""Node-wise maximum likelihood and greedy AIC structure search.

The joint log-likelihood decomposes into the sum-law term plus one term
per internal node, so every node is fitted independently on its child
subsums and the model AIC is the straight sum of per-node AICs.  Node
log-likelihoods here include the multinomial coefficients, i.e. they are
full conditional log-probabilities, which makes the AIC of the assembled
model identical to 2k minus twice the joint log-likelihood.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaln

from .exceptions import ConvergenceError, DomainError, UsageError
from .model import TreePolyaModel
from .polya import SUM_LAWS, SplitSpec, sumlaw_log_pmf_many
from .tree import PartitionTree, _subset_label

__all__ = [
    "FitResult", "node_data",
    "fit_sum_law", "fit_node_multinomial", "fit_node_dm",
    "select_node_split", "fit_tree", "search_tree",
]

_log = logging.getLogger(__name__)

DIVERGENCE_THETA = 1e8
THETA_FLOOR = 1e-10
NB_TOL = 1e-10
NB_MAX_ITER = 200
# the DM Newton iteration (:func:`_lockstep_max`): its stop on half the
# Newton decrement, in log-likelihood units, and its iteration budget
NEWTON_TOL = 1e-7
NEWTON_MAX_ITER = 50
AIC_EPSILON = 1e-6  # the least AIC drop that a search move must make
MAX_MOVES = 10_000  # the search's move budget
# the search's move screen: the entries of one stacked array, and the
# stop rule's margin in AIC units, max(SCREEN_MARGIN, SCREEN_SHARE *
# |best ΔAIC|)
SCREEN_BLOCK = 1 << 16
SCREEN_MARGIN = 2.0
SCREEN_SHARE = 0.1


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


def _count_matrix(data) -> np.ndarray:
    """``data`` as an int64 array: the count check of the fit layer's entry
    points.  Integral-valued floats pass; a string, bytes, boolean or
    complex entry (numpy reads each as a number, or casts it to one) and
    a non-finite, non-integral, negative or int64-overflowing entry are
    UsageErrors."""
    try:
        # a list can hide a boolean among ints, which numpy casts to int
        cells = data if isinstance(data, np.ndarray) \
            else np.asarray(data, dtype=object)
        data = np.asarray(data)
        words = data.dtype.kind in "bcSU" or (cells.dtype.kind == "O" and any(
            isinstance(v, (bool, np.bool_, str, bytes)) for v in cells.flat))
        if data.dtype.kind not in "iu" and not words:
            data = np.asarray(data, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        raise UsageError("counts must be finite numbers") from None
    if words:
        raise UsageError("counts must be numbers")
    if data.dtype.kind == "f":
        if not np.all(np.isfinite(data)):
            raise UsageError("counts must be finite numbers")
        if np.any(data != np.floor(data)):
            raise UsageError("counts must be integers")
    if np.any(data < 0):
        raise UsageError("counts must be nonnegative")
    if np.any(data >= 2 ** 63):
        raise UsageError("counts must be below 2**63, the int64 range")
    return data.astype(np.int64, copy=False)


def _count_table(data) -> np.ndarray:
    """A count matrix (rows x columns) that passes :func:`_count_matrix`."""
    data = _count_matrix(data)
    if data.ndim != 2:
        raise UsageError("counts must be a matrix")
    return data


def node_data(tree: PartitionTree, counts: np.ndarray, node: int) -> np.ndarray:
    """Child-subsum matrix (n_sites x J_A) for one internal node."""
    if tree.is_leaf(node):
        raise UsageError("node data is defined for internal nodes only")
    children = tree.incidence[list(tree.children(node))]
    return (counts @ children.T).astype(counts.dtype)


# ---------------------------------------------------------------------
# Sum-law fits


def _survival_counts(hist: np.ndarray, n: int) -> np.ndarray:
    """S(u) = #{i : values_i > u} for u = 0..max-1, from the histogram
    of n count values.

    Aggregating rows this way makes every downstream digamma-style sum
    exact regardless of row order: sum_i [psi(x + v_i) - psi(x)] =
    sum_u S(u) / (x + u).  Zeros only add to the histogram's first bin.
    """
    return (n - np.cumsum(hist))[:-1].astype(float)


def _nb_profile_score(alpha: float, totals: np.ndarray,
                      surv: np.ndarray) -> Tuple[float, float]:
    """Profile score and its derivative in alpha (p concentrated out)."""
    n = totals.size
    ybar = totals.mean()
    u = np.arange(surv.size)
    score = float(surv @ (1.0 / (alpha + u))) \
        + n * (math.log(alpha) - math.log(alpha + ybar))
    dscore = -float(surv @ (1.0 / (alpha + u) ** 2)) \
        + n * (1.0 / alpha - 1.0 / (alpha + ybar))
    return score, dscore


def _binomial_profile_step(size: int, surv: np.ndarray, n: int,
                           ybar: float) -> float:
    """l(size + 1) - l(size) for the binomial log-likelihood of n totals
    profiled over prob = ybar / size, from their survival counts S(u):
    l(N) = sum_u S(u) log(N - u) + n ybar log(ybar / N)
    + n (N - ybar) log(1 - ybar / N), plus terms free of N."""
    def tail(m):  # (m - ybar) log(1 - ybar / m), 0 at m = ybar
        return (m - ybar) * math.log1p(-ybar / m) if m > ybar else 0.0

    u = np.arange(surv.size)
    return float(surv @ np.log1p(1.0 / (size - u))) + n * (
        tail(size + 1) - tail(size) - ybar * math.log1p(1.0 / size))


def fit_sum_law(totals, family: str) -> FitResult:
    """MLE of the grand-total law.

    The negative binomial uses Newton iteration on the profile score in
    alpha with a moment-based start; the other families are closed form.
    """
    try:
        law = SUM_LAWS[family]
    except (KeyError, TypeError):
        raise UsageError(f"unknown sum-law family {family!r}") from None
    totals = _count_matrix(totals)
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
        surv = _survival_counts(np.bincount(totals), n)
        lo = hi = int(totals.max())
        while _binomial_profile_step(hi, surv, n, ybar) > 0:
            lo, hi = hi, 2 * hi
            if hi > 2 ** 53:
                raise DomainError("totals are too close to Poisson for the "
                                  "binomial size to be resolved")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _binomial_profile_step(mid, surv, n, ybar) > 0:
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
    alpha = ybar ** 2 / max(var - ybar, 1e-8)
    surv = _survival_counts(np.bincount(totals), n)
    iterations = 0
    for iterations in range(1, NB_MAX_ITER + 1):
        score, dscore = _nb_profile_score(alpha, totals, surv)
        if abs(score) < NB_TOL * n:
            break
        step = score / dscore if dscore < 0 else -score
        new_alpha = alpha - step
        backtrack = 0
        while new_alpha <= 0 and backtrack < 60:
            step *= 0.5
            new_alpha = alpha - step
            backtrack += 1
        if abs(new_alpha - alpha) < 1e-14 * alpha:
            alpha = new_alpha
            break
        alpha = new_alpha
    else:
        raise ConvergenceError("negative binomial profile Newton did not "
                               f"converge in {NB_MAX_ITER} iterations")
    return result({"alpha": alpha, "p": ybar / (alpha + ybar)}, iterations)


# ---------------------------------------------------------------------
# Node fits


def _log_factorial_sum(hist: np.ndarray) -> float:
    """sum_i log(v_i!) over the values whose histogram is ``hist``."""
    return float(hist @ gammaln(np.arange(1.0, hist.size + 1)))


class _DmAggregates:
    """Sufficient statistics of one node's data: the input of the node
    fits.

    Row j of the K x U matrix ``surv`` holds S_j(u) = #{i : data_ij > u}
    for u = 0..U-1, zero past column j's maximum (U is the largest
    count).  All likelihood quantities reduce to sums over u of
    S(u)/(theta+u) and S(u)*log(theta+u), which are exact (row-order
    independent) and cost one array expression over the matrix instead
    of O(rows) per evaluation.  So do the moments of the start, since
    sum_u S(u) and sum_u (2u+1) S(u) are a column's sum and its sum of
    squares.

    Everything is built from survival rows, each child's and that of the
    row totals, and from the totals' log-factorial sum.  Rows whose total
    is 0 change none of them, so the search's cache keeps these per leaf
    subset and builds any node from them (:meth:`_FitCache._aggregates`);
    :meth:`from_matrix` builds them from a count matrix.  ``free`` marks
    the columns with counts, ``log_coef`` is the log of the rows'
    multinomial coefficients, ``start`` is the moment start (None for a
    node without counts) and ``shape`` is the node matrix's shape.

    The moment start takes the pooled proportions pi_j = sum_u S_j(u) / N1
    and the precision A whose DM(A pi) expects the cells' summed squares,
    given the totals:

        sum_j sum_u (2u+1) S_j(u) = (1-R) (N2 + A N1) / (1+A) + R N2,

    with R = sum_j pi_j^2, and N1 and N2 the sum and summed squares of the
    totals.  A is clipped to [0.1, 1e6] (1e6 when the cells show no
    overdispersion), and theta_j = A max(pi_j, 1e-3).
    """

    def __init__(self, survs: Sequence[np.ndarray],
                 totals: Tuple[np.ndarray, float], rows: int):
        """``survs`` holds each child's survival row and ``totals`` that
        of the row totals and their log-factorial sum, all over the same
        ``rows`` rows."""
        k = len(survs)
        self.surv = np.zeros((k, max((s.size for s in survs), default=0)))
        for j, col_surv in enumerate(survs):
            self.surv[j, :col_surv.size] = col_surv
        self.u = np.arange(self.surv.shape[1], dtype=float)
        tot_surv, log_fact_totals = totals
        self.tot_surv = tot_surv.astype(float)
        self.tot_u = np.arange(self.tot_surv.size)
        # the cells' count histogram from the survival counts: bin u
        # holds S(u-1) - S(u) summed over the columns, with S(-1) = rows
        cells = self.surv.sum(axis=0)
        hist = np.diff(-cells, prepend=-k * rows, append=0)
        self.log_coef = log_fact_totals - _log_factorial_sum(hist)
        self.free = np.array([s.size > 0 for s in survs], dtype=bool)
        self.shape = (rows, k)
        self.start = None
        if self.tot_surv.size:
            n1 = self.tot_surv.sum()
            n2 = float(self.tot_surv @ (2 * self.tot_u + 1))
            squares = float(cells @ (2 * self.u + 1))
            pi = self.surv.sum(axis=1) / n1
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
        """Of a checked count matrix (rows x children)."""
        rows = data.shape[0]
        totals_hist = np.bincount(data.sum(axis=1))
        return cls([_survival_counts(np.bincount(col), rows)
                    for col in data.T],
                   (_survival_counts(totals_hist, rows),
                    _log_factorial_sum(totals_hist)),
                   rows)

    @classmethod
    def of(cls, data) -> "_DmAggregates":
        """``data`` itself if prebuilt, else those of a count matrix."""
        return data if isinstance(data, cls) \
            else cls.from_matrix(_count_table(data))

    def log_lik(self, theta: np.ndarray) -> float:
        per_column = (self.surv * np.log(theta[:, None] + self.u)).sum(axis=1)
        return self.log_coef - float(
            self.tot_surv @ np.log(theta.sum() + self.tot_u)) \
            + float(per_column.sum())


def fit_node_multinomial(data) -> FitResult:
    """Column proportions.  ``data`` is the node's count matrix (rows x
    children) or its prebuilt :class:`_DmAggregates`: the column sums are
    the sums of the survival rows, and the multinomial coefficients are
    ``log_coef``.  A node without counts has log-likelihood 0 under every
    split; it gets uniform proportions and ``empty`` set."""
    agg = _DmAggregates.of(data)
    k = agg.shape[1]
    colsum = agg.surv.sum(axis=1)
    grand = colsum.sum()
    if grand <= 0:
        return FitResult("multinomial", {"pi": np.full(k, 1.0 / k)}, 0.0,
                         k - 1, empty=True)
    pi = colsum / grand
    with np.errstate(divide="ignore"):
        log_pi = np.where(pi > 0, np.log(np.maximum(pi, 1e-300)), 0.0)
    ll = agg.log_coef + float(colsum @ log_pi)
    return FitResult("multinomial", {"pi": pi}, ll, k - 1)


def fit_node_dm(data) -> FitResult:
    """MLE of the Dirichlet-multinomial weight vector.

    ``data`` is the node's count matrix (rows x children), or its
    prebuilt :class:`_DmAggregates`, which is what the structure search
    passes.  The weights of the children with counts are the one problem
    of :func:`_lockstep_max`, a damped Newton iteration in log weights
    from the moment start that stops once half the Newton decrement is
    below ``NEWTON_TOL`` (log-likelihood units); the other children keep
    the floor weight.  ``iterations`` counts the Newton iterations.  A
    maximiser whose weight sum is past the divergence threshold (the
    multinomial boundary at infinity) sets ``divergence_flag`` instead of
    failing; one that is not reached within ``NEWTON_MAX_ITER``
    iterations raises ConvergenceError.
    """
    agg = _DmAggregates.of(data)
    if agg.tot_surv.size == 0:
        raise UsageError("node has no counts to fit")
    free = agg.free
    k = agg.shape[1]
    theta = agg.start.copy()
    best, x, steps, done = _lockstep_max(
        agg.tot_surv[None], theta[~free].sum(), agg.surv[free][None],
        theta[free][None])
    if not done[0]:
        raise ConvergenceError("Dirichlet-multinomial Newton did not "
                               f"converge in {NEWTON_MAX_ITER} iterations")
    theta[free] = x[0]
    diverged = bool(theta.sum() > DIVERGENCE_THETA)
    return FitResult("dm", {"theta": theta}, agg.log_coef + float(best[0]), k,
                     converged=not diverged, iterations=int(steps[0]),
                     divergence_flag=diverged)


def _dm_fit(data) -> Optional[FitResult]:
    """The DM fit, or None when it fails or diverges and the multinomial
    stands in."""
    try:
        fit = fit_node_dm(data)
    except (ConvergenceError, UsageError):
        return None
    return None if fit.divergence_flag else fit


def select_node_split(data) -> FitResult:
    """Lower-AIC choice between multinomial and Dirichlet-multinomial;
    the multinomial wins automatically, flagged, when the DM fit fails or
    diverges."""
    agg = _DmAggregates.of(data)
    multi = fit_node_multinomial(agg)
    if multi.empty:
        return multi
    dm = _dm_fit(agg)
    if dm is None:
        multi.divergence_flag = True
        return multi
    return dm if dm.aic < multi.aic else multi


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
    0).
    """
    counts = _count_table(counts)
    if counts.shape[1] != tree.leaf_count:
        raise UsageError(f"data has {counts.shape[1]} columns, tree has "
                         f"{tree.leaf_count} leaves")
    return _fit_nodes(tree, counts, fit_sum_law(counts.sum(axis=1), family))


def _fit_nodes(tree: PartitionTree, counts: np.ndarray, law_fit: FitResult):
    """:func:`fit_tree`'s model and report, given its sum-law fit."""
    rows = [{"node": "total", "kind": law_fit.kind,
             "n_params": law_fit.n_params, "log_lik": law_fit.log_lik,
             "aic": law_fit.aic, "converged": law_fit.converged,
             "iterations": law_fit.iterations}]
    splits = {}
    total_aic = law_fit.aic
    total_params = law_fit.n_params
    for nid in tree.internal_ids:
        fit = select_node_split(node_data(tree, counts, nid))
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
    """DM node fits keyed by the (unordered) composition of child
    subsets.  Each entry holds the AIC and the fitted weights in sorted
    child order, or ``None`` for the weights when the DM fit failed or
    diverged and the multinomial fit stands in.  A node is fitted once,
    from its moment start, so its entry depends on the node alone.

    A miss assembles the node's :class:`_DmAggregates` from statistics
    kept once per leaf subset: the survival row of its subsums (in the
    smallest integer type that holds the row count) and their
    log-factorial sum.  A node takes a child's entry for its column and
    its leaf set's entry for its row totals, so a node over subsets seen
    before costs no pass over the rows.  A survival row is O(largest
    count); no per-row array outlives the miss that needed it."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.cache: Dict[frozenset, Tuple[float, Optional[np.ndarray]]] = {}
        self.subsets: Dict[tuple, Tuple[np.ndarray, float]] = {}

    def _subsums(self, leaves: Sequence[int]) -> np.ndarray:
        return self.counts[:, np.subtract(leaves, 1)].sum(axis=1)

    def _subset(self, leaves: tuple) -> Tuple[np.ndarray, float]:
        """The survival row and log-factorial sum of the row sums over
        ``leaves``, computed on first use."""
        if leaves not in self.subsets:
            rows = self.counts.shape[0]
            hist = np.bincount(self._subsums(leaves))
            self.subsets[leaves] = (
                _survival_counts(hist, rows).astype(np.min_scalar_type(rows)),
                _log_factorial_sum(hist))
        return self.subsets[leaves]

    def _aggregates(self, order: Sequence[Tuple[int, ...]]) -> _DmAggregates:
        """The node over the child subsets ``order``."""
        return _DmAggregates([self._subset(c)[0] for c in order],
                             self._subset(tuple(sorted(chain.from_iterable(
                                 order)))), self.counts.shape[0])

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


def _survival_rows(values: np.ndarray) -> np.ndarray:
    """Row j holds S_j(u) = #{i : values_ij > u} for u = 0..max-1, over
    the columns of a count matrix (rows x columns), from one histogram."""
    rows, cols = values.shape
    width = int(values.max(initial=0)) + 1
    hist = np.bincount((values + np.arange(cols) * width).ravel(),
                       minlength=cols * width).reshape(cols, width)
    return (rows - np.cumsum(hist, axis=1))[:, :-1].astype(float)


def _derivative_sums(tot: np.ndarray, fixed: np.ndarray, cols: np.ndarray,
                     x: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The sums that the derivatives of :func:`_lockstep_max`'s f take at
    x: a1 and a2 of tot(u) / (fixed + sum_j x_j + u) and of its square
    over u, and b1 and b2 of cols_j(u) / (x_j + u) and of its square."""
    recip = 1.0 / ((fixed + x.sum(axis=1))[:, None]
                   + np.arange(tot.shape[1], dtype=float))
    weighted = tot * recip
    a1, a2 = weighted.sum(axis=1), (weighted * recip).sum(axis=1)
    recip = 1.0 / (x[:, :, None] + np.arange(cols.shape[2], dtype=float))
    weighted = cols * recip
    return a1, a2, weighted.sum(axis=2), (weighted * recip).sum(axis=2)


def _lockstep_max(tot: np.ndarray, fixed, cols: np.ndarray,
                  x0: np.ndarray) -> Tuple[np.ndarray, ...]:
    """For every problem i at once, the maximum over x > 0 of

        f_i(x) = sum_j sum_u cols[i, j, u] log(x_j + u)
                 - sum_u tot[i, u] log(fixed_i + sum_j x_j + u),

    the DM log-likelihood in the weights x of a node's free children, up
    to terms without them; ``tot`` may hold one row for every problem.
    Damped Newton in log x from ``x0``: each step is halved until it
    raises f, and a problem stops once half its Newton decrement is below
    ``NEWTON_TOL`` or no step raises f.  Returns the maxima, their
    arguments, each problem's number of iterations and a mask of the
    problems that stopped within ``NEWTON_MAX_ITER`` iterations.
    """
    count = cols.shape[0]
    u_tot = np.arange(tot.shape[1], dtype=float)
    u_col = np.arange(cols.shape[2], dtype=float)
    fixed = np.broadcast_to(np.asarray(fixed, dtype=float), (count,))

    def tot_rows(idx):
        return tot if tot.shape[0] == 1 else tot[idx]

    def value(idx, x):
        shift = (fixed[idx] + x.sum(axis=1))[:, None] + u_tot
        return (cols[idx] * np.log(x[:, :, None] + u_col)).sum(axis=(1, 2)) \
            - (tot_rows(idx) * np.log(shift)).sum(axis=1)

    x = np.array(x0, dtype=float)
    best = value(np.arange(count), x)
    steps = np.zeros(count, dtype=int)
    done = np.zeros(count, dtype=bool)
    active = np.arange(count)
    for _ in range(NEWTON_MAX_ITER):
        if active.size == 0:
            break
        steps[active] += 1
        xa = x[active]
        a1, a2, b1, b2 = _derivative_sums(tot_rows(active), fixed[active],
                                          cols[active], xa)
        # gradient and Hessian in log x: H = diag(d) + a2 * x x^T
        grad = xa * (b1 - a1[:, None])
        d = grad - xa * xa * b2
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_g, inv_x = grad / d, xa / d
            denom = 1.0 + a2 * (xa * inv_x).sum(axis=1)
            newton = -(inv_g - inv_x * (
                a2 * (xa * inv_g).sum(axis=1) / denom)[:, None])
        concave = np.all(d < 0, axis=1) & (denom > 0)
        step = newton
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
        stop = concave & ((grad * step).sum(axis=1) < 2.0 * NEWTON_TOL)
        done[active[stop]] = True
        active, xa, step = active[~stop], xa[~stop], step[~stop]
        step *= np.minimum(1.0, 4.0 / np.abs(step).max(axis=1,
                                                       initial=1.0))[:, None]
        log_x, trying, scale = np.log(xa), np.arange(active.size), 1.0
        for _ in range(50):
            trial = np.exp(log_x[trying] + scale * step[trying])
            trial_value = value(active[trying], trial)
            up = trial_value > best[active[trying]]
            x[active[trying[up]]] = trial[up]
            best[active[trying[up]]] = trial_value[up]
            trying = trying[~up]
            if trying.size == 0:
                break
            scale *= 0.5
        # no step raises f: the problem is at its maximum to rounding
        done[active[trying]] = True
        active = np.delete(active, trying)
    return best, x, steps, done


def _refit_gain(sums: Tuple[np.ndarray, ...], x: np.ndarray,
                kept_b1: np.ndarray, kept_b2: np.ndarray,
                kept_theta: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Half the Newton decrement in log weights of a DM node in all its
    weights: the gain that refitting its kept weights too predicts, with
    the free ones at :func:`_lockstep_max`'s maximum x (``sums`` from
    :func:`_derivative_sums` there) and the kept ones at their current
    fit ``kept_theta`` (mask ``kept`` over columns whose b1 and b2 are
    ``kept_b1`` and ``kept_b2``).  NaN where the node's Hessian there is
    not negative definite."""
    a1, a2, b1, b2 = sums
    count = a1.size
    theta = np.concatenate([x, np.broadcast_to(kept_theta, (count,
                                                            kept.shape[1]))],
                           axis=1)
    grad = theta * (np.concatenate([b1, np.broadcast_to(
        kept_b1, kept.shape)], axis=1) - a1[:, None])
    # -H = diag(d) - a2 * theta theta^T in log weights
    d = theta * theta * np.concatenate(
        [b2, np.broadcast_to(kept_b2, kept.shape)], axis=1) - grad
    use = np.concatenate([np.ones(b1.shape, dtype=bool), kept], axis=1)
    concave = np.all(~use | (d > 0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_d = np.where(use & (d > 0), 1.0 / d, 0.0)
    grad = np.where(use, grad, 0.0)
    denom = 1.0 - a2 * (theta * theta * inv_d).sum(axis=1)
    concave &= denom > 0
    # Sherman-Morrison for g^T (-H)^-1 g
    decrement = (grad * grad * inv_d).sum(axis=1) + a2 * (
        theta * grad * inv_d).sum(axis=1) ** 2 / np.where(concave, denom, 1.0)
    return np.where(concave, decrement / 2.0, np.nan)


def _screen_scores(cache: "_FitCache", moves: list, outer: list,
                   outer_w: Optional[dict], grown: list,
                   inner: list, inner_w: Optional[dict]) -> np.ndarray:
    """Each move's screen score, NaN for a move that cannot be screened.

    The score predicts the move's ΔAIC without a fit of the wide outer
    node.  In the outer node only the merged child's weight m is
    refitted, the other weights staying at the outer fit, and the gain
    that one Newton step in the logs of all of them would add from there
    is added (:func:`_refit_gain`); the grown node, whose children are
    few, has all its weights refitted.  By the DM aggregation property
    the outer node at the merged start, plus a node splitting the merged
    child into its parts, has the outer fit's log-likelihood exactly.  So with parts
    P (the moved leaves and, in a transfer round, the grown node G),
    merged child M, outer total T, outer weights theta (sum Theta) and
    the grown node's weights w (sum W), the log-likelihood gain is

        f_outer(m) + f_grown(x) + sum_u S_T(u) log(Theta + u)
        - sum_{p in P} sum_u S_p(u) log(theta_p + u)
        + sum_u S_G(u) log(W + u) - sum_{j in G} sum_u S_j(u) log(w_j + u),

    f as in :func:`_lockstep_max`, and the last line only in a transfer
    round.  It needs the survival rows of T, the children and M only.
    Moves whose base has no DM fit, or that move a leaf without counts,
    get no score, nor do those whose maxima do not converge or whose
    outer node is not concave at its maximum.
    """
    scores = np.full(len(moves), np.nan)
    if not moves or outer_w is None or (grown and inner_w is None):
        return scores
    surv = {c: cache.subsets[c][0] for c in chain(outer, inner)}
    tot = cache.subsets[tuple(sorted(chain.from_iterable(outer)))][0]
    u = np.arange(tot.size, dtype=float)

    def log_term(c, theta):
        return float(surv[c] @ np.log(theta + u[:surv[c].size]))

    theta_sum = sum(outer_w.values())
    const = float(tot @ np.log(theta_sum + u))
    outer_terms = {c: log_term(c, outer_w[c]) for c in outer}
    outer_theta = np.array([outer_w[c] for c in outer])
    outer_cols = np.zeros((1, len(outer), tot.size))
    for j, c in enumerate(outer):
        outer_cols[0, j, :surv[c].size] = surv[c]
    # b1 and b2 of each outer child at its fit (0 for a child without
    # counts, whose weight is not free)
    outer_b = [b[0] for b in _derivative_sums(
        tot[None, :], np.zeros(1), outer_cols, outer_theta[None, :])[2:]]
    # in a transfer round the grown node's children with counts are free
    # in its screen, the others stay at their (floor) weights
    free_inner = [c for c in inner if surv[c].size]
    fixed, grown_sums = 0.0, 0
    if grown:
        fixed = sum(inner_w[c] for c in inner if not surv[c].size)
        const += log_term(grown[0], sum(inner_w.values())) - sum(
            log_term(c, inner_w[c]) for c in free_inner)
        grown_sums = cache._subsums(grown[0])
    screenable = [i for i, move in enumerate(moves)
                  if all(surv[outer[pos]].size for pos in move)]
    width = len(moves[0])
    free = width + len(free_inner)
    block = max(1, SCREEN_BLOCK // (free * max(cache.counts.shape[0],
                                               tot.size)))
    tot = tot.astype(float)[None, :]
    for first in range(0, len(screenable), block):
        idx = screenable[first:first + block]
        moved = [[outer[pos] for pos in moves[i]] for i in idx]
        labels = np.array([[c[0] for c in row] for row in moved]) - 1
        merged = _survival_rows(
            cache.counts[:, labels].sum(axis=2) + np.reshape(grown_sums,
                                                             (-1, 1)))
        # the outer node: the merged child's weight free
        parts_w = np.array([[outer_w[c] for c in row + grown]
                            for row in moved]).sum(axis=1)
        merged_cols = merged[:, None, :]
        outer_max, outer_x, _, outer_ok = _lockstep_max(
            tot, theta_sum - parts_w, merged_cols, parts_w[:, None])
        kept = np.ones((len(idx), len(outer)), dtype=bool)
        for row, i in enumerate(idx):
            kept[row, [outer.index(c) for c in moved[row] + grown]] = False
        refit = _refit_gain(
            _derivative_sums(tot, theta_sum - parts_w, merged_cols, outer_x),
            outer_x, *outer_b, outer_theta, kept & (outer_b[1] > 0))
        # the grown node: the moved leaves' and its children's weights free
        cols = np.zeros((len(idx), free, max(
            surv[c].size for c in chain(free_inner, *moved))))
        for row, parts in enumerate(moved):
            for j, c in enumerate(parts + free_inner):
                cols[row, j, :surv[c].size] = surv[c]
        grown_max, _, _, grown_ok = _lockstep_max(
            merged, fixed, cols, [[outer_w[c] for c in row]
                                  + [inner_w[c] for c in free_inner]
                                  for row in moved])
        gain = outer_max + refit + grown_max + const - np.array(
            [sum(outer_terms[c] for c in row + grown) for row in moved])
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
        scores = _screen_scores(cache, moves, outer, outer_w, grown, inner,
                                inner_w)
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
                       "fitted, %d unscreenable, best ΔAIC %s", label,
                       "create" if node is None else "transfer",
                       len(moves) - unscored.size, fitted, unscored.size,
                       None if best is None else best[0])
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
    law is fitted first, so totals that ``family`` cannot fit fail before
    the search.
    """
    counts = _count_table(counts)
    if counts.shape[1] < 2:
        raise UsageError("counts must be a matrix with at least 2 columns")
    law_fit = fit_sum_law(counts.sum(axis=1), family)
    trace: list = []
    children: list = list(range(1, counts.shape[1] + 1))
    _search_node(children, _FitCache(counts), trace)
    model, report = _fit_nodes(PartitionTree.from_nested(children), counts,
                               law_fit)
    return model, report, trace
