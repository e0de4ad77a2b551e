"""Node-wise maximum likelihood and greedy AIC structure search.

The joint log-likelihood decomposes into the sum-law term plus one term
per internal node, so every node is fitted independently on its child
subsums and the model AIC is the straight sum of per-node AICs.  Node
log-likelihoods here include the multinomial coefficients, i.e. they are
full conditional log-probabilities, which makes the AIC of the assembled
model identical to 2k minus twice the joint log-likelihood.

Every Dirichlet-multinomial node fit, and every fit in the search's move
screen, is one damped Newton iteration in log weights
(:func:`_lockstep_max`) on the node's survival rows.  One pass over
those rows (:func:`_evaluate`) gives both the log-likelihood at a trial
point and the sums of its derivatives there, so each trial point costs
one pass.  A fit whose weights run off towards the multinomial limit
stops just past ``DIVERGENCE_THETA`` and is flagged; the multinomial
stands in for it.  The Newton step, and the screen's gain from a step
in every weight of a wide node, are one Sherman-Morrison solve
(:func:`_newton_step`).  Fits and screen alike read a node's survival
rows from the leaf-subset store, as its :class:`_DmAggregates`.
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
from .polya import SUM_LAWS, SplitSpec, count_int64, sumlaw_log_pmf_many
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


def _count_table(data, tree: Optional[PartitionTree] = None) -> np.ndarray:
    """Counts as an int64 matrix, one column per leaf of ``tree`` if given."""
    data = count_int64(data)
    if data.ndim != 2:
        raise UsageError("counts must be a matrix")
    if tree is not None and data.shape[1] != tree.leaf_count:
        raise UsageError(f"data has {data.shape[1]} columns, tree has "
                         f"{tree.leaf_count} leaves")
    return data


def node_data(tree: PartitionTree, counts: np.ndarray,
              node: int) -> np.ndarray:
    """Child-subsum matrix (n_sites x J_A) for one internal node."""
    if tree.is_leaf(node):
        raise UsageError("node data is defined for internal nodes only")
    counts = _count_table(counts, tree)
    children = tree.incidence[list(tree.children(node))]
    return (counts @ children.T).astype(counts.dtype)


# ---------------------------------------------------------------------
# Sum-law fits


def _survival_rows(values: np.ndarray) -> np.ndarray:
    """Row j holds S_j(u) = #{i : values_ij > u} for u = 0..max-1, over
    the columns of a count matrix (rows x columns), from one histogram.

    Aggregating rows this way makes every downstream digamma-style sum
    exact regardless of row order: sum_i [psi(x + v_i) - psi(x)] =
    sum_u S(u) / (x + u).  Zeros only add to the histogram's first bin.
    """
    rows, cols = values.shape
    width = int(values.max(initial=0)) + 1
    hist = np.bincount((values + np.arange(cols) * width).ravel(),
                       minlength=cols * width).reshape(cols, width)
    return (rows - np.cumsum(hist, axis=1))[:, :-1].astype(float)


def _histogram(surv: np.ndarray, n: int) -> np.ndarray:
    """The histogram of n count values from their survival row: bin u is
    S(u-1) - S(u), with S(-1) = n."""
    hist = np.concatenate(([n], surv))
    hist[:-1] -= surv
    return hist


def _nb_profile_score(alpha: float, surv: np.ndarray, n: int,
                      ybar: float) -> float:
    """Profile score in alpha (p concentrated out) of n totals of mean
    ybar, from their survival counts S(u)."""
    u = np.arange(surv.size)
    return float(surv @ (1.0 / (alpha + u))) - n * math.log1p(ybar / alpha)


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

    The negative binomial's alpha and the binomial's size are bracketed
    and bisected on their profile score and step (``iterations`` counts
    the NB score's evaluations); the others are closed form.
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
        surv = _survival_rows(totals[:, None])[0]
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
    # the profile score falls through its one root when the totals are
    # overdispersed (Aragón, Eberly & Eberly 1992): bracketed from the
    # moment start, then bisected in log alpha down to adjacent floats
    surv = _survival_rows(totals[:, None])[0]
    scores = []

    def rising(alpha):
        scores.append(_nb_profile_score(alpha, surv, n, ybar))
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
    return result({"alpha": lo, "p": ybar / (lo + ybar)}, len(scores))


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
    is 0 change none of them, so the leaf-subset store keeps them per leaf
    subset and builds every node from them (:meth:`_FitCache._aggregates`;
    a count matrix's through :meth:`from_matrix`).  ``free`` marks the
    columns with counts, ``log_coef`` is the log of the rows' multinomial
    coefficients, ``start`` is the moment start (None for a node without
    counts) and ``shape`` is the node matrix's shape.

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
        cells = self.surv.sum(axis=0)  # the k * rows cells' survival row
        self.log_coef = log_fact_totals - _log_factorial_sum(
            _histogram(cells, k * rows))
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
        """The leaf-subset store's, over a checked count matrix's columns."""
        return _FitCache(data)._aggregates(
            [(j,) for j in range(1, data.shape[1] + 1)])

    @classmethod
    def of(cls, data) -> "_DmAggregates":
        """``data`` itself if prebuilt, else those of a count matrix."""
        return data if isinstance(data, cls) \
            else cls.from_matrix(_count_table(data))

    def column_terms(self, theta: np.ndarray) -> np.ndarray:
        """sum_u S_j(u) log(theta_j + u) for each child j."""
        return (self.surv * np.log(theta[:, None] + self.u)).sum(axis=1)

    def total_term(self, theta_sum: float) -> float:
        """sum_u S_tot(u) log(theta_sum + u)."""
        return float(self.tot_surv @ np.log(theta_sum + self.tot_u))

    def log_lik(self, theta: np.ndarray) -> float:
        return self.log_coef - self.total_term(theta.sum()) \
            + float(self.column_terms(theta).sum())


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
    fit whose weight sum passes the divergence threshold while the
    likelihood still rises along the weights' scale (towards the
    multinomial boundary at infinity) stops there and sets
    ``divergence_flag`` instead of failing; a maximum that is not reached
    within ``NEWTON_MAX_ITER`` iterations raises ConvergenceError.
    """
    agg = _DmAggregates.of(data)
    if agg.tot_surv.size == 0:
        raise UsageError("node has no counts to fit")
    free = agg.free
    k = agg.shape[1]
    theta = agg.start.copy()
    best, x, steps, done, _ = _lockstep_max(
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
    counts = _count_table(counts, tree)
    return _fit_nodes(tree, _FitCache(counts),
                      fit_sum_law(counts.sum(axis=1), family))


def _fit_nodes(tree: PartitionTree, cache: "_FitCache", law_fit: FitResult):
    """:func:`fit_tree`'s model and report, given its sum-law fit, with
    every node built from the leaf-subset store ``cache``."""
    rows = [{"node": "total", "kind": law_fit.kind,
             "n_params": law_fit.n_params, "log_lik": law_fit.log_lik,
             "aic": law_fit.aic, "converged": law_fit.converged,
             "iterations": law_fit.iterations}]
    splits = {}
    total_aic = law_fit.aic
    total_params = law_fit.n_params
    for nid in tree.internal_ids:
        fit = select_node_split(cache._aggregates(
            [tree.subset(c) for c in tree.children(nid)]))
        # in preorder, no node ahead reads this one's leaf set or leaves
        for done in (nid, *filter(tree.is_leaf, tree.children(nid))):
            cache.subsets.pop(tree.subset(done), None)
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
    entry per leaf subset: the survival row of its subsums, in the
    smallest integer type that holds the row count, and their
    log-factorial sum.  A node reads its children's entries as columns
    and its leaf set's as row totals, so a node over subsets seen before
    costs no pass over the rows.  An entry is O(largest subsum)."""

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
            surv = _survival_rows(self._subsums(leaves)[:, None])[0]
            self.subsets[leaves] = (
                surv.astype(np.min_scalar_type(rows)),
                _log_factorial_sum(_histogram(surv, rows)))
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


def _evaluate(tot: np.ndarray, fixed: np.ndarray, cols: np.ndarray,
              x: np.ndarray) -> Tuple[np.ndarray, ...]:
    """:func:`_lockstep_max`'s f at x, and the sums its derivatives take
    there: a1 and a2 of tot(u) / (fixed + sum_j x_j + u) and of its
    square over u, and b1 and b2 of cols_j(u) / (x_j + u) and of its
    square, so that the gradient is b1 - a1 and the Hessian
    a2 - diag(b2).  The logs and the reciprocals share one pair of
    shifted arrays."""
    shift = (fixed + x.sum(axis=1))[:, None] \
        + np.arange(tot.shape[1], dtype=float)
    col_shift = x[:, :, None] + np.arange(cols.shape[2], dtype=float)
    value = (cols * np.log(col_shift)).sum(axis=(1, 2)) \
        - (tot * np.log(shift)).sum(axis=1)
    # the reciprocals overwrite the shifts, which are not needed again
    recip = np.divide(1.0, shift, out=shift)
    weighted = tot * recip
    a1, a2 = weighted.sum(axis=1), (weighted * recip).sum(axis=1)
    recip = np.divide(1.0, col_shift, out=col_shift)
    weighted = cols * recip
    return value, a1, a2, weighted.sum(axis=2), (weighted * recip).sum(axis=2)


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


def _lockstep_max(tot: np.ndarray, fixed, cols: np.ndarray,
                  x0: np.ndarray) -> Tuple[np.ndarray, ...]:
    """For every problem i at once, the maximum over x > 0 of

        f_i(x) = sum_j sum_u cols[i, j, u] log(x_j + u)
                 - sum_u tot[i, u] log(fixed_i + sum_j x_j + u),

    the DM log-likelihood in the weights x of a node's free children, up
    to terms without them; ``tot`` may hold one row for every problem.
    Damped Newton in log x from ``x0``: each step is halved until it
    raises f.  A problem stops once half its Newton decrement is below
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
    problems' inputs and state are kept compacted, and taken anew only in
    an iteration where some problem stops.
    """
    count = cols.shape[0]
    shared = tot.shape[0] == 1
    fixed = np.broadcast_to(np.asarray(fixed, dtype=float), (count,))
    steps = np.full(count, NEWTON_MAX_ITER)
    done = np.zeros(count, dtype=bool)
    # x, f and the derivative sums at x: ``state`` over the active
    # problems, ``final`` over all, filled in as each problem stops
    active = np.arange(count)
    x = np.array(x0, dtype=float)
    state = (x, *_evaluate(tot, fixed, cols, x))
    final = [np.empty_like(part) for part in state]

    def retire(leaving, iteration):
        """Record the problems under mask ``leaving`` as stopped at
        ``iteration``; return the active set's arrays without them."""
        idx = active[leaving]
        for whole, part in zip(final, state):
            whole[idx] = part[leaving]
        steps[idx], done[idx] = iteration, True
        keep = ~leaving
        return (active[keep], tot if shared else tot[keep], fixed[keep],
                cols[keep], tuple(part[keep] for part in state))

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
            active, tot, fixed, cols, state = retire(stop, iteration)
            step = step[~stop]
        if active.size == 0:
            break
        step *= np.minimum(1.0, 4.0 / np.abs(step).max(axis=1,
                                                       initial=1.0))[:, None]
        log_x, scale, trying = np.log(state[0]), 1.0, None
        for _ in range(50):
            # the full step is tried on every active problem, as views
            pick = slice(None) if trying is None else trying
            trial = np.exp(log_x[pick] + scale * step[pick])
            new = (trial, *_evaluate(tot if shared else tot[pick],
                                     fixed[pick], cols[pick], trial))
            up = new[1] > state[1][pick]
            if trying is None:
                if up.all():
                    break
                trying = np.arange(active.size)
            for kept, fresh in zip(state, new):
                kept[trying[up]] = fresh[up]
            trying = trying[~up]
            if trying.size == 0:
                break
            scale *= 0.5
        if trying is None:
            state = new
        elif trying.size:
            # no step raises f: the problem is at its maximum to rounding
            failed = np.zeros(active.size, dtype=bool)
            failed[trying] = True
            active, tot, fixed, cols, state = retire(failed, iteration)
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
                   inner: list, inner_w: Optional[dict]) -> np.ndarray:
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
    ``outer_w`` and ``inner_w``) and the survival rows of M only.
    Moves whose base has no DM fit, or that move a leaf without counts,
    get no score, nor do those whose maxima do not converge or whose
    outer node is not concave at its maximum.
    """
    scores = np.full(len(moves), np.nan)
    if not moves or outer_w is None or (grown and inner_w is None):
        return scores
    node = cache._aggregates(outer)
    theta = np.array([outer_w[c] for c in outer])
    theta_sum = sum(outer_w.values())
    const = node.total_term(theta_sum)
    # b1 and b2 of the outer children at the fit (0 without counts)
    b1, b2 = _evaluate(node.tot_surv[None], 0.0, node.surv[None],
                       theta[None])[3:]
    moves = parts = np.array(moves)  # parts: the moved leaves, then G
    fixed, grown_sums = 0.0, 0
    inner_theta, inner_surv = np.empty(0), np.empty((0, 0))
    if grown:
        inner_node = cache._aggregates(inner)
        inner_theta = np.array([inner_w[c] for c in inner])
        fixed = float(inner_theta[~inner_node.free].sum())
        const += inner_node.total_term(sum(inner_w.values())) - float(
            inner_node.column_terms(inner_theta).sum())
        inner_theta = inner_theta[inner_node.free]
        inner_surv = inner_node.surv[inner_node.free]
        parts = np.column_stack(
            [moves, np.full(len(moves), outer.index(grown[0]))])
        grown_sums = cache._subsums(grown[0])
    # the likelihood terms that a move takes out of the outer node
    const -= node.column_terms(theta)[parts].sum(axis=1)
    screenable = np.flatnonzero(node.free[moves].all(axis=1))
    widths = np.count_nonzero(node.surv, axis=1)
    column = np.array([c[0] for c in outer]) - 1  # a leaf child's column
    free = moves.shape[1] + inner_theta.size
    block = max(1, SCREEN_BLOCK // (free * max(cache.counts.shape[0],
                                               node.tot_surv.size)))
    for first in range(0, screenable.size, block):
        idx = screenable[first:first + block]
        moved, merging = moves[idx], parts[idx]
        merged = _survival_rows(cache.counts[:, column[moved]].sum(axis=2)
                                + np.reshape(grown_sums, (-1, 1)))
        # the outer node: the merged child's weight free
        parts_w = theta[merging].sum(axis=1)
        outer_max, outer_x, _, outer_ok, outer_sums = _lockstep_max(
            node.tot_surv[None], theta_sum - parts_w, merged[:, None, :],
            parts_w[:, None])
        kept = np.repeat(b2 > 0, idx.size, axis=0)
        kept[np.arange(idx.size)[:, None], merging] = False
        refit = _refit_gain(outer_sums, outer_x, b1, b2, theta, kept)
        # the grown node: the weights of the moved leaves and of G's
        # children with counts free (the others' is ``fixed``), its rows
        # as wide as the widest of those children
        span = max(inner_surv.shape[1], widths[moved].max())
        cols = np.zeros((idx.size, free, span))
        cols[:, :moved.shape[1]] = node.surv[moved, :span]
        cols[:, moved.shape[1]:, :inner_surv.shape[1]] = inner_surv
        grown_max, _, _, grown_ok, _ = _lockstep_max(
            merged, fixed, cols, np.concatenate([theta[moved], np.broadcast_to(
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
    cache = _FitCache(counts)
    _search_node(children, cache, trace)
    model, report = _fit_nodes(PartitionTree.from_nested(children), cache,
                               law_fit)
    return model, report, trace
