"""Node-wise maximum likelihood and greedy AIC structure search.

The joint log-likelihood decomposes into the sum-law term plus one term
per internal node, so every node is fitted independently on its child
subsums and the model AIC is the straight sum of per-node AICs.  Node
log-likelihoods here include the multinomial coefficients, i.e. they are
full conditional log-probabilities, which makes the AIC of the assembled
model identical to 2k minus twice the joint log-likelihood.
"""

from __future__ import annotations

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

DIVERGENCE_THETA = 1e8
THETA_FLOOR = 1e-10
NB_TOL = 1e-10
NB_MAX_ITER = 200
DM_TOL = 1e-8
DM_MAX_ITER = 200
AIC_EPSILON = 1e-6  # the least AIC drop that a search move must make
MAX_MOVES = 10_000  # the search's move budget


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
    points.  Integral-valued floats pass; a non-finite, non-integral,
    negative or int64-overflowing entry is a UsageError."""
    try:
        data = np.asarray(data)
        if data.dtype.kind not in "iu":
            data = np.asarray(data, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        raise UsageError("counts must be finite numbers") from None
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
    if totals.size == 0:
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
        best = None
        size = int(totals.max())
        worse_streak = 0
        while worse_streak < 30:
            prob = min(ybar / size, 1.0 - 1e-12)
            ll = float(sumlaw_log_pmf_many(totals, law(size, prob)).sum())
            if best is None or ll > best[0]:
                best = (ll, size, prob)
                worse_streak = 0
            else:
                worse_streak += 1
            size += 1
        return result({"size": best[1], "prob": best[2]})

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


def _log_multinomial_coef(data: np.ndarray) -> float:
    """sum_i log(n_i!) - sum_ij log(y_ij!), each from a count histogram."""
    return _log_factorial_sum(np.bincount(data.sum(axis=1))) \
        - _log_factorial_sum(np.bincount(data.ravel()))


def fit_node_multinomial(data: np.ndarray) -> FitResult:
    """Column proportions.  A node without counts has log-likelihood 0
    under every split; it gets uniform proportions and ``empty`` set."""
    data = _count_table(data)
    k = data.shape[1]
    colsum = data.sum(axis=0).astype(float)
    grand = colsum.sum()
    if grand <= 0:
        return FitResult("multinomial", {"pi": np.full(k, 1.0 / k)}, 0.0,
                         k - 1, empty=True)
    pi = colsum / grand
    with np.errstate(divide="ignore"):
        log_pi = np.where(pi > 0, np.log(np.maximum(pi, 1e-300)), 0.0)
    ll = _log_multinomial_coef(data) + float(colsum @ log_pi)
    return FitResult("multinomial", {"pi": pi}, ll, k - 1)


def _proportion_moments(col: np.ndarray, totals: np.ndarray
                        ) -> Optional[Tuple[float, float]]:
    """Mean and variance of ``col / totals`` over the rows with a positive
    total, or None when there are none.  Both are sequential sums, the
    arithmetic of ``props.mean(axis=0)`` and ``props.var(axis=0)`` on the
    stacked proportion matrix; a one-dimensional ``mean`` sums pairwise
    and can differ in the last bit."""
    pos = totals > 0
    if not pos.any():
        return None
    props = col[pos] / totals[pos]
    mean = float(np.cumsum(props)[-1] / props.size)
    dev = props - mean
    return mean, float(np.cumsum(dev * dev)[-1] / props.size)


class _DmAggregates:
    """Sufficient statistics of one node's data: the input of the DM fit.

    Row j of the K x U matrix ``surv`` holds S_j(u) = #{i : data_ij > u}
    for u = 0..U-1, zero past column j's maximum (U is the largest
    count).  All likelihood quantities reduce to sums over u of
    S(u)/(theta+u) and S(u)*log(theta+u), which are exact (row-order
    independent) and cost one array expression over the matrix instead
    of O(rows) per evaluation.

    Everything is assembled from per-column statistics (a column's
    survival row, and the mean and variance of its share of the row
    totals) and from the totals' survival row and log-factorial sum.
    Rows whose total is 0 change none of them, so the search's cache
    keeps these per child subset and node leaf set and builds any node
    from them (:meth:`_FitCache._aggregates`); :meth:`from_matrix`
    builds them from a count matrix.  ``free`` marks the columns with
    counts, ``start`` is the moment start (None for a node without
    counts) and ``shape`` is the node matrix's shape.
    """

    def __init__(self, survs: Sequence[np.ndarray],
                 totals: Tuple[np.ndarray, float],
                 moments: Sequence[Optional[Tuple[float, float]]],
                 rows: int):
        """``survs`` holds each child's survival row and ``totals`` that
        of the row totals and their log-factorial sum, all over the same
        ``rows`` rows; ``moments`` holds each child's proportion (mean,
        variance), or None entries when the node has no counts."""
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
        hist = np.diff(-self.surv.sum(axis=0), prepend=-k * rows, append=0)
        self.log_coef = log_fact_totals - _log_factorial_sum(hist)
        self.free = np.array([s.size > 0 for s in survs], dtype=bool)
        self.shape = (rows, k)
        self.start = None
        if self.tot_surv.size:
            pbar, pvar = (np.array(m) for m in zip(*moments))
            self.start = np.maximum(_dm_moment_init(pbar, pvar), THETA_FLOOR)
            self.start[~self.free] = THETA_FLOOR

    @classmethod
    def from_matrix(cls, data: np.ndarray) -> "_DmAggregates":
        """Of a checked count matrix (rows x children)."""
        rows = data.shape[0]
        totals = data.sum(axis=1)
        totals_hist = np.bincount(totals)
        return cls([_survival_counts(np.bincount(col), rows)
                    for col in data.T],
                   (_survival_counts(totals_hist, rows),
                    _log_factorial_sum(totals_hist)),
                   [_proportion_moments(col, totals) for col in data.T],
                   rows)

    def log_lik(self, theta: np.ndarray) -> float:
        per_column = (self.surv * np.log(theta[:, None] + self.u)).sum(axis=1)
        return self.log_coef - float(
            self.tot_surv @ np.log(theta.sum() + self.tot_u)) \
            + float(per_column.sum())

    def derivatives(self, theta: np.ndarray
                    ) -> Tuple[np.ndarray, float, np.ndarray]:
        """Gradient and the Hessian q*ones + diag(d) as (grad, q, d),
        both from one reciprocal matrix 1/(theta+u)."""
        recip = 1.0 / (theta[:, None] + self.u)
        weighted = self.surv * recip
        tot_shift = theta.sum() + self.tot_u
        grad = weighted.sum(axis=1) - float(self.tot_surv @ (1.0 / tot_shift))
        q = float(self.tot_surv @ (1.0 / tot_shift ** 2))
        return grad, q, -(weighted * recip).sum(axis=1)

    def fixed_point_step(self, theta: np.ndarray) -> np.ndarray:
        denom = float(self.tot_surv @ (1.0 / (theta.sum() + self.tot_u)))
        if denom <= 0:
            return theta
        numer = (self.surv / (theta[:, None] + self.u)).sum(axis=1)
        return theta * numer / denom


def _dm_moment_init(pbar: np.ndarray, pvar: np.ndarray) -> np.ndarray:
    """Moment-matching start (Mosimann) from the column proportions'
    means and variances: precision from their average binomial-excess."""
    keep = (pbar > 0) & (pbar < 1) & (pvar > 0)
    if not np.any(keep):
        return np.maximum(pbar, 0.01) * 10.0
    ratios = pbar[keep] * (1 - pbar[keep]) / pvar[keep] - 1.0
    precision = float(np.clip(np.median(ratios), 0.1, 1e6))
    return np.maximum(pbar, 1e-3) * precision


def fit_node_dm(data, start=None) -> FitResult:
    """Newton MLE of the Dirichlet-multinomial weight vector.

    ``data`` is the node's count matrix (rows x children), or its
    prebuilt :class:`_DmAggregates`, which is what the structure search
    passes.  Starts from moment matching, refines by a few fixed-point
    sweeps, then Newton steps with a rank-one Hessian solve and
    backtracking.  A given ``start`` weight vector replaces the moment
    start and the sweeps when it is at least as likely as the moment
    start (a start taken from another node's fit can lie far off), and
    the Newton steps begin there.  A weight-sum drifting past the
    divergence threshold (the multinomial boundary at infinity) sets
    ``divergence_flag`` instead of failing.
    """
    agg = data if isinstance(data, _DmAggregates) \
        else _DmAggregates.from_matrix(_count_table(data))
    if agg.tot_surv.size == 0:
        raise UsageError("node has no counts to fit")
    free = agg.free
    k = agg.shape[1]
    if start is not None and np.shape(start) != (k,):
        raise UsageError(f"start has shape {np.shape(start)}, the node has "
                         f"{k} children")
    log_lik = agg.log_lik

    theta, ll = agg.start, None
    if start is not None:
        warm = np.where(free, np.maximum(start, THETA_FLOOR), THETA_FLOOR)
        warm_ll = log_lik(warm)
        if warm_ll >= log_lik(theta):
            theta, ll = warm, warm_ll
    if ll is None:
        # fixed-point warm-up (Minka-style ratio update)
        for _ in range(10):
            new = agg.fixed_point_step(theta)
            theta = np.maximum(np.where(free, new, THETA_FLOOR), THETA_FLOOR)
            if theta.sum() > DIVERGENCE_THETA:
                return FitResult("dm", {"theta": theta}, log_lik(theta), k,
                                 converged=False, divergence_flag=True)
        ll = log_lik(theta)

    iterations = 0
    for iterations in range(1, DM_MAX_ITER + 1):
        grad, q, diag = agg.derivatives(theta)
        # the likelihood is only resolvable to ~|ll| * eps, so the
        # gradient criterion scales with the problem size
        if np.max(np.abs(grad[free])) < DM_TOL * (1.0 + abs(ll)):
            return FitResult("dm", {"theta": theta}, ll, k,
                             iterations=iterations)
        # Hessian = diag + q * ones; Sherman-Morrison solve on the free set
        d = diag[free]
        g = grad[free]
        if np.any(np.abs(d) < 1e-300):
            return FitResult("dm", {"theta": theta}, ll, k, converged=False,
                             divergence_flag=True)
        inv_dg = g / d
        inv_d1 = 1.0 / d
        denom = 1.0 + q * inv_d1.sum()
        if abs(denom) < 1e-12:
            return FitResult("dm", {"theta": theta}, ll, k, converged=False,
                             divergence_flag=True)
        step = inv_dg - q * inv_d1 * (inv_dg.sum() / denom)
        direction = np.zeros(k)
        direction[free] = -step
        if float(direction[free] @ g) < 0:
            direction[free] = g  # fall back to ascent when Newton is not
        scale = 1.0
        for _ in range(50):
            cand = theta + scale * direction
            if np.all(cand[free] > 0):
                cand = np.maximum(cand, THETA_FLOOR)
                cand_ll = log_lik(cand)
                if cand_ll >= ll:
                    break
            scale *= 0.5
        else:
            return FitResult("dm", {"theta": theta}, ll, k,
                             iterations=iterations)
        progress = cand_ll - ll
        theta, ll = cand, cand_ll
        if theta.sum() > DIVERGENCE_THETA:
            return FitResult("dm", {"theta": theta}, ll, k, converged=False,
                             iterations=iterations, divergence_flag=True)
        if progress <= 4.0 * np.finfo(float).eps * (1.0 + abs(ll)):
            return FitResult("dm", {"theta": theta}, ll, k,
                             iterations=iterations)
    raise ConvergenceError(
        f"Dirichlet-multinomial Newton did not converge in {DM_MAX_ITER} "
        "iterations")


def _dm_fit(data, start=None) -> Optional[FitResult]:
    """The DM fit, or None when it fails or diverges and the multinomial
    stands in."""
    try:
        fit = fit_node_dm(data, start=start)
    except (ConvergenceError, UsageError):
        return None
    return None if fit.divergence_flag else fit


def select_node_split(data: np.ndarray) -> FitResult:
    """Lower-AIC choice between multinomial and Dirichlet-multinomial;
    the multinomial wins automatically, flagged, when the DM fit fails or
    diverges."""
    multi = fit_node_multinomial(data)
    if multi.empty:
        return multi
    dm = _dm_fit(data)
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
    diverged and the multinomial fit stands in.

    A miss assembles the node's :class:`_DmAggregates` from statistics
    kept once: per child subset, the survival row of its subsums (in the
    smallest integer type that holds the row count) and their
    log-factorial sum, which a node over that leaf set takes for its row
    totals; and per node leaf set, the proportion mean and variance of
    each child subset.  A survival row is O(largest count); no per-row
    array outlives the miss that needed it."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.cache: Dict[frozenset, Tuple[float, Optional[np.ndarray]]] = {}
        self.subsets: Dict[tuple, Tuple[np.ndarray, float]] = {}
        self.moments: Dict[tuple, Dict[tuple, Optional[Tuple[float, float]]]] \
            = {}

    def _keep_subset(self, leaves: tuple, subsums: np.ndarray) -> None:
        """Keep the survival row and log-factorial sum of ``subsums``, the
        row sums over ``leaves``, unless they are kept already."""
        if leaves not in self.subsets:
            rows = self.counts.shape[0]
            hist = np.bincount(subsums)
            self.subsets[leaves] = (
                _survival_counts(hist, rows).astype(np.min_scalar_type(rows)),
                _log_factorial_sum(hist))

    def _subsums(self, leaves: Sequence[int]) -> np.ndarray:
        return self.counts[:, np.subtract(leaves, 1)].sum(axis=1)

    def _aggregates(self, order: Sequence[Tuple[int, ...]]) -> _DmAggregates:
        """The node over the child subsets ``order``, from the kept
        statistics, computing the missing ones."""
        leaf_set = tuple(sorted(chain.from_iterable(order)))
        moments = self.moments.setdefault(leaf_set, {})
        missing = [c for c in order if c not in moments]
        if missing or leaf_set not in self.subsets:
            totals = self._subsums(leaf_set)
            self._keep_subset(leaf_set, totals)
            for child in missing:
                col = self._subsums(child)
                self._keep_subset(child, col)
                moments[child] = _proportion_moments(col, totals)
        return _DmAggregates([self.subsets[c][0] for c in order],
                             self.subsets[leaf_set],
                             [moments[c] for c in order],
                             self.counts.shape[0])

    def fit(self, children: Sequence[Tuple[int, ...]],
            start: Optional[dict] = None) -> Tuple[float, Optional[dict]]:
        """AIC and weights of the node over ``children``.  On a miss the
        DM fit starts from ``start[child]`` for each child when a start is
        given, and cold when there is none or the started fit fails or
        diverges."""
        key = frozenset(children)
        if key not in self.cache:
            order = sorted(children)
            agg = self._aggregates(order)
            fit = None
            if start is not None:
                fit = _dm_fit(agg, start=[start[c] for c in order])
            if fit is None:
                fit = _dm_fit(agg)
            if fit is None:
                data = np.column_stack([self._subsums(c) for c in order])
                self.cache[key] = (fit_node_multinomial(data).aic, None)
            else:
                self.cache[key] = (fit.aic, fit.params["theta"])
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


def _grow_node(children: list, cache: _FitCache, trace: list) -> list:
    """Greedy node creation among one node's children, in place; returns
    the created nodes in order of creation.

    ``children`` holds int leaf labels and nested child lists.  A move
    takes leaf children into the grown node.  A create round scores
    every pair of leaf children as a new node; once one is created,
    transfer rounds score every single leaf child as one more member of
    it.  Each round makes the move that lowers the summed node AIC the
    most; when none does, a transfer round gives way to a create round
    and a create round ends the search of this node.  Accepted moves are
    appended to ``trace``; one past ``MAX_MOVES`` raises
    ``ConvergenceError``.

    Candidate DM fits start from the current fits by the aggregation
    property: the grown node starts at the sum of its parts' weights,
    every other child at its weight in the node fit it comes from, and a
    moved leaf at its weight in the outer fit.  Candidates of a base that
    fell back to multinomial start cold.
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
        # move), its children's subsets, and the start of its candidates
        grown, inner, inner_start = [], [], outer_w
        if node is not None:
            grown = [_leaves_under(node)]
            inner = [_leaves_under(ch) for ch in node]
            inner_aic, inner_w = cache.fit(inner)
            base += inner_aic
            inner_start = None if outer_w is None or inner_w is None \
                else {**outer_w, **inner_w}
        best = None
        for move in (combinations(leaves, 2) if node is None
                     else [(pos,) for pos in leaves]):
            moved = [outer[pos] for pos in move]
            parts = moved + grown
            merged = tuple(sorted(sum(parts, ())))
            rest = [s for s in outer if s not in parts] + [merged]
            rest_start = None if outer_w is None else {
                **outer_w, merged: sum(outer_w[p] for p in parts)}
            delta = (cache.fit(rest, rest_start)[0]
                     + cache.fit(inner + moved, inner_start)[0] - base)
            if best is None or delta < best[0]:
                best = (delta, move)
        if best is None or best[0] >= -AIC_EPSILON:
            if node is None:
                break
            node = None
            continue
        delta, move = best
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
