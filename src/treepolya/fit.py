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
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaln

from .exceptions import ConvergenceError, DomainError, UsageError
from .model import TreePolyaModel
from .polya import (Binomial, Dirac, NegativeBinomial, Poisson, SplitSpec,
                    sumlaw_log_pmf_many)
from .tree import PartitionTree, incidence_matrix

__all__ = [
    "FitResult", "SearchConfig", "node_data",
    "fit_sum_law", "fit_node_multinomial", "fit_node_dm",
    "select_node_split", "fit_tree", "search_tree",
]

DIVERGENCE_THETA = 1e8
THETA_FLOOR = 1e-10


@dataclass
class FitResult:
    kind: str                    # "nb", "poisson", "dirac", "binomial",
                                 # "multinomial", "dm"
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


@dataclass(frozen=True)
class SearchConfig:
    max_iterations: int = 10_000
    aic_epsilon: float = 1e-6
    dm_tol: float = 1e-8
    dm_max_iter: int = 200

    def __post_init__(self):
        if self.aic_epsilon <= 0:
            raise DomainError("aic_epsilon must be positive")


def node_data(tree: PartitionTree, counts: np.ndarray, node: int) -> np.ndarray:
    """Child-subsum matrix (n_sites x J_A) for one internal node."""
    if tree.is_leaf(node):
        raise UsageError("node data is defined for internal nodes only")
    children = tree.incidence[list(tree.children(node))]
    return (counts @ children.T).astype(counts.dtype)


# ---------------------------------------------------------------------
# Sum-law fits


def _survival_counts(values: np.ndarray) -> np.ndarray:
    """S(u) = #{i : values_i > u} for u = 0..max-1.

    Aggregating rows this way makes every downstream digamma-style sum
    exact regardless of row order: sum_i [psi(x + v_i) - psi(x)] =
    sum_u S(u) / (x + u).
    """
    top = int(values.max(initial=0))
    if top == 0:
        return np.zeros(0)
    hist = np.bincount(values, minlength=top + 1)
    return (values.size - np.cumsum(hist))[:top].astype(float)


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


def _nb_log_lik(alpha: float, p: float, totals: np.ndarray) -> float:
    hist = np.bincount(totals)
    surv = _survival_counts(totals)
    u = np.arange(surv.size)
    return float(surv @ np.log(alpha + u)
                 - hist @ gammaln(np.arange(hist.size) + 1.0)
                 + totals.sum() * math.log(p)
                 + totals.size * alpha * math.log1p(-p))


def fit_sum_law(totals, family: str, tol: float = 1e-10,
                max_iter: int = 200) -> FitResult:
    """MLE of the grand-total law.

    The negative binomial uses Newton iteration on the profile score in
    alpha with a moment-based start; the other families are closed form.
    """
    totals = np.asarray(totals, dtype=np.int64)
    if totals.size == 0 or np.any(totals < 0):
        raise UsageError("totals must be a nonempty nonnegative vector")
    n = totals.size
    ybar = float(totals.mean())

    if family == "dirac":
        if np.any(totals != totals[0]):
            raise DomainError("Dirac fit needs constant totals")
        return FitResult("dirac", {"m": int(totals[0])}, 0.0, 1)

    if family == "poisson":
        if ybar == 0:
            raise DomainError("all-zero totals cannot be fitted by Poisson")
        ll = float(sumlaw_log_pmf_many(totals, Poisson(ybar)).sum())
        return FitResult("poisson", {"rate": ybar}, ll, 1)

    if family == "binomial":
        if ybar == 0:
            raise DomainError("all-zero totals cannot be fitted by binomial")
        best = None
        size = int(totals.max())
        worse_streak = 0
        while worse_streak < 30:
            prob = min(ybar / size, 1.0 - 1e-12)
            ll = float(sumlaw_log_pmf_many(totals, Binomial(size, prob)).sum())
            if best is None or ll > best[0]:
                best = (ll, size, prob)
                worse_streak = 0
            else:
                worse_streak += 1
            size += 1
        ll, size, prob = best
        return FitResult("binomial", {"size": size, "prob": prob}, ll, 2)

    if family != "nb":
        raise UsageError(f"unknown sum-law family {family!r}")

    var = float(totals.var())
    if ybar == 0:
        raise DomainError("all-zero totals cannot be fitted by a negative "
                          "binomial")
    if var <= ybar:
        raise DomainError("totals show no overdispersion; the negative "
                          "binomial profile has no interior maximum")
    alpha = ybar ** 2 / max(var - ybar, 1e-8)
    surv = _survival_counts(totals)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        score, dscore = _nb_profile_score(alpha, totals, surv)
        if abs(score) < tol * n:
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
                               f"converge in {max_iter} iterations")
    p = ybar / (alpha + ybar)
    ll = _nb_log_lik(alpha, p, totals)
    return FitResult("nb", {"alpha": alpha, "p": p}, ll, 2,
                     iterations=iterations)


# ---------------------------------------------------------------------
# Node fits


def _count_matrix(data) -> np.ndarray:
    data = np.asarray(data, dtype=np.int64)
    if np.any(data < 0):
        raise UsageError("node counts must be nonnegative")
    return data


def _log_multinomial_coef(data: np.ndarray) -> float:
    """sum_i log(n_i!) - sum_ij log(y_ij!), each from a count histogram."""
    def log_factorial_sum(values):
        hist = np.bincount(values.ravel())
        return float(hist @ gammaln(np.arange(1.0, hist.size + 1)))
    return log_factorial_sum(data.sum(axis=1)) - log_factorial_sum(data)


def fit_node_multinomial(data: np.ndarray) -> FitResult:
    """Column proportions.  A node without counts has log-likelihood 0
    under every split; it gets uniform proportions and ``empty`` set."""
    data = _count_matrix(data)
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


class _DmAggregates:
    """Survival-count sufficient statistics of one node's data.

    Row j of the K x U matrix ``surv`` holds S_j(u) = #{i : data_ij > u}
    for u = 0..U-1, zero past column j's maximum (U is the largest
    count).  All likelihood quantities reduce to sums over u of
    S(u)/(theta+u) and S(u)*log(theta+u), which are exact (row-order
    independent) and cost one array expression over the matrix instead
    of O(rows) per evaluation.
    """

    def __init__(self, data: np.ndarray, totals: np.ndarray):
        rows, k = data.shape
        width = int(data.max(initial=0)) + 1
        hist = np.bincount((data + width * np.arange(k)).ravel(),
                           minlength=k * width).reshape(k, width)
        self.surv = (rows - np.cumsum(hist, axis=1))[:, :-1].astype(float)
        self.u = np.arange(width - 1, dtype=float)
        self.tot_surv = _survival_counts(totals)
        self.tot_u = np.arange(self.tot_surv.size)
        self.log_coef = _log_multinomial_coef(data)

    def log_lik(self, theta: np.ndarray) -> float:
        per_column = (self.surv * np.log(theta[:, None] + self.u)).sum(axis=1)
        return self.log_coef - float(
            self.tot_surv @ np.log(theta.sum() + self.tot_u)) \
            + float(per_column.sum())

    def derivatives(self, theta: np.ndarray
                    ) -> Tuple[np.ndarray, float, np.ndarray]:
        """Gradient and the Hessian q*ones + diag(d) as (grad, q, d),
        both from one reciprocal matrix 1/(theta+u)."""
        s = theta.sum()
        recip = 1.0 / (theta[:, None] + self.u)
        weighted = self.surv * recip
        grad = weighted.sum(axis=1) \
            - float(self.tot_surv @ (1.0 / (s + self.tot_u)))
        q = float(self.tot_surv @ (1.0 / (s + self.tot_u) ** 2))
        return grad, q, -(weighted * recip).sum(axis=1)

    def fixed_point_step(self, theta: np.ndarray) -> np.ndarray:
        denom = float(self.tot_surv @ (1.0 / (theta.sum() + self.tot_u)))
        if denom <= 0:
            return theta
        numer = (self.surv / (theta[:, None] + self.u)).sum(axis=1)
        return theta * numer / denom


def _dm_moment_init(data: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Moment-matching start (Mosimann): precision from the average
    binomial-excess of the column proportions."""
    props = data / totals[:, None]
    pbar = props.mean(axis=0)
    pvar = props.var(axis=0)
    keep = (pbar > 0) & (pbar < 1) & (pvar > 0)
    if not np.any(keep):
        return np.maximum(pbar, 0.01) * 10.0
    ratios = pbar[keep] * (1 - pbar[keep]) / pvar[keep] - 1.0
    precision = float(np.clip(np.median(ratios), 0.1, 1e6))
    return np.maximum(pbar, 1e-3) * precision


def fit_node_dm(data: np.ndarray, tol: float = 1e-8,
                max_iter: int = 200, start=None) -> FitResult:
    """Newton MLE of the Dirichlet-multinomial weight vector.

    Starts from moment matching, refines by a few fixed-point sweeps,
    then Newton steps with a rank-one Hessian solve and backtracking.
    A given ``start`` weight vector replaces the moment start and the
    sweeps when it is at least as likely as the moment start (a start
    taken from another node's fit can lie far off), and the Newton
    steps begin there.  A weight-sum drifting past the divergence
    threshold (the multinomial boundary at infinity) sets
    ``divergence_flag`` instead of failing.
    """
    data = _count_matrix(data)
    totals = data.sum(axis=1)
    if data.shape[0] == 0 or totals.sum() <= 0:
        raise UsageError("node has no counts to fit")
    pos = totals > 0
    data, totals = data[pos], totals[pos]
    free = data.sum(axis=0) > 0
    k = data.shape[1]
    if start is not None and np.shape(start) != (k,):
        raise UsageError(f"start has shape {np.shape(start)}, the node has "
                         f"{k} children")
    agg = _DmAggregates(data, totals)
    log_lik = agg.log_lik

    theta = np.maximum(_dm_moment_init(data, totals), THETA_FLOOR)
    theta[~free] = THETA_FLOOR
    warm = None if start is None \
        else np.where(free, np.maximum(start, THETA_FLOOR), THETA_FLOOR)
    if warm is not None and log_lik(warm) >= log_lik(theta):
        theta = warm
    else:
        # fixed-point warm-up (Minka-style ratio update)
        for _ in range(10):
            new = agg.fixed_point_step(theta)
            theta = np.maximum(np.where(free, new, THETA_FLOOR), THETA_FLOOR)
            if theta.sum() > DIVERGENCE_THETA:
                return FitResult("dm", {"theta": theta}, log_lik(theta), k,
                                 converged=False, divergence_flag=True)

    ll = log_lik(theta)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad, q, diag = agg.derivatives(theta)
        # the likelihood is only resolvable to ~|ll| * eps, so the
        # gradient criterion scales with the problem size
        if np.max(np.abs(grad[free])) < tol * (1.0 + abs(ll)):
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
        f"Dirichlet-multinomial Newton did not converge in {max_iter} "
        "iterations")


def select_node_split(data: np.ndarray, tol: float = 1e-8,
                      max_iter: int = 200) -> FitResult:
    """Lower-AIC choice between multinomial and Dirichlet-multinomial;
    the multinomial wins automatically when the DM fit diverges."""
    multi = fit_node_multinomial(data)
    if multi.empty:
        return multi
    try:
        dm = fit_node_dm(data, tol=tol, max_iter=max_iter)
    except (ConvergenceError, UsageError):
        multi.divergence_flag = True
        return multi
    if dm.divergence_flag:
        multi.divergence_flag = True
        return multi
    return dm if dm.aic < multi.aic else multi


def _split_from_fit(fit: FitResult) -> SplitSpec:
    if fit.kind == "multinomial":
        pi = np.maximum(fit.params["pi"], 1e-12)
        return SplitSpec(0, tuple(pi / pi.sum()))
    return SplitSpec(1, tuple(np.maximum(fit.params["theta"], THETA_FLOOR)))


def _law_from_fit(fit: FitResult):
    if fit.kind == "nb":
        return NegativeBinomial(fit.params["alpha"], fit.params["p"])
    if fit.kind == "poisson":
        return Poisson(fit.params["rate"])
    if fit.kind == "dirac":
        return Dirac(fit.params["m"])
    if fit.kind == "binomial":
        return Binomial(fit.params["size"], fit.params["prob"])
    raise UsageError(f"not a sum-law fit: {fit.kind}")


def fit_tree(tree: PartitionTree, counts: np.ndarray, family: str = "nb",
             tol: float = 1e-8, max_iter: int = 200):
    """Fit the whole model on a fixed tree.

    Returns ``(model, report)`` where the report lists the sum-law row
    and one row per internal node with its selected split kind, number
    of parameters, log-likelihood, AIC, and the fit's ``converged`` and
    ``iterations``; node rows also carry ``divergence`` and ``empty``
    (no counts reach the node: a uniform multinomial with log-likelihood
    0).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape[1] != tree.leaf_count:
        raise UsageError(f"data has {counts.shape[1]} columns, tree has "
                         f"{tree.leaf_count} leaves")
    law_fit = fit_sum_law(counts.sum(axis=1), family)
    rows = [{"node": "total", "kind": law_fit.kind,
             "n_params": law_fit.n_params, "log_lik": law_fit.log_lik,
             "aic": law_fit.aic, "converged": law_fit.converged,
             "iterations": law_fit.iterations}]
    splits = {}
    total_aic = law_fit.aic
    total_params = law_fit.n_params
    for nid in tree.internal_ids:
        try:
            fit = select_node_split(node_data(tree, counts, nid),
                                    tol=tol, max_iter=max_iter)
        except (ConvergenceError, UsageError) as exc:
            raise type(exc)(
                f"fit failed at node {tree.subset(nid)}: {exc}") from exc
        splits[nid] = _split_from_fit(fit)
        rows.append({"node": "{" + ",".join(map(str, tree.subset(nid))) + "}",
                     "kind": fit.kind, "n_params": fit.n_params,
                     "log_lik": fit.log_lik, "aic": fit.aic,
                     "divergence": fit.divergence_flag,
                     "converged": fit.converged,
                     "iterations": fit.iterations, "empty": fit.empty})
        total_aic += fit.aic
        total_params += fit.n_params
    model = TreePolyaModel(tree, splits, _law_from_fit(law_fit))
    report = {"rows": rows, "total_aic": total_aic,
              "total_params": total_params}
    return model, report


# ---------------------------------------------------------------------
# Greedy structure search


class _FitCache:
    """DM node fits keyed by the (unordered) composition of child
    subsets.  Each entry holds the AIC and the fitted weight of every
    child subset, or ``None`` for the weights when the DM fit failed or
    diverged and the multinomial fit stands in."""

    def __init__(self, counts: np.ndarray, config: SearchConfig):
        self.counts = counts
        self.config = config
        self.cache: Dict[frozenset, Tuple[float, Optional[dict]]] = {}

    def node_aic(self, children: Sequence[Tuple[int, ...]],
                 start: Optional[dict] = None) -> float:
        """AIC of the node over ``children``.  On a miss the DM fit starts
        from ``start[child]`` for each child when a start is given, and
        cold when there is none or the started fit fails or diverges."""
        key = frozenset(children)
        if key not in self.cache:
            order = sorted(children)
            data = self.counts @ incidence_matrix(
                order, self.counts.shape[1]).T
            fit = None
            if start is not None:
                fit = self._dm_fit(data, [start[c] for c in order])
            if fit is None:
                fit = self._dm_fit(data, None)
            if fit is None:
                self.cache[key] = (fit_node_multinomial(data).aic, None)
            else:
                self.cache[key] = (fit.aic,
                                   dict(zip(order, fit.params["theta"])))
        return self.cache[key][0]

    def _dm_fit(self, data: np.ndarray, start) -> Optional[FitResult]:
        """The DM fit, or None when it fails or diverges."""
        try:
            fit = fit_node_dm(data, tol=self.config.dm_tol,
                              max_iter=self.config.dm_max_iter, start=start)
        except (ConvergenceError, UsageError):
            return None
        return None if fit.divergence_flag else fit

    def weights(self, children: Sequence[Tuple[int, ...]]) -> Optional[dict]:
        """Fitted DM weight per child subset of a cached node, or None."""
        return self.cache[frozenset(children)][1]


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

    ``children`` holds int leaf labels and nested child lists.  Each
    round pairs the two leaf children whose grouping lowers the summed
    node AIC the most, then transfers further leaves into the new node
    while that keeps improving; rounds repeat until no pair improves.
    Accepted moves are appended to ``trace``; one past the configured
    budget raises ``ConvergenceError``.

    Candidate DM fits start from the current fits by the aggregation
    property: a merged child starts at the sum of its parts' weights,
    every other child at its weight in the node or parent fit it comes
    from.  Candidates of a base that fell back to multinomial start
    cold.
    """
    label = "{" + ",".join(map(str, _leaves_under(children))) + "}"
    eps = cache.config.aic_epsilon

    def subsets():
        return [_leaves_under(ch) for ch in children]

    def leaf_positions():
        return [idx for idx, ch in enumerate(children)
                if isinstance(ch, int)]

    def record(move, node, delta):
        trace.append({"move": move, "parent": label,
                      "node": list(_leaves_under(node)), "delta_aic": delta})
        if len(trace) > cache.config.max_iterations:
            raise ConvergenceError("structure search exceeded the move budget")

    created: list = []
    while True:
        leaves = leaf_positions()
        if len(children) < 3 or len(leaves) < 2:
            break
        base = cache.node_aic(subsets())
        weights = cache.weights(subsets())
        best = None
        for a in range(len(leaves)):
            for b in range(a + 1, len(leaves)):
                i, j = leaves[a], leaves[b]
                merged = tuple(sorted((children[i], children[j])))
                rest = [s for idx, s in enumerate(subsets())
                        if idx not in (i, j)]
                start = None if weights is None else {
                    **weights, merged: weights[(children[i],)]
                    + weights[(children[j],)]}
                delta = (cache.node_aic(rest + [merged], start)
                         + cache.node_aic([(children[i],), (children[j],)],
                                          weights)
                         - base)
                if best is None or delta < best[0]:
                    best = (delta, i, j)
        if best is None or best[0] >= -eps:
            break
        _, i, j = best
        node = [children[i], children[j]]
        for idx in sorted((i, j), reverse=True):
            del children[idx]
        children.append(node)
        created.append(node)
        record("create", node, best[0])
        while len(children) >= 3:
            leaves = leaf_positions()
            if not leaves:
                break
            inner = [_leaves_under(ch) for ch in node]
            base = cache.node_aic(subsets()) + cache.node_aic(inner)
            outer_w, inner_w = cache.weights(subsets()), cache.weights(inner)
            best_t = None
            for pos in leaves:
                leaf = (children[pos],)
                grown = tuple(sorted(_leaves_under(node) + leaf))
                rest = [_leaves_under(ch) for idx, ch in
                        enumerate(children)
                        if idx != pos and ch is not node]
                rest.append(grown)
                rest_start = moved_start = None
                if outer_w is not None:
                    rest_start = {**outer_w, grown: outer_w[leaf]
                                  + outer_w[_leaves_under(node)]}
                    if inner_w is not None:
                        moved_start = {**inner_w, leaf: outer_w[leaf]}
                delta = (cache.node_aic(rest, rest_start)
                         + cache.node_aic(inner + [leaf], moved_start)
                         - base)
                if best_t is None or delta < best_t[0]:
                    best_t = (delta, pos)
            if best_t is None or best_t[0] >= -eps:
                break
            _, pos = best_t
            node.append(children[pos])
            del children[pos]
            record("transfer", node, best_t[0])
    return created


def search_tree(counts: np.ndarray, family: str = "nb",
                config: Optional[SearchConfig] = None):
    """Greedy AIC-driven tree search starting from the flat partition.

    Returns ``(model, report, trace)``: the fitted model on the selected
    tree, the per-node fit report from :func:`fit_tree` (which also
    serves as the final multinomial-versus-Dirichlet-multinomial pass),
    and the list of accepted structure moves in order.
    """
    config = config or SearchConfig()
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[1] < 2:
        raise UsageError("counts must be a matrix with at least 2 columns")
    cache = _FitCache(counts, config)
    trace: list = []
    children: list = list(range(1, counts.shape[1] + 1))
    _search_node(children, cache, trace)
    tree = PartitionTree.from_nested(children)
    model, report = fit_tree(tree, counts, family=family,
                             tol=config.dm_tol, max_iter=config.dm_max_iter)
    return model, report, trace
