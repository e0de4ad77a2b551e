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


def _log_multinomial_coef(data: np.ndarray) -> float:
    totals = data.sum(axis=1)
    return float(np.sum(gammaln(totals + 1)) - np.sum(gammaln(data + 1)))


def fit_node_multinomial(data: np.ndarray) -> FitResult:
    data = np.asarray(data, dtype=np.int64)
    colsum = data.sum(axis=0).astype(float)
    grand = colsum.sum()
    if grand <= 0:
        raise UsageError("node has no counts to fit")
    pi = colsum / grand
    with np.errstate(divide="ignore"):
        log_pi = np.where(pi > 0, np.log(np.maximum(pi, 1e-300)), 0.0)
    ll = _log_multinomial_coef(data) + float(colsum @ log_pi)
    return FitResult("multinomial", {"pi": pi}, ll, data.shape[1] - 1)


class _DmAggregates:
    """Survival-count sufficient statistics of one node's data.

    All likelihood quantities reduce to sums over u of S(u)/(theta+u)
    and S(u)*log(theta+u), which are exact (row-order independent) and
    cost O(max count) instead of O(rows) per evaluation.
    """

    def __init__(self, data: np.ndarray, totals: np.ndarray):
        self.col_surv = [_survival_counts(data[:, j])
                         for j in range(data.shape[1])]
        self.tot_surv = _survival_counts(totals)
        self.tot_u = np.arange(self.tot_surv.size)
        self.log_coef = _log_multinomial_coef(data)

    def log_lik(self, theta: np.ndarray) -> float:
        s = theta.sum()
        out = self.log_coef - float(
            self.tot_surv @ np.log(s + self.tot_u))
        for j, surv in enumerate(self.col_surv):
            if surv.size:
                out += float(surv @ np.log(theta[j] + np.arange(surv.size)))
        return out

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        s = theta.sum()
        common = float(self.tot_surv @ (1.0 / (s + self.tot_u)))
        grad = np.full(theta.size, -common)
        for j, surv in enumerate(self.col_surv):
            if surv.size:
                grad[j] += float(
                    surv @ (1.0 / (theta[j] + np.arange(surv.size))))
        return grad

    def curvature(self, theta: np.ndarray) -> Tuple[float, np.ndarray]:
        """(q, diag) of the Hessian q*ones + diag(d)."""
        s = theta.sum()
        q = float(self.tot_surv @ (1.0 / (s + self.tot_u) ** 2))
        diag = np.zeros(theta.size)
        for j, surv in enumerate(self.col_surv):
            if surv.size:
                diag[j] = -float(
                    surv @ (1.0 / (theta[j] + np.arange(surv.size)) ** 2))
        return q, diag

    def fixed_point_step(self, theta: np.ndarray) -> np.ndarray:
        s = theta.sum()
        denom = float(self.tot_surv @ (1.0 / (s + self.tot_u)))
        if denom <= 0:
            return theta
        new = np.empty_like(theta)
        for j, surv in enumerate(self.col_surv):
            numer = float(surv @ (1.0 / (theta[j] + np.arange(surv.size)))) \
                if surv.size else 0.0
            new[j] = theta[j] * numer / denom
        return new


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
                max_iter: int = 200) -> FitResult:
    """Newton MLE of the Dirichlet-multinomial weight vector.

    Starts from moment matching, refines by a few fixed-point sweeps,
    then Newton steps with a rank-one Hessian solve and backtracking.
    A weight-sum drifting past the divergence threshold (the multinomial
    boundary at infinity) sets ``divergence_flag`` instead of failing.
    """
    data = np.asarray(data, dtype=np.int64)
    totals = data.sum(axis=1)
    if data.shape[0] == 0 or totals.sum() <= 0:
        raise UsageError("node has no counts to fit")
    pos = totals > 0
    data, totals = data[pos], totals[pos]
    free = data.sum(axis=0) > 0
    k = data.shape[1]

    theta = np.maximum(_dm_moment_init(data, totals), THETA_FLOOR)
    theta[~free] = THETA_FLOOR
    agg = _DmAggregates(data, totals)
    log_lik = agg.log_lik

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
        grad = agg.gradient(theta)
        # the likelihood is only resolvable to ~|ll| * eps, so the
        # gradient criterion scales with the problem size
        if np.max(np.abs(grad[free])) < tol * (1.0 + abs(ll)):
            return FitResult("dm", {"theta": theta}, ll, k,
                             iterations=iterations)
        q, diag = agg.curvature(theta)
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
    of parameters, log-likelihood, and AIC.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape[1] != tree.leaf_count:
        raise UsageError(f"data has {counts.shape[1]} columns, tree has "
                         f"{tree.leaf_count} leaves")
    law_fit = fit_sum_law(counts.sum(axis=1), family)
    rows = [{"node": "total", "kind": law_fit.kind,
             "n_params": law_fit.n_params, "log_lik": law_fit.log_lik,
             "aic": law_fit.aic}]
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
                     "divergence": fit.divergence_flag})
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
    subsets."""

    def __init__(self, counts: np.ndarray, config: SearchConfig):
        self.counts = counts
        self.config = config
        self.cache: Dict[frozenset, float] = {}

    def node_aic(self, children: Sequence[Tuple[int, ...]]) -> float:
        key = frozenset(children)
        if key not in self.cache:
            data = self.counts @ incidence_matrix(
                sorted(children), self.counts.shape[1]).T
            try:
                fit = fit_node_dm(data, tol=self.config.dm_tol,
                                  max_iter=self.config.dm_max_iter)
                if fit.divergence_flag:
                    fit = fit_node_multinomial(data)
            except (ConvergenceError, UsageError):
                fit = fit_node_multinomial(data)
            self.cache[key] = fit.aic
        return self.cache[key]


def _leaves_under(child) -> Tuple[int, ...]:
    if isinstance(child, int):
        return (child,)
    return tuple(sorted(j for sub in child for j in _leaves_under(sub)))


def _search_node(children: list, cache: _FitCache, eps: float,
                 trace: list) -> None:
    """Greedy node creation among one node's children, in place.

    ``children`` holds int leaf labels and nested child lists.  Each
    round pairs the two leaf children whose grouping lowers the summed
    node AIC the most, then transfers further leaves into the new node
    while that keeps improving; rounds repeat until no pair improves.
    Afterwards every created node is searched the same way.
    """
    label = "{" + ",".join(map(str, _leaves_under(children))) + "}"

    def subsets():
        return [_leaves_under(ch) for ch in children]

    def leaf_positions():
        return [idx for idx, ch in enumerate(children)
                if isinstance(ch, int)]

    created: list = []
    while True:
        leaves = leaf_positions()
        if len(children) < 3 or len(leaves) < 2:
            break
        base = cache.node_aic(subsets())
        best = None
        for a in range(len(leaves)):
            for b in range(a + 1, len(leaves)):
                i, j = leaves[a], leaves[b]
                merged = tuple(sorted((children[i], children[j])))
                rest = [s for idx, s in enumerate(subsets())
                        if idx not in (i, j)]
                delta = (cache.node_aic(rest + [merged])
                         + cache.node_aic([(children[i],), (children[j],)])
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
        trace.append({"move": "create", "parent": label,
                      "node": list(_leaves_under(node)),
                      "delta_aic": best[0]})
        while len(children) >= 3:
            leaves = leaf_positions()
            if not leaves:
                break
            base = cache.node_aic(subsets()) \
                + cache.node_aic([_leaves_under(ch) for ch in node])
            best_t = None
            for pos in leaves:
                moved = [_leaves_under(ch) for ch in node] \
                    + [(children[pos],)]
                rest = [_leaves_under(ch) for idx, ch in
                        enumerate(children)
                        if idx != pos and ch is not node]
                rest.append(tuple(sorted(
                    _leaves_under(node) + (children[pos],))))
                delta = cache.node_aic(rest) + cache.node_aic(moved) - base
                if best_t is None or delta < best_t[0]:
                    best_t = (delta, pos)
            if best_t is None or best_t[0] >= -eps:
                break
            _, pos = best_t
            node.append(children[pos])
            del children[pos]
            trace.append({"move": "transfer", "parent": label,
                          "node": list(_leaves_under(node)),
                          "delta_aic": best_t[0]})
    for node in created:
        _search_node(node, cache, eps, trace)


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
    _search_node(children, cache, config.aic_epsilon, trace)
    if len(trace) > config.max_iterations:
        raise ConvergenceError("structure search exceeded the move budget")
    tree = PartitionTree.from_nested(children)
    model, report = fit_tree(tree, counts, family=family,
                             tol=config.dm_tol, max_iter=config.dm_max_iter)
    return model, report, trace
