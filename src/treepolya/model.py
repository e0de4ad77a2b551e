"""Tree-structured Pólya splitting models.

A model is a partition tree with one Pólya split per internal node and a
univariate law on the grand total.  This module houses the joint p.m.f.,
exact sampling, marginals, factorial moments, and the
covariance / correlation structure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Dict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from .exceptions import DomainError, UsageError, ValidationError
from .polya import (SplitSpec, SumLaw, _exp_moment, _in_range,
                    _law_from_series, _sumlaw_log_moment, _sumlaw_series,
                    count_array, count_int64, count_scalar,
                    polya_log_pmf_many, polya_sample_many, sumlaw_log_pmf_many,
                    sumlaw_sample_many, sumlaw_support_max,
                    sumlaw_truncated_log_pmf)
from .special import LogValue, ln_gen_factorial_many
from .tree import PartitionTree

__all__ = [
    "TreePolyaModel", "MarginalChain", "ChainStage", "PathConstants",
    "absorb_binomials", "marginal_pmf", "marginal_pmf_vector",
]


# numpy's largest Poisson mean (its POISSON_LAM_MAX): int64's maximum
# less ten standard deviations, so a draw stays inside int64
_POISSON_RATE_MAX = float(np.iinfo(np.int64).max) \
    - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _classify(excess: float) -> str:
    if excess == 0:
        return "null"
    return "over" if excess > 0 else "under"


@dataclass(frozen=True)
class PathConstants:
    """Products of weight ratios along a node's path to the root.

    ``gamma`` multiplies first factorial moments, ``delta`` (with
    ``gamma``) second ones; both lie in (0, 1] and coincide when every
    split on the path is multinomial.
    """

    gamma: float
    delta: float


@dataclass(frozen=True)
class ChainStage:
    """One thinning stage of a marginal: a two-component Pólya with the
    focal weight ``theta_num`` against the combined rest ``theta_rest``."""

    c: int
    theta_num: float
    theta_rest: float


@dataclass(frozen=True)
class MarginalChain:
    """Marginal law of one node: thinning stages (leaf side first)
    terminated by the law of the grand total."""

    stages: tuple
    terminal: SumLaw

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the fields, computed once: every cached
        marginal lookup hashes its chain, and with it each stage."""
        return hash((self.stages, self.terminal))


def _child_bounds(c: int, theta, bound, where: str) -> list:
    """Largest total each child of a split can receive, when the split's
    own totals are at most ``bound`` (None: unbounded).  A hypergeometric
    split (c = -1) needs a bound no larger than its |theta|; this is
    conservative, as ``bound`` is the largest possible total.  ``where``
    names the split in an error, so only a hypergeometric split needs
    it."""
    if c != -1:
        return [bound] * len(theta)
    if bound is None:
        raise ValidationError(
            f"{where} uses a hypergeometric split under an unbounded total")
    if sum(theta) < bound:
        raise ValidationError(f"{where}: |theta|={sum(theta)} is below "
                              f"the maximal total {bound}")
    return [min(bound, int(round(t))) for t in theta]


@dataclass(frozen=True)
class TreePolyaModel:
    tree: PartitionTree
    splits: Dict[int, SplitSpec]
    sum_law: SumLaw

    def __post_init__(self):
        internal = set(self.tree.internal_ids)
        if set(self.splits) != internal:
            raise ValidationError(
                f"splits given for nodes {sorted(self.splits)} but internal "
                f"nodes are {sorted(internal)}")
        self._top_down()

    def _top_down(self):
        """One pass from the root: checks each split's arity and support,
        and stores the sum law's mean and Var - E and, per node, the path
        constants gamma, delta and the dispersion sign its path's splits
        force.  Marginal chains are built on first use
        (:meth:`marginal_chain`).  A node's subset is formatted only for
        an error, so the pass is linear in the nodes."""
        tree = self.tree
        c, base, scale = _sumlaw_series(self.sum_law)
        mu1, law_excess = base * scale, c * base * scale ** 2
        gamma, delta = np.ones(len(tree)), np.ones(len(tree))
        implied = [None] * len(tree)
        implied[tree.ROOT] = _classify(law_excess)
        # conservative bound: every node inherits the sum law's maximum,
        # tightened to theta_C below a hypergeometric split
        bounds = {tree.ROOT: sumlaw_support_max(self.sum_law)}
        for nid in tree.preorder():
            if tree.is_leaf(nid):
                continue
            spec = self.splits[nid]
            arity = len(tree.children(nid))
            if spec.arity != arity:
                raise ValidationError(
                    f"node {nid} {tree.subset(nid)} has {arity} "
                    f"children but a {spec.arity}-component split")
            child_bounds = _child_bounds(
                spec.c, spec.theta, bounds[nid],
                f"node {nid} {tree.subset(nid)}" if spec.c == -1 else "")
            sign = implied[nid]
            if spec.c != 0:
                forced = "over" if spec.c == 1 else "under"
                sign = forced if sign in ("null", forced) else None
            total = spec.total
            for cid, theta_c, child_bound in zip(tree.children(nid),
                                                 spec.theta, child_bounds):
                gamma[cid] = gamma[nid] * theta_c / total
                delta[cid] = delta[nid] * (theta_c + spec.c) \
                    / (total + spec.c)
                implied[cid] = sign
                bounds[cid] = child_bound
        chains = {tree.ROOT: MarginalChain((), self.sum_law)}
        for name, value in (("_mu", (mu1, law_excess)), ("_gamma", gamma),
                            ("_delta", delta), ("_implied", implied),
                            ("_chains", chains)):
            object.__setattr__(self, name, value)

    # -- joint law ----------------------------------------------------

    def joint_log_pmf_many(self, rows) -> np.ndarray:
        """Log joint p.m.f. of each row of an (n, J) count array in leaf
        order; ``-inf`` for rows of zero mass."""
        rows = count_array(rows)
        if rows.ndim != 2 or rows.shape[1] != self.tree.leaf_count:
            raise UsageError(f"observations of shape {rows.shape} do not "
                             f"match {self.tree.leaf_count} leaves")
        sums = rows @ self.tree.incidence.T
        return (sumlaw_log_pmf_many(sums[:, self.tree.ROOT], self.sum_law)
                + self._splits_log_pmf(sums))

    def _splits_log_pmf(self, sums: np.ndarray) -> np.ndarray:
        """Sum over internal nodes of each split's log p.m.f. at its child
        subsums; ``sums`` has one column per node id."""
        out = np.zeros(sums.shape[0])
        for nid in self.tree.internal_ids:
            out += polya_log_pmf_many(sums[:, list(self.tree.children(nid))],
                                      self.splits[nid])
        return out

    def joint_log_pmf(self, y) -> LogValue:
        """Log joint p.m.f. of one observation, a count vector in leaf
        order."""
        y = count_array(y)
        if y.ndim != 1:
            raise UsageError(f"an observation is a count vector, not an "
                             f"array of shape {y.shape}")
        return LogValue.from_log(self.joint_log_pmf_many(y[None, :])[0])

    def sample_many(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Exact draws; returns shape (size, J) in leaf order.

        A Poisson or NB total (c = 0 or 1) takes the rate route
        (:meth:`_sample_rates`), a bounded one (c = -1) the conditional
        route (:meth:`_sample_conditional`): the same law from different
        streams.  A law past numpy's samplers raises ``DomainError``."""
        law = self.sum_law
        c, base, scale = _sumlaw_series(law)
        if c == -1:
            return self._sample_conditional(size, rng)
        rate = (rng.standard_gamma(base, size) if c == 1
                else np.full(size, base)) * scale
        # a leaf's rate is at most its row's, so this bounds every draw
        if not rate.max(initial=0.0) <= _POISSON_RATE_MAX:  # NaN too
            raise DomainError(
                f"{law} cannot be sampled: a row's total has Poisson rate "
                f"{rate.max():.6g}, past numpy's limit "
                f"{_POISSON_RATE_MAX:.6g}")
        return self._sample_rates(rate, rng)

    def _sample_rates(self, rate: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
        """Draws given each row's Poisson rate for the total (Jones &
        Marchand 2019, "Multivariate discrete distributions via sums and
        shares"): a multinomial split shares a Poisson count's rate by
        theta_j / |theta|, a DM split by Dirichlet(theta) proportions,
        and shares of a Poisson count are independent Poisson counts.

        A node's rates are dropped once its children have theirs.  The
        proportions come from ``rng.dirichlet``, which keeps them finite
        where every gamma draw of a normalised form underflows to 0 (all
        weights ~1e-10, as a fit leaves on empty children)."""
        tree = self.tree
        out = np.empty((rate.size, tree.leaf_count), dtype=np.int64)
        rates = {tree.ROOT: rate}
        for nid in tree.preorder():
            rate = rates.pop(nid)
            if tree.is_leaf(nid):
                out[:, tree.subset(nid)[0] - 1] = rng.poisson(rate)
                continue
            spec = self.splits[nid]
            # _child_bounds rejects a hypergeometric split here
            shares = rng.dirichlet(spec.theta, rate.size).T if spec.c \
                else [theta / spec.total for theta in spec.theta]
            for cid, share in zip(tree.children(nid), shares):
                rates[cid] = rate * share
        return out

    def _sample_conditional(self, size: int,
                            rng: np.random.Generator) -> np.ndarray:
        """Draws of the total, then of each split's components given its
        total (:func:`polya_sample_many`), which any sum law and split
        kind allows.  A node's totals are dropped once its children have
        their columns, so only the splits on the current root path hold
        draws."""
        totals = {self.tree.ROOT: sumlaw_sample_many(self.sum_law, size, rng)}
        out = np.zeros((size, self.tree.leaf_count), dtype=np.int64)
        for nid in self.tree.preorder():
            if self.tree.is_leaf(nid):
                out[:, self.tree.subset(nid)[0] - 1] = totals.pop(nid)
                continue
            parts = polya_sample_many(totals.pop(nid), self.splits[nid], rng)
            for k, cid in enumerate(self.tree.children(nid)):
                totals[cid] = parts[:, k]
        return out

    # -- paths and moments --------------------------------------------

    def _edge_weight(self, child: int) -> tuple:
        """(theta attached to ``child``, parent split) for a non-root node."""
        parent = self.tree.parent(child)
        spec = self.splits[parent]
        idx = self.tree.children(parent).index(child)
        return spec.theta[idx], spec

    def path_constants(self, node: int) -> PathConstants:
        return PathConstants(float(self._gamma[node]),
                             float(self._delta[node]))

    def marginal_chain(self, node: int) -> MarginalChain:
        """Thinning-stage representation of the law of a node's subsum:
        its own stage, then its parent's chain.  Chains are built on first
        use, down from the nearest ancestor already built, and kept."""
        chains = self._chains
        if node in chains:
            return chains[node]
        path = []
        while node not in chains:
            path.append(node)
            node = self.tree.parent(node)
        for child in reversed(path):
            theta, spec = self._edge_weight(child)
            stage = ChainStage(spec.c, theta, spec.total - theta)
            chains[child] = MarginalChain((stage,) + chains[node].stages,
                                          self.sum_law)
            node = child
        return chains[node]

    def leaf_marginal_chain(self, leaf_label: int) -> MarginalChain:
        return self.marginal_chain(self.tree.leaf_node(leaf_label))

    def factorial_moment(self, r) -> float:
        """Mixed factorial moment E[prod_j (Y_j)(Y_j-1)...(Y_j-r_j+1)]."""
        r = count_array(r)
        if r.shape != (self.tree.leaf_count,):
            raise UsageError("moment order vector must have one entry per "
                             "leaf")
        if np.any(r < 0):
            raise DomainError("moment orders must be nonnegative")
        r = count_int64(r)
        # the product over splits of (theta_C)_(r_C) / (|theta|)_(r_A) is
        # their p.m.f. at the subsums of r times prod_j r_j! / |r|!
        log = (_sumlaw_log_moment(int(r.sum()), self.sum_law)
               + self._splits_log_pmf((self.tree.incidence @ r)[None, :])[0]
               + gammaln(r + 1).sum() - gammaln(r.sum() + 1))
        return _exp_moment(log, f"the factorial moment {r.tolist()}")

    def node_factorial_moment(self, node: int, r: int) -> float:
        """r-th factorial moment of a node subsum, a root path product."""
        log = _sumlaw_log_moment(r, self.sum_law)
        # (theta_C)_r / (|theta|)_r is the split's probability of giving
        # all of r to the child C: the splits' p.m.f. at subsums that are
        # r along the root path and 0 elsewhere
        sums = np.zeros((1, len(self.tree)))
        sums[0, self.tree.root_path(node)] = r
        return _exp_moment(log + self._splits_log_pmf(sums)[0],
                           f"node {node}'s order-{r} factorial moment")

    @cached_property
    def _moments(self) -> tuple:
        """Read-only mean, variance and Var - E of every node subsum, by
        node id, computed once.  With the law's mean mu1 and Var - E e,
        a node's second factorial moment is gamma delta (e + mu1**2), so
        its Var - E is gamma ((delta - gamma) mu1 mu1 + delta e): along
        multinomial splits delta is gamma, and nothing cancels."""
        mu1, law_excess = self._mu
        _in_range(mu1, f"the mean of {self.sum_law}")
        gamma, delta = self._gamma, self._delta
        with np.errstate(over="ignore"):
            excess = gamma * ((delta - gamma) * mu1 * mu1 + delta * law_excess)
            mean = gamma * mu1
            out = mean, excess + mean, excess
        for array in out:
            array.setflags(write=False)
        return out

    def node_mean(self, node: int) -> float:
        return _in_range(self._moments[0][node], f"node {node}'s mean")

    def node_variance(self, node: int) -> float:
        return _in_range(self._moments[1][node], f"node {node}'s variance")

    # -- covariance / correlation -------------------------------------

    def _pair_bracket(self, s: int) -> float:
        """Common factor of covariances separated at ancestor node s:
        r mu2 - mu1**2 for the ratio r below, written as
        (r - 1) mu1 mu1 + r e with the law's Var - E e, as r is exactly 1
        when s and its path split multinomially; a float overflows to inf."""
        mu1, law_excess = self._mu
        spec = self.splits[s]
        r = (spec.total / (spec.total + spec.c)) \
            * float(self._delta[s] / self._gamma[s])
        return _in_range((r - 1.0) * mu1 * mu1 + r * law_excess,
                         f"the covariance factor of node {s}")

    def covariance(self, i: int, j: int) -> float:
        """Covariance of the leaf counts for 1-based labels i and j."""
        node_i = self.tree.leaf_node(i)
        if i == j:
            return self.node_variance(node_i)
        return self.node_covariance(node_i, self.tree.leaf_node(j))

    def node_covariance(self, a: int, b: int) -> float:
        """Covariance of two disjoint node subsums."""
        if set(self.tree.subset(a)) & set(self.tree.subset(b)):
            raise UsageError("node subsets must be disjoint")
        s, _, _ = self.tree.common_ancestor(a, b)
        return float(self._gamma[a] * self._gamma[b] * self._pair_bracket(s))

    def covariance_ratio(self, c_a1: int, c_a2: int, c_b: int):
        """Ratio of covariances against a third node; equals the weight
        ratio of the two siblings.  Returns (ratio, cov1, cov2)."""
        a = self.tree.parent(c_a1)
        if a is None or self.tree.parent(c_a2) != a:
            raise UsageError("first two nodes must be siblings")
        b = self.tree.parent(c_b)
        if b is None:
            raise UsageError("third node must not be the root")
        if b == a:
            raise UsageError("third node must come from a different split")
        if self.tree.parent(a) == b:
            raise UsageError("the siblings' parent must not be a child "
                             "of the third node's split")
        sub_b = set(self.tree.subset(b))
        for cid in (c_a1, c_a2):
            if sub_b <= set(self.tree.subset(cid)):
                raise UsageError("third node's parent descends from a sibling")
        theta1, _ = self._edge_weight(c_a1)
        theta2, _ = self._edge_weight(c_a2)
        return (theta1 / theta2, self.node_covariance(c_a1, c_b),
                self.node_covariance(c_a2, c_b))

    def correlation_matrix(self) -> np.ndarray:
        tree = self.tree
        leaves = sorted(tree.leaf_ids, key=lambda nid: tree.subset(nid)[0])
        var = np.array([self.node_variance(nid) for nid in leaves])
        bad = np.flatnonzero(var <= 0)
        if bad.size:
            raise DomainError(f"leaf {bad[0] + 1} has non-positive variance; "
                              "correlation undefined")
        lam = self._gamma[leaves] / np.sqrt(var)  # in label order
        out = np.eye(tree.leaf_count)
        # a leaf pair is separated at exactly one node: the blocks of
        # leaves under two distinct children of it
        for s in tree.internal_ids:
            bracket = self._pair_bracket(s)
            cols = [np.array(tree.subset(c)) - 1 for c in tree.children(s)]
            for k, left in enumerate(cols):
                for right in cols[k + 1:]:
                    block = bracket * np.outer(lam[left], lam[right])
                    out[left[:, None], right] = block
                    out[right[:, None], left] = block.T
        return out

    def dispersion_report(self) -> dict:
        """Sign of Var - E for the total and every node subsum.

        Each entry is 'under', 'null', or 'over'; ``implied`` carries the
        sign forced by the split kinds along the path when one is forced.
        """
        _, _, excess = self._moments
        return {"sum_law": self._implied[self.tree.ROOT],
                "nodes": {nid: {"subset": self.tree.subset(nid),
                                "dispersion": _classify(excess[nid]),
                                "implied": self._implied[nid]}
                          for nid in range(len(self.tree))}}

    @property
    def parameter_count(self) -> int:
        """Free parameters: sum-law parameters plus per-split degrees."""
        return len(fields(self.sum_law)) + sum(
            spec.arity if spec.c == 1 else spec.arity - 1
            for spec in self.splits.values())


# ---------------------------------------------------------------------
# Marginal p.m.f. machinery


def absorb_binomials(chain: MarginalChain) -> MarginalChain:
    """Fold every stage with a closed form into the terminal law on its
    series form (c, base, scale), from the root side: a multinomial
    stage multiplies scale by its share, as binomial thinning commutes
    with every Pólya split, and a stage of kind c whose |theta| is base,
    with no stage kept above it, sets base to its theta_num (NB/DM and
    binomial/hypergeometric closure; Peyhardi, Fernique & Durand 2021).
    Other stages are kept; a chain with nothing to fold is returned."""
    c, base, scale = _sumlaw_series(chain.terminal)
    kept = []
    for st in reversed(chain.stages):  # root side first
        if st.c == 0:
            scale *= st.theta_num / (st.theta_num + st.theta_rest)
        elif st.c == c and not kept and st.theta_num + st.theta_rest == base:
            base = st.theta_num
        else:
            kept.append(st)
    if len(kept) == len(chain.stages):
        return chain
    return MarginalChain(tuple(reversed(kept)),
                         _law_from_series(c, base, scale))


# entries in one row block of the entry-by-entry kernel (flagged rows):
# 512 KB per float array bounds the memory, and beat 2 MB blocks
_BLOCK_ENTRIES = 1 << 16
# the terminal law's mass that a marginal leaves past its grid, and so
# the absolute error of each marginal value
MARGINAL_TAIL = 1e-14


def _thin(stage: ChainStage, dist: np.ndarray, direct=False) -> np.ndarray:
    """child[y] = sum_{t >= y} K[y, t] dist[t] for one thinning stage,
    K[y, t] = C(t, y) (a)_y (b)_{t-y} / (a + b)_t = e^(by_y[y] +
    by_rest[t - y] + by_t[t]) in the split's generalized factorials, as
    one correlation of G = e^(by_rest - g0) and W = e^(by_t + log dist -
    w0), g0 and w0 their exponents' maxima rounded up (README).  The run
    of rows where underflow could lose MARGINAL_TAIL / N (by_y is concave
    or decreasing) is recomputed entry by entry in row blocks of
    ``_BLOCK_ENTRIES`` entries, as is every row where ``direct``."""
    size = dist.size
    n = np.arange(size, dtype=float)
    lf = gammaln(n + 1)
    by_y = ln_gen_factorial_many(stage.theta_num, n, stage.c) - lf
    by_rest = ln_gen_factorial_many(stage.theta_rest, n, stage.c) - lf
    by_t = lf - ln_gen_factorial_many(stage.theta_num + stage.theta_rest,
                                      n, stage.c)
    # a hypergeometric total above |theta| cannot be split: no mass
    by_t[np.isposinf(by_t)] = -np.inf
    child, lo, hi = np.empty(size), 0, size
    if not direct:
        # log 0 is -inf, and a row whose factor overflows is recomputed
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            weight = by_t + np.log(dist)
            g0, w0 = math.ceil(by_rest.max()), math.ceil(weight.max())
            sums = np.correlate(np.pad(np.exp(weight - w0), (0, size - 1)),
                                np.exp(by_rest - g0), "valid")
            scale = by_y + (g0 + w0)
            child = np.exp(scale) * sums
        flagged = np.flatnonzero(scale > math.log(
            MARGINAL_TAIL / np.finfo(float).tiny) - 2 * math.log(size))
        lo, hi = (flagged[0], flagged[-1] + 1) if flagged.size else (0, 0)
        logging.getLogger(__name__).debug(
            "%s: %d of %d rows entry by entry", stage, hi - lo, size)
    rows = max(1, _BLOCK_ENTRIES // size)
    # block row i, column j (y = y0 + i, t = y0 + j) reads by_rest[j - i]
    # from window rows - 1 - i, whose leading -inf make K zero for t < y
    windows = sliding_window_view(
        np.concatenate([np.full(rows - 1, -np.inf), by_rest]), size)
    # one buffer for every block: a fresh one per block costs page faults
    # whenever the allocator hands large blocks back to the system
    buffer = np.empty(min(rows, hi - lo) * size)
    for y0 in range(lo, hi, rows):
        y1 = min(y0 + rows, hi)
        logk = buffer[:(y1 - y0) * (size - y0)].reshape(y1 - y0, size - y0)
        np.add(windows[rows - (y1 - y0):rows][::-1, :size - y0],
               by_y[y0:y1, None], out=logk)
        logk += by_t[y0:]
        child[y0:y1] = np.exp(logk, out=logk) @ dist[y0:]
    return child


@lru_cache(maxsize=32)
def marginal_pmf_vector(chain: MarginalChain) -> np.ndarray:
    """Read-only p.m.f. of a marginal chain over 0..N.

    The terminal law is cut at N, the point where its remaining mass
    falls below ``MARGINAL_TAIL`` (N is exact for bounded laws), its
    log-p.m.f. evaluated once over 0..N (:func:`sumlaw_truncated_log_pmf`),
    and the stages are applied from the root side.  Each value is within
    that tail of the exact one, and so is the mass past N.  Stages with
    a closed form are absorbed into the terminal first
    (:func:`absorb_binomials`).  A hypergeometric stage whose |theta| is
    below a total that can reach it, or that sits under an unbounded
    terminal, raises ``ValidationError``, as models are checked.
    """
    bound = sumlaw_support_max(chain.terminal)
    for depth, st in enumerate(reversed(chain.stages)):
        bound = _child_bounds(st.c, (st.theta_num, st.theta_rest), bound,
                              f"chain stage {depth} from the root")[0]
    chain = absorb_binomials(chain)
    dist = np.exp(sumlaw_truncated_log_pmf(chain.terminal, MARGINAL_TAIL))
    for st in reversed(chain.stages):  # root side first
        dist = _thin(st, dist)
    dist.setflags(write=False)
    return dist


def marginal_pmf(chain: MarginalChain, n: int) -> float:
    """P.m.f. of a marginal chain at n: a lookup in
    :func:`marginal_pmf_vector`, so within ``MARGINAL_TAIL`` of the exact
    value.

    Negative or non-integer n has zero mass, as does n past the vector's
    end; NaN or infinite n raises ``UsageError``.
    """
    if type(n) is not int:
        n = float(count_scalar(n))
        if n < 0 or n != math.floor(n):
            return 0.0
        n = int(n)
    elif n < 0:
        return 0.0
    vec = marginal_pmf_vector(chain)
    return float(vec[n]) if n < vec.size else 0.0
