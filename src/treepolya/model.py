"""Tree-structured Pólya splitting models.

A model is a partition tree with one Pólya split per internal node and a
univariate law on the grand total.  This module houses the joint p.m.f.,
exact sampling, marginals, factorial moments, and the
covariance / correlation structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from .exceptions import DomainError, UsageError, ValidationError
from .polya import (Dirac, NegativeBinomial, SplitSpec, SumLaw, count_array,
                    polya_log_pmf_many, polya_sample_many,
                    sumlaw_factorial_moment, sumlaw_log_pmf_many,
                    sumlaw_sample_many, sumlaw_support_max,
                    sumlaw_truncated_log_pmf)
from .special import LogValue, ln_gen_factorial_many
from .tree import PartitionTree

__all__ = [
    "TreePolyaModel", "MarginalChain", "ChainStage", "PathConstants",
    "absorb_binomials", "marginal_pmf", "marginal_pmf_vector",
]


def _classify(excess: float) -> str:
    if abs(excess) < 1e-12:
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


def _child_bounds(c: int, theta, bound, where: str) -> list:
    """Largest total each child of a split can receive, when the split's
    own totals are at most ``bound`` (None: unbounded).  A hypergeometric
    split (c = -1) needs a bound no larger than its |theta|; this is
    conservative, as ``bound`` is the largest possible total."""
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
        and stores the sum-law moments and, per node, the path constants
        gamma, delta and the dispersion sign its path's splits force.
        Marginal chains are built on first use (:meth:`marginal_chain`)."""
        tree = self.tree
        mu1, mu2 = (sumlaw_factorial_moment(r, self.sum_law) for r in (1, 2))
        gamma, delta = np.ones(len(tree)), np.ones(len(tree))
        implied = [None] * len(tree)
        implied[tree.ROOT] = _classify(mu2 - mu1 ** 2)
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
            child_bounds = _child_bounds(spec.c, spec.theta, bounds[nid],
                                         f"node {nid} {tree.subset(nid)}")
            sign = implied[nid]
            if spec.c != 0:
                forced = "over" if spec.c == 1 else "under"
                sign = forced if sign in ("null", forced) else None
            for cid, theta_c, child_bound in zip(tree.children(nid),
                                                 spec.theta, child_bounds):
                gamma[cid] = gamma[nid] * theta_c / spec.total
                delta[cid] = delta[nid] * (theta_c + spec.c) \
                    / (spec.total + spec.c)
                implied[cid] = sign
                bounds[cid] = child_bound
        chains = {tree.ROOT: MarginalChain((), self.sum_law)}
        for name, value in (("_mu", (mu1, mu2)), ("_gamma", gamma),
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
        return LogValue.from_log(
            self.joint_log_pmf_many(np.reshape(y, (1, -1)))[0])

    def sample_many(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Exact draws; returns shape (size, J) in leaf order.

        A node's totals are dropped once its children have their columns,
        so only the splits on the current root path hold draws."""
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

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_many(1, rng)[0]

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
        r = np.asarray(r, dtype=np.int64)
        if r.shape != (self.tree.leaf_count,):
            raise UsageError("moment order vector must have one entry per leaf")
        if np.any(r < 0):
            raise DomainError("moment orders must be nonnegative")
        total = sumlaw_factorial_moment(int(r.sum()), self.sum_law)
        # the product over splits of (theta_C)_(r_C) / (|theta|)_(r_A) is
        # their p.m.f. at the subsums of r times prod_j r_j! / |r|!
        log = (self._splits_log_pmf((self.tree.incidence @ r)[None, :])[0]
               + gammaln(r + 1).sum() - gammaln(r.sum() + 1))
        return total * math.exp(log)

    def node_factorial_moment(self, node: int, r: int) -> float:
        """r-th factorial moment of the subsum at a node (root path
        product)."""
        total = sumlaw_factorial_moment(r, self.sum_law)
        path = self.tree.root_path(node)
        # (theta_C)_r / (|theta|)_r is the split's probability of giving
        # all of r to the child C
        for child, parent in zip(path, path[1:]):
            y = [r if c == child else 0 for c in self.tree.children(parent)]
            total *= math.exp(polya_log_pmf_many([y], self.splits[parent])[0])
        return total

    def _moments(self) -> tuple:
        """Mean, variance and Var - E of every node subsum, by node id."""
        mu1, mu2 = self._mu
        gamma, delta = self._gamma, self._delta
        excess = gamma * (delta * mu2 - gamma * mu1 ** 2)
        return gamma * mu1, excess + gamma * mu1, excess

    def node_mean(self, node: int) -> float:
        return float(self._moments()[0][node])

    def node_variance(self, node: int) -> float:
        return float(self._moments()[1][node])

    # -- covariance / correlation -------------------------------------

    def _pair_bracket(self, s: int) -> float:
        """Common factor of covariances separated at ancestor node s."""
        mu1, mu2 = self._mu
        spec = self.splits[s]
        return (spec.total / (spec.total + spec.c)) \
            * (self._delta[s] / self._gamma[s]) * mu2 - mu1 ** 2

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
        _, var, _ = self._moments()
        leaves = sorted(tree.leaf_ids, key=lambda nid: tree.subset(nid)[0])
        bad = np.flatnonzero(var[leaves] <= 0)
        if bad.size:
            raise DomainError(f"leaf {bad[0] + 1} has non-positive variance; "
                              "correlation undefined")
        lam = self._gamma[leaves] / np.sqrt(var[leaves])  # in label order
        out = np.eye(tree.leaf_count)
        # a leaf pair is separated at exactly one node: the blocks of
        # leaves under two distinct children of it
        for s in tree.internal_ids:
            bracket = self._pair_bracket(s)
            cols = [np.array(tree.subset(c)) - 1 for c in tree.children(s)]
            for k, left in enumerate(cols):
                for right in cols[k + 1:]:
                    block = bracket * np.outer(lam[left], lam[right])
                    out[np.ix_(left, right)] = block
                    out[np.ix_(right, left)] = block.T
        return out

    def dispersion_report(self) -> dict:
        """Sign of Var - E for the total and every node subsum.

        Each entry is 'under', 'null', or 'over'; ``implied`` carries the
        sign forced by the split kinds along the path when one is forced.
        """
        _, _, excess = self._moments()
        return {"sum_law": self._implied[self.tree.ROOT],
                "nodes": {nid: {"subset": self.tree.subset(nid),
                                "dispersion": _classify(excess[nid]),
                                "implied": self._implied[nid]}
                          for nid in range(len(self.tree))}}

    @property
    def parameter_count(self) -> int:
        """Free parameters: sum-law parameters plus per-split degrees."""
        from .polya import Poisson
        law_params = 1 if isinstance(self.sum_law, (Dirac, Poisson)) else 2
        count = law_params
        for spec in self.splits.values():
            count += spec.arity if spec.c == 1 else spec.arity - 1
        return count


# ---------------------------------------------------------------------
# Marginal p.m.f. machinery


def absorb_binomials(chain: MarginalChain) -> MarginalChain:
    """Collapse the multinomial stages of a chain into its negative
    binomial terminal, leaving only beta-binomial stages."""
    if not isinstance(chain.terminal, NegativeBinomial):
        raise UsageError("absorption needs a negative binomial terminal")
    if any(st.c == -1 for st in chain.stages):
        raise UsageError("absorption does not cover hypergeometric stages")
    gamma = 1.0
    kept = []
    for st in chain.stages:
        if st.c == 0:
            gamma *= st.theta_num / (st.theta_num + st.theta_rest)
        else:
            kept.append(st)
    p = chain.terminal.p
    new_p = p * gamma / (1.0 - p * (1.0 - gamma))
    return MarginalChain(tuple(kept),
                         NegativeBinomial(chain.terminal.alpha, new_p))


# entries in one row block of a stage kernel: 512 KB per float array
# bounds the memory, and ran faster than 2 MB blocks
_BLOCK_ENTRIES = 1 << 16


def _thin(stage: ChainStage, dist: np.ndarray) -> np.ndarray:
    """child[y] = sum_{t >= y} K[y, t] dist[t] for one thinning stage,
    K[y, t] = C(t, y) (a)_y (b)_{t-y} / (a + b)_t in the split's
    generalized factorials, evaluated in row blocks of at most
    ``_BLOCK_ENTRIES`` entries; every entry is a probability, so the
    composition is cancellation-free."""
    size = dist.size
    n = np.arange(size, dtype=float)
    lf = gammaln(n + 1)
    by_y = ln_gen_factorial_many(stage.theta_num, n, stage.c) - lf
    by_rest = ln_gen_factorial_many(stage.theta_rest, n, stage.c) - lf
    by_t = lf - ln_gen_factorial_many(stage.theta_num + stage.theta_rest,
                                      n, stage.c)
    # a hypergeometric total above |theta| cannot be split: no mass
    by_t[np.isposinf(by_t)] = -np.inf
    rows = max(1, _BLOCK_ENTRIES // size)
    # block row i, column j (y = y0 + i, t = y0 + j) reads by_rest[j - i]
    # from window rows - 1 - i, whose leading -inf make K zero for t < y
    windows = sliding_window_view(
        np.concatenate([np.full(rows - 1, -np.inf), by_rest]), size)
    child = np.empty(size)
    # one buffer for every block: a fresh one per block costs page faults
    # whenever the allocator hands large blocks back to the system
    buffer = np.empty(rows * size)
    for y0 in range(0, size, rows):
        y1 = min(y0 + rows, size)
        logk = buffer[:(y1 - y0) * (size - y0)].reshape(y1 - y0, size - y0)
        np.add(windows[rows - (y1 - y0):rows][::-1, :size - y0],
               by_y[y0:y1, None], out=logk)
        logk += by_t[y0:]
        child[y0:y1] = np.exp(logk, out=logk) @ dist[y0:]
    return child


@lru_cache(maxsize=32)
def marginal_pmf_vector(chain: MarginalChain,
                        tail: float = 1e-14) -> np.ndarray:
    """Read-only p.m.f. of a marginal chain over 0..N.

    The terminal law is cut at N, the point where its remaining mass
    falls below ``tail`` (N is exact for bounded laws), its log-p.m.f.
    evaluated once over 0..N (:func:`sumlaw_truncated_log_pmf`), and the
    stages are applied from the root side.  Each value is within ``tail``
    of the exact one, and the mass past N is at most ``tail``.  Multinomial
    stages over a negative binomial terminal are absorbed into it first,
    which shortens N.  A hypergeometric stage whose |theta| is below a
    total that can reach it, or that sits under an unbounded terminal,
    raises ``ValidationError``, by the rule models are checked with.
    """
    bound = sumlaw_support_max(chain.terminal)
    for depth, st in enumerate(reversed(chain.stages)):
        bound = _child_bounds(st.c, (st.theta_num, st.theta_rest), bound,
                              f"chain stage {depth} from the root")[0]
    if isinstance(chain.terminal, NegativeBinomial) \
            and all(st.c != -1 for st in chain.stages):
        chain = absorb_binomials(chain)
    dist = np.exp(sumlaw_truncated_log_pmf(chain.terminal, tail))
    for st in reversed(chain.stages):  # root side first
        dist = _thin(st, dist)
    dist.setflags(write=False)
    return dist


def marginal_pmf(chain: MarginalChain, n, tail: float = 1e-14) -> float:
    """P.m.f. of a marginal chain at n: a lookup in
    :func:`marginal_pmf_vector`, so within ``tail`` of the exact value.

    Negative or non-integer n has zero mass, as does n past the vector's
    end; NaN or infinite n raises ``UsageError``.
    """
    n = float(count_array(n))
    if n < 0 or n != math.floor(n):
        return 0.0
    vec = marginal_pmf_vector(chain, tail)
    return float(vec[int(n)]) if n < vec.size else 0.0
