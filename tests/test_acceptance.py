"""Acceptance gate: one test per acceptance criterion.

Each test prints a single ``criterion N: PASS``/``FAIL`` line (run with
``pytest tests/test_acceptance.py -s`` to see them as they complete).
Criteria 1-9 are self-contained.  Criteria 10-12 compare against the
Trichoptera survey dataset and run only when the environment variable
TRICHOPTERA_CSV points at the count CSV; they are skipped otherwise.
"""

import dataclasses
import itertools
import math
import os

import numpy as np
import pytest

from conftest import enumerate_joint, simplex
from treepolya.fit import (
    fit_node_dm,
    fit_node_multinomial,
    fit_sum_law,
    fit_tree,
    node_data,
    search_tree,
)
from treepolya.io import load_counts_csv
from treepolya.model import (
    ChainStage,
    MarginalChain,
    TreePolyaModel,
    absorb_binomials,
    marginal_pmf,
)
from treepolya.polya import (
    Dirac,
    NegativeBinomial,
    SplitSpec,
    polya_pmf,
    polya_uni_pmf,
    sumlaw_log_pmf,
    sumlaw_truncation_point,
)
from treepolya.tree import PartitionTree
from treepolya.examples import TEN_LEAF_NESTED, ten_leaf_example


def _report(num, ok, detail=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _random_dirac_model(rng, max_leaves=5, max_total=8):
    """Random small tree with c in {0,1} splits and a Dirac total."""
    j = int(rng.integers(3, max_leaves + 1))
    labels = list(range(1, j + 1))
    nested = list(labels)
    while rng.random() < 0.7 and len(nested) > 2:
        i = int(rng.integers(0, len(nested) - 1))
        nested[i:i + 2] = [[nested[i], nested[i + 1]]]
    tree = PartitionTree.from_nested(nested)
    splits = {}
    for nid in tree.internal_ids:
        arity = len(tree.children(nid))
        c = int(rng.integers(0, 2))
        theta = tuple(float(t) for t in rng.uniform(0.3, 4.0, size=arity))
        if c == 0:
            s = sum(theta)
            theta = tuple(t / s for t in theta)
        splits[nid] = SplitSpec(c, theta)
    return TreePolyaModel(tree, splits, Dirac(int(rng.integers(2, max_total + 1))))


def test_criterion_1_simplex_normalization():
    worst = 0.0
    for arity in (2, 3, 4):
        for n in (0, 3, 8, 15):
            specs = [
                SplitSpec(0, tuple(np.full(arity, 1.0 / arity))),
                SplitSpec(0, tuple((np.arange(arity) + 1.0)
                                   / np.arange(1, arity + 1).sum())),
                SplitSpec(1, tuple(0.4 + 0.7 * np.arange(arity))),
                SplitSpec(1, tuple(np.full(arity, 2.5))),
                SplitSpec(-1, tuple(float(8 + 2 * k) for k in range(arity))),
            ]
            for spec in specs:
                total = math.fsum(
                    polya_pmf(y, spec).to_float() for y in simplex(n, arity))
                worst = max(worst, abs(total - 1.0))
    _report(1, worst <= 1e-10, f"max |sum-1| = {worst:.2e}")


def test_criterion_2_joint_normalization():
    rng = np.random.default_rng(9001)
    worst = 0.0
    models = [_random_dirac_model(rng, max_leaves=5, max_total=12)
              for _ in range(4)]
    for model in models:
        m = model.sum_law.m
        total = math.fsum(enumerate_joint(model, m).values())
        worst = max(worst, abs(total - 1.0))
    _report(2, worst <= 1e-9, f"max |sum-1| = {worst:.2e}")


def test_criterion_3_marginal_oracle():
    rng = np.random.default_rng(9002)
    worst = 0.0
    for _ in range(20):
        model = _random_dirac_model(rng)
        m = model.sum_law.m
        joint = enumerate_joint(model, m)
        j = model.tree.leaf_count
        leaf = int(rng.integers(1, j + 1))
        oracle = np.zeros(m + 1)
        for y, p in joint.items():
            oracle[y[leaf - 1]] += p
        chain = model.leaf_marginal_chain(leaf)
        got = np.array([marginal_pmf(chain, n) for n in range(m + 1)])
        worst = max(worst, float(np.abs(got - oracle).max()))
    _report(3, worst <= 1e-9, f"max abs error = {worst:.2e}, 20 models")


def _chain_mixture_oracle(chain, n_max):
    """Direct evaluation: mix the stage-by-stage thinning kernels over the
    truncated terminal law, with no absorption or closed forms."""
    t_max = max(sumlaw_truncation_point(chain.terminal, 1e-16), n_max)
    dist = np.array([sumlaw_log_pmf(t, chain.terminal).to_float()
                     for t in range(t_max + 1)])
    for stage in reversed(chain.stages):
        size = dist.size
        new = np.zeros(size)
        for t in range(size):
            if dist[t] == 0.0:
                continue
            for y in range(t + 1):
                new[y] += dist[t] * polya_uni_pmf(
                    y, t, stage.theta_num, stage.theta_rest,
                    stage.c).to_float()
        dist = new
    return dist[:n_max + 1]


def test_criterion_4_absorption_and_nb_closed_form():
    stages = (ChainStage(1, 1.2, 2.0), ChainStage(0, 0.6, 0.4),
              ChainStage(1, 0.8, 1.5), ChainStage(0, 0.75, 0.25))
    worst_nb = worst_abs = 0.0
    for p in (0.3, 0.45):
        chain = MarginalChain(stages, NegativeBinomial(2.5, p))
        oracle = _chain_mixture_oracle(chain, 50)
        got = np.array([marginal_pmf(chain, n) for n in range(51)])
        worst_nb = max(worst_nb, float(np.abs(got - oracle).max()))
    for p in (0.3, 0.8):
        chain = MarginalChain(stages, NegativeBinomial(1.7, p))
        absorbed = absorb_binomials(chain)
        assert all(s.c == 1 for s in absorbed.stages)
        for n in range(11):
            diff = abs(marginal_pmf(absorbed, n) - marginal_pmf(chain, n))
            worst_abs = max(worst_abs, diff)
    ok = worst_nb <= 1e-8 and worst_abs <= 1e-8
    _report(4, ok, f"closed form {worst_nb:.2e}, absorption {worst_abs:.2e}")


def test_criterion_5_moments_covariance():
    rng = np.random.default_rng(9005)
    model = _random_dirac_model(rng, max_leaves=5, max_total=10)
    m = model.sum_law.m
    joint = enumerate_joint(model, m)
    j = model.tree.leaf_count
    ys = np.array(list(joint.keys()), dtype=float)
    ps = np.array(list(joint.values()))
    worst = 0.0
    mean = ps @ ys
    for i in range(j):
        leaf = model.tree.leaf_node(i + 1)
        worst = max(worst, abs(model.node_mean(leaf) - mean[i]))
        var = ps @ (ys[:, i] - mean[i]) ** 2
        worst = max(worst, abs(model.node_variance(leaf) - var))
        r = (1, 2, 1, 1, 2)[:j]
        fact = ps @ np.prod(
            [np.prod([ys[:, k] - t for t in range(r[k])], axis=0)
             for k in range(j)], axis=0)
        worst = max(worst, abs(model.factorial_moment(r) - fact))
        for k in range(i + 1, j):
            cov = ps @ ((ys[:, i] - mean[i]) * (ys[:, k] - mean[k]))
            worst = max(worst, abs(model.covariance(i + 1, k + 1) - cov))

    nb_model = ten_leaf_example()
    draws = nb_model.sample_many(1_000_000, np.random.default_rng(9055))
    worst_z = 0.0
    n = draws.shape[0]
    for i in (0, 3, 5, 8):
        x = draws[:, i].astype(float)
        leaf = nb_model.tree.leaf_node(i + 1)
        se = x.std(ddof=1) / math.sqrt(n)
        worst_z = max(worst_z, abs(x.mean() - nb_model.node_mean(leaf)) / se)
        d2 = (x - x.mean()) ** 2
        worst_z = max(worst_z, abs(d2.mean() - nb_model.node_variance(leaf))
                      / (d2.std(ddof=1) / math.sqrt(n)))
    for i, k in ((0, 1), (5, 8), (2, 6)):
        x = draws[:, i] - draws[:, i].mean()
        y = draws[:, k] - draws[:, k].mean()
        prod = x * y
        se = prod.std(ddof=1) / math.sqrt(n)
        worst_z = max(worst_z,
                      abs(prod.mean() - nb_model.covariance(i + 1, k + 1)) / se)
    ok = worst <= 1e-9 and worst_z <= 4.0
    _report(5, ok, f"enumeration {worst:.2e}, MC worst z = {worst_z:.2f}")


def test_criterion_6_independence():
    tree = PartitionTree.flat(4)
    theta = (1.5, 0.7, 2.1, 0.9)
    model = TreePolyaModel(tree, {tree.ROOT: SplitSpec(1, theta)},
                           NegativeBinomial(sum(theta), 0.4))
    chains = [model.leaf_marginal_chain(j) for j in range(1, 5)]
    worst = 0.0
    rng = np.random.default_rng(9006)
    for _ in range(60):
        y = rng.integers(0, 7, size=4)
        joint = model.joint_log_pmf(y).to_float()
        prod = math.prod(marginal_pmf(chains[j], int(y[j])) for j in range(4))
        worst = max(worst, abs(joint - prod))
    at = ten_leaf_example(alpha=10.0).covariance(6, 9)
    below = ten_leaf_example(alpha=5.0).covariance(6, 9)
    above = ten_leaf_example(alpha=20.0).covariance(6, 9)
    ok = worst <= 1e-10 and abs(at) <= 1e-12 and below > 0 > above
    _report(6, ok, f"factorization {worst:.2e}, cov(Y6,Y9) at/below/above = "
                   f"{at:.1e}/{below:.3f}/{above:.3f}")


def _figure_grid_model(alpha, p):
    """Ten-leaf model whose Y6 marginal follows the documented worked
    example: theta6=3, theta7=theta67=1, theta45=theta8910=1, pi=0.75."""
    tree = PartitionTree.from_nested(TEN_LEAF_NESTED)
    by = tree.node_by_subset
    splits = {
        tree.ROOT: SplitSpec(0, (0.15, 0.10, 0.75)),
        by({1, 2}): SplitSpec(1, (1.5, 1.5)),
        by(set(range(4, 11))): SplitSpec(1, (1.0, 1.0, 1.0)),
        by({4, 5}): SplitSpec(0, (0.5, 0.5)),
        by({6, 7}): SplitSpec(1, (3.0, 1.0)),
        by({8, 9, 10}): SplitSpec(1, (1.0, 2.5)),
        by({9, 10}): SplitSpec(0, (0.3, 0.7)),
    }
    return TreePolyaModel(tree, splits, NegativeBinomial(alpha, p))


def _corr_mc(draws):
    """Sample correlations with influence-function standard errors."""
    x = draws - draws.mean(axis=0)
    sd = x.std(axis=0)
    n, j = x.shape
    corr = (x.T @ x) / (n * np.outer(sd, sd))
    se = np.zeros((j, j))
    for i in range(j):
        for k in range(i + 1, j):
            u, v = x[:, i] / sd[i], x[:, k] / sd[k]
            psi = u * v - corr[i, k] / 2.0 * (u * u + v * v)
            se[i, k] = se[k, i] = psi.std(ddof=1) / math.sqrt(n)
    return corr, se


@pytest.mark.slow
def test_criterion_7_worked_example_reproduction(tmp_path):
    worst_tv = 0.0
    for alpha, p in itertools.product((5.0, 20.0), (0.25, 0.45)):
        model = _figure_grid_model(alpha, p)
        chain = model.leaf_marginal_chain(6)
        draws = model.sample_many(1_000_000, np.random.default_rng(9007))
        counts = np.bincount(draws[:, 5])
        n_max = max(counts.size - 1,
                    sumlaw_truncation_point(chain.terminal, 1e-9))
        exact = np.array([marginal_pmf(chain, n) for n in range(n_max + 1)])
        emp = np.zeros(n_max + 1)
        emp[:counts.size] = counts / draws.shape[0]
        tv = 0.5 * (np.abs(exact - emp).sum() + (1.0 - exact.sum()))
        np.savetxt(tmp_path / f"pmf_a{alpha:g}_p{p:g}.csv",
                   np.column_stack([np.arange(n_max + 1), exact]),
                   delimiter=",", header="n,pmf", comments="")
        worst_tv = max(worst_tv, tv)

    worst_z = 0.0
    nb_model = ten_leaf_example()
    dirac_model = dataclasses.replace(nb_model, sum_law=Dirac(100))
    for name, model in (("nb", nb_model), ("dirac", dirac_model)):
        exact = model.correlation_matrix()
        draws = model.sample_many(400_000, np.random.default_rng(9077))
        corr, se = _corr_mc(draws.astype(float))
        np.savetxt(tmp_path / f"corr_{name}.csv", exact, delimiter=",")
        for i in range(10):
            for k in range(i + 1, 10):
                worst_z = max(worst_z,
                              abs(corr[i, k] - exact[i, k]) / se[i, k])
    ok = worst_tv <= 5e-3 and worst_z <= 3.0
    _report(7, ok, f"max TV = {worst_tv:.2e}, corr worst z = {worst_z:.2f}")


def test_criterion_8_decomposition_identity():
    worst = 0.0
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        gen = ten_leaf_example(alpha=2.0 + seed, p=0.8)
        counts = gen.sample_many(300, rng)
        model, report = fit_tree(gen.tree, counts, family="nb")
        direct = math.fsum(model.joint_log_pmf(row).log_magnitude
                           for row in counts)
        decomposed = sum(r["log_lik"] for r in report["rows"])
        worst = max(worst, abs(direct - decomposed) / (1.0 + abs(direct)))
        aic_direct = 2 * report["total_params"] - 2 * direct
        worst = max(worst, abs(report["total_aic"] - aic_direct)
                    / (1.0 + abs(aic_direct)))
    _report(8, worst <= 1e-8, f"max rel error = {worst:.2e}")


def _planted_six_leaf():
    tree = PartitionTree.from_nested([[1, 2], 3, [4, 5, 6]])
    by = tree.node_by_subset
    splits = {
        tree.ROOT: SplitSpec(1, (2.0, 1.5, 3.0)),
        by({1, 2}): SplitSpec(1, (1.0, 2.5)),
        by({4, 5, 6}): SplitSpec(1, (1.0, 1.0, 2.0)),
    }
    return TreePolyaModel(tree, splits, NegativeBinomial(4.0, 0.8))


@pytest.mark.slow
def test_criterion_9_simulation_recovery():
    rng = np.random.default_rng(9009)
    tree = PartitionTree.flat(4)
    theta = np.array([2.0, 3.0, 1.5, 4.0])
    gen = TreePolyaModel(tree, {tree.ROOT: SplitSpec(1, tuple(theta))},
                         Dirac(50))
    data = gen.sample_many(10_000, rng)
    fit = fit_node_dm(data)
    dm_err = float(np.abs(np.asarray(fit.params["theta"]) / theta - 1.0).max())

    totals = np.asarray(
        [int(t) for t in np.random.default_rng(9019).negative_binomial(
            2.0, 0.4, size=10_000)])
    nb = fit_sum_law(totals, "nb")
    alpha_err = abs(nb.params["alpha"] / 2.0 - 1.0)
    p_err = abs(nb.params["p"] - 0.6)

    # Recovery = every planted internal node is found.  Exact tree
    # identity cannot be demanded at a 90% rate: a nested refinement of a
    # flat Dirichlet-multinomial node strictly contains the truth with one
    # extra parameter, so a greedy AIC step accepts a spurious refinement
    # with probability P(chi2_1 > 2) ~ 0.16 per candidate pair regardless
    # of sample size.  Exact matches are reported alongside for reference.
    planted = _planted_six_leaf()
    target = {planted.tree.subset(n) for n in planted.tree.internal_ids}
    hits = exact = 0
    for rep in range(50):
        counts = planted.sample_many(10_000, np.random.default_rng(4000 + rep))
        found, _, _ = search_tree(counts)
        got = {found.tree.subset(n) for n in found.tree.internal_ids}
        hits += target <= got
        exact += got == target
    ok = dm_err <= 0.10 and alpha_err <= 0.05 and p_err <= 0.01 and hits >= 45
    _report(9, ok, f"DM {dm_err:.3f}, NB {alpha_err:.3f}/{p_err:.4f}, "
                   f"structure {hits}/50 (exact {exact}/50)")


TRICHOPTERA = os.environ.get("TRICHOPTERA_CSV")
needs_data = pytest.mark.skipif(
    not TRICHOPTERA, reason="set TRICHOPTERA_CSV to the Trichoptera count CSV")

_FAMILY_GROUPS = [
    ["Che", "Hyc", "Hym", "Hys"],
    ["Ath", "Cea", "Ced", "Set"],
    ["Aga", "Glo"],
    ["All", "Han", "Hfo", "Hsp", "Hve", "Sta"],
]


@pytest.fixture(scope="module")
def trichoptera():
    cm = load_counts_csv(TRICHOPTERA)
    assert cm.rows.shape[1] == 17, "expected 17 species columns"
    return cm


@needs_data
def test_criterion_10_nb_total_fit(trichoptera):
    fit = fit_sum_law(trichoptera.rows.sum(axis=1), "nb")
    alpha, p = fit.params["alpha"], fit.params["p"]
    ok = (abs(alpha - 0.478) <= 0.005 and abs(p - 0.997) <= 0.001
          and abs(fit.aic - 575.016) <= 0.5)
    _report(10, ok, f"alpha={alpha:.4f}, p={p:.4f}, AIC={fit.aic:.3f}")


@needs_data
def test_criterion_11_reference_model_table(trichoptera):
    counts = trichoptera.rows
    nb = fit_sum_law(counts.sum(axis=1), "nb")

    flat = PartitionTree.flat(17)
    multi = fit_node_multinomial(node_data(flat, counts, flat.ROOT))
    multi_aic = nb.aic + multi.aic
    multi_params = nb.n_params + multi.n_params

    dm = fit_node_dm(node_data(flat, counts, flat.ROOT))
    dm_aic = nb.aic + dm.aic
    dm_params = nb.n_params + dm.n_params

    names = list(trichoptera.column_names)
    nested = [[names.index(s) + 1 for s in group] for group in _FAMILY_GROUPS]
    tree = PartitionTree.from_nested([nested, names.index("Psy") + 1])
    _, report = fit_tree(tree, counts, family="nb")

    ok = (abs(multi_aic - 6362.20) <= 0.5 and multi_params == 18
          and abs(dm_aic - 2494.87) <= 0.5 and dm_params == 19
          and abs(report["total_aic"] - 2465.85) <= 0.5
          and report["total_params"] == 23)
    _report(11, ok, f"multinomial {multi_aic:.2f}/{multi_params}, "
                    f"DM {dm_aic:.2f}/{dm_params}, "
                    f"tree {report['total_aic']:.2f}/{report['total_params']}")


@needs_data
def test_criterion_12_search_result(trichoptera):
    _, report, _ = search_tree(trichoptera.rows)
    aic, k = report["total_aic"], report["total_params"]
    ok = aic <= 2381.5 and abs(k - 23) <= 2
    _report(12, ok, f"AIC={aic:.2f}, params={k}")
