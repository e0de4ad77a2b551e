"""Output checks.  Each one reaches the expected answer by a route other
than the verb it checks: model documents are parsed here, and
probabilities and moments are computed here with numpy and scipy."""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import gammaln

REL = 1e-8


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a, b, rel: float = REL, floor: float = 1e-300) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(b), floor)))


class Doc:
    """A model document read independently of the package: per internal
    node its split and the leaf columns under each child, and per leaf
    its path from the root."""

    def __init__(self, text: str):
        doc = json.loads(text)
        law = doc["sum_law"]
        require(law["family"] == "nb", "benchmark models use NB totals")
        self.alpha = float(law["params"]["alpha"])
        self.p = float(law["params"]["p"])
        self.names = []
        self.nodes = []      # (c, theta, [child leaf-column lists])
        self.inner = []      # per node and child: the child's node index
        self.path = []       # for each leaf column: [(node, child index)]
        self._walk(doc["tree"], [])
        self.leaf_count = len(self.names)

    def _walk(self, node: dict, path: list) -> list:
        if "leaf" in node:
            self.names.append(node["leaf"])
            self.path.append(path)
            return [len(self.names) - 1]
        index = len(self.nodes)
        split = node["split"]
        self.nodes.append((int(split["c"]),
                           np.asarray(split["theta"], dtype=float), []))
        self.inner.append([])
        columns = []
        for k, child in enumerate(node["children"]):
            self.inner[index].append(
                None if "leaf" in child else len(self.nodes))
            cols = self._walk(child, path + [(index, k)])
            self.nodes[index][2].append(cols)
            columns.extend(cols)
        return columns

    def in_leaf_order(self, rows: np.ndarray, names) -> np.ndarray:
        """Columns of ``rows`` (named ``names``) in this model's leaf order."""
        index = {name: k for k, name in enumerate(names)}
        require(set(index) == set(self.names), "columns differ from leaves")
        return np.asarray(rows)[:, [index[n] for n in self.names]]

    # -- probabilities --------------------------------------------------

    def joint_log_pmf(self, rows: np.ndarray) -> np.ndarray:
        """Per-row log p.m.f.; ``rows`` in leaf order."""
        rows = np.asarray(rows, dtype=float)
        total = rows.sum(axis=1)
        a, p = self.alpha, self.p
        out = (gammaln(a + total) - gammaln(a) - gammaln(total + 1)
               + total * math.log(p) + a * math.log1p(-p))
        for c, theta, children in self.nodes:
            sub = np.column_stack([rows[:, cols].sum(axis=1) for cols in children])
            n = sub.sum(axis=1)
            out += gammaln(n + 1) - gammaln(sub + 1).sum(axis=1)
            if c == 1:
                out += (gammaln(theta + sub) - gammaln(theta)).sum(axis=1)
                out -= gammaln(theta.sum() + n) - gammaln(theta.sum())
            elif c == 0:
                share = theta / theta.sum()
                out += (sub * np.log(share)).sum(axis=1)
            else:
                raise CheckFailed("hypergeometric splits are not referenced")
        return out

    # -- moments ----------------------------------------------------------

    def nb_factorial_moments(self):
        a, p = self.alpha, self.p
        mu1 = a * p / (1 - p)
        return mu1, a * (a + 1) * (p / (1 - p)) ** 2

    def leaf_constants(self, j: int):
        gamma = delta = 1.0
        for node, k in self.path[j]:
            c, theta, _ = self.nodes[node]
            gamma *= theta[k] / theta.sum()
            delta *= (theta[k] + c) / (theta.sum() + c)
        return gamma, delta

    def leaf_mean_var(self, j: int):
        mu1, mu2 = self.nb_factorial_moments()
        g, d = self.leaf_constants(j)
        return g * mu1, g * d * mu2 + g * mu1 * (1 - g * mu1)

    def correlation(self, i: int, j: int) -> float:
        """Cov / sqrt(Var Var) with Cov = gamma_i gamma_j (c-bracket at the
        split s separating i and j)."""
        mu1, mu2 = self.nb_factorial_moments()
        shared = 0
        while (shared < min(len(self.path[i]), len(self.path[j]))
               and self.path[i][shared] == self.path[j][shared]):
            shared += 1
        s = self.path[i][shared][0]
        gamma_s = delta_s = 1.0
        for node, k in self.path[i][:shared]:
            c, theta, _ = self.nodes[node]
            gamma_s *= theta[k] / theta.sum()
            delta_s *= (theta[k] + c) / (theta.sum() + c)
        c, theta, _ = self.nodes[s]
        bracket = (theta.sum() / (theta.sum() + c)) * (delta_s / gamma_s) * mu2 \
            - mu1 ** 2
        gi, _ = self.leaf_constants(i)
        gj, _ = self.leaf_constants(j)
        vi = self.leaf_mean_var(i)[1]
        vj = self.leaf_mean_var(j)[1]
        return gi * gj * bracket / math.sqrt(vi * vj)

    # -- marginals ----------------------------------------------------

    def leaf_marginals(self, n_max: int, points, keep: int) -> dict:
        """P(Y_j = n) at the (j, n) points, by convolving binomial
        (multinomial split) and beta-binomial (Dirichlet split) kernels
        down the tree from an NB total truncated at n_max.  An inner
        node's distribution is cut past ``keep`` where less than 1e-16 of
        its mass is left; a leaf's is found only at the points asked for."""
        k = np.arange(n_max + 1, dtype=float)
        a, p = self.alpha, self.p
        root = np.exp(gammaln(a + k) - gammaln(a) - gammaln(k + 1)
                      + k * math.log(p) + a * math.log1p(-p))
        wanted = {}
        for j, n in points:
            wanted.setdefault(j, []).append(n)
        out = {}
        stack = [(0, root)]
        while stack:
            node, dist = stack.pop()
            c, theta, children = self.nodes[node]
            for idx, cols in enumerate(children):
                rest = theta.sum() - theta[idx]
                inner = self.inner[node][idx]
                if inner is None:
                    ns = [n for n in wanted.get(cols[0], []) if n < dist.size]
                    values = thin(dist, c, theta[idx], rest, np.array(ns, int))
                    out.update({(cols[0], n): v for n, v in zip(ns, values)})
                elif any(j in wanted for j in cols):
                    child = thin(dist, c, theta[idx], rest)
                    tail = np.cumsum(child[::-1])[::-1]
                    cut = max(keep, int(np.sum(tail > 1e-16)))
                    stack.append((inner, child[:cut]))
        return out


def thin(dist: np.ndarray, c: int, a: float, b: float, ys=None,
         block: int = 256) -> np.ndarray:
    """child[y] = sum_t K[y, t] dist[t] for the two-part split of weights
    (a, b): binomial for c = 0, beta-binomial for c = 1; at every y, or
    at the given ys.  Built in row blocks so memory stays O(block * n)."""
    n = dist.size - 1
    t = np.arange(n + 1)
    ys = t if ys is None else np.asarray(ys, dtype=int)
    lf = gammaln(t + 1.0)
    if c == 0:
        lg_a = t * math.log(a / (a + b))
        lg_b = t * math.log(b / (a + b))
        lg_t = np.zeros(n + 1)
    else:
        lg_a = gammaln(a + t) - gammaln(a)
        lg_b = gammaln(b + t) - gammaln(b)
        lg_t = gammaln(a + b + t) - gammaln(a + b)
    out = np.zeros(ys.size)
    for i0 in range(0, ys.size, block):
        y = ys[i0:i0 + block, None]
        rest = t[None, :] - y
        valid = rest >= 0
        r = np.where(valid, rest, 0)
        logk = lf[None, :] - lf[y] - lf[r] + lg_a[y] + lg_b[r] - lg_t[None, :]
        out[i0:i0 + block] = np.where(valid, np.exp(logk), 0.0) @ dist
    return out


def nb_truncation_point(alpha: float, p: float, tail: float = 1e-14) -> int:
    """Smallest N with cumulative NB mass above 1 - tail, as the package's
    marginal kernels use it."""
    from scipy import stats
    return int(stats.nbinom.isf(tail, alpha, 1.0 - p)) + 1


# ---------------------------------------------------------------------
# Output parsers


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_table(path: str):
    lines = read_text(path).rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_counts(path: str, names) -> np.ndarray:
    text = read_text(path)
    head, _, body = text.partition("\n")
    require(head.split(",") == list(names), f"{path}: header differs")
    require(text.endswith("\n"), f"{path}: truncated last line")
    values = np.array(body.replace("\n", ",").rstrip(",").split(","),
                      dtype=np.int64)
    require(values.size % len(names) == 0, f"{path}: ragged rows")
    return values.reshape(-1, len(names))


def read_report(path: str) -> list:
    """Fit-report rows as (node, kind, n_params, log_lik, aic) strings.
    Node labels such as {1,2} are written unquoted, so the last four
    fields are taken from the right."""
    header, rows = read_table(path)
    require(header == ["node", "kind", "n_params", "log_lik", "aic"],
            f"{path}: unexpected report header")
    return [[",".join(r[:-4])] + r[-4:] for r in rows]


def report_log_lik(path: str) -> float:
    """Sum of the sum-law and node log-likelihoods of a fit report (the
    closing total row leaves its log_lik blank)."""
    return sum(float(r[3]) for r in read_report(path) if r[3])


def report_total_aic(path: str) -> float:
    totals = [float(r[4]) for r in read_report(path)
              if r[0] == "total" and not r[1]]
    require(len(totals) == 1, f"{path}: no total row")
    return totals[0]


# ---------------------------------------------------------------------
# Checks by verb; each raises CheckFailed


def check_fit(report_path: str, model_path: str, rows: np.ndarray,
              names) -> None:
    """Decomposition identity: the report's node log-likelihoods sum to
    the joint log-likelihood of the fitted model on the same rows."""
    doc = Doc(read_text(model_path))
    expected = float(doc.joint_log_pmf(doc.in_leaf_order(rows, names)).sum())
    got = report_log_lik(report_path)
    require(close(got, expected), f"fit: report log-lik {got!r} vs joint "
                                  f"{expected!r}")


def check_pmf(out_path: str, model_path: str, rows: np.ndarray, names,
              report_path: str = None) -> None:
    header, table = read_table(out_path)
    require(header == ["row", "log_pmf"], "pmf: unexpected header")
    require(len(table) == rows.shape[0], "pmf: row count differs")
    got = np.array([float(r[1]) for r in table])
    doc = Doc(read_text(model_path))
    expected = doc.joint_log_pmf(doc.in_leaf_order(rows, names))
    bad = np.flatnonzero(np.abs(got - expected) > REL * np.abs(expected))
    require(bad.size == 0, f"pmf: {bad.size} rows differ from the reference, "
                           f"first at row {int(bad[0]) + 1 if bad.size else 0}")
    if report_path is not None:
        total = report_log_lik(report_path)
        require(close(got.sum(), total), f"pmf: sum {got.sum()!r} vs fit "
                                         f"report {total!r}")


def check_search(report_path: str, flat_aic: float) -> None:
    aic = report_total_aic(report_path)
    require(aic <= flat_aic + 1e-6 * abs(flat_aic),
            f"search: AIC {aic} is worse than the flat tree's {flat_aic}")


def check_sample(out_path: str, model_path: str, n: int) -> None:
    doc = Doc(read_text(model_path))
    draws = read_counts(out_path, doc.names)
    require(draws.shape[0] == n, f"sample: {draws.shape[0]} rows, expected {n}")
    require(bool(np.all(draws >= 0)), "sample: negative count")
    means = draws.mean(axis=0)
    se = draws.std(axis=0) / math.sqrt(n)
    expected = np.array([doc.leaf_mean_var(j)[0] for j in range(doc.leaf_count)])
    z = np.abs(means - expected) / np.maximum(se, 1e-12)
    require(bool(np.all(z < 6.0)), f"sample: column mean off by {z.max():.1f} "
                                   "standard errors")


def check_corr(out_path: str, model_path: str, pairs) -> None:
    doc = Doc(read_text(model_path))
    header, table = read_table(out_path)
    require(header == [""] + doc.names, "corr: unexpected header")
    require([r[0] for r in table] == doc.names, "corr: unexpected row names")
    matrix = np.array([[float(v) for v in r[1:]] for r in table])
    require(matrix.shape == (doc.leaf_count,) * 2, "corr: not square")
    require(bool(np.array_equal(matrix, matrix.T)), "corr: not symmetric")
    require(bool(np.all(np.diag(matrix) == 1.0)), "corr: diagonal is not 1")
    for i, j in pairs:
        expected = doc.correlation(i, j)
        require(abs(matrix[i, j] - expected) <= REL * max(abs(expected), 1e-12),
                f"corr: ({i + 1}, {j + 1}) is {float(matrix[i, j])!r}, "
                f"expected {float(expected)!r}")


def check_moments(out_path: str, model_path: str) -> None:
    doc = Doc(read_text(model_path))
    header, table = read_table(out_path)
    require(header == ["leaf", "mean", "variance", "dispersion"],
            "moments: unexpected header")
    require([r[0] for r in table] == doc.names, "moments: unexpected leaves")
    for j, row in enumerate(table):
        mean, var = doc.leaf_mean_var(j)
        require(close(float(row[1]), mean) and close(float(row[2]), var),
                f"moments: leaf {row[0]} mean/variance differ")


def check_marginal(values: np.ndarray, model_text: str,
                   rng: np.random.Generator) -> None:
    """values[j, n] (n = 0..N-1) are probabilities, and match the kernel
    convolution at n = 0 and at four seeded n per leaf.  Those n are
    drawn where the value is at least 1e-6, so that the 1e-14 tail at
    which either side may truncate the NB total stays below the 1e-7
    tolerance."""
    require(bool(np.all((values >= 0.0) & (values <= 1.0))),
            "marginal: value outside [0, 1]")
    points = []
    for j, row in enumerate(values):
        bulk = np.flatnonzero(row[1:] >= 1e-6) + 1
        picked = rng.choice(bulk, size=min(4, bulk.size), replace=False)
        points += [(j, 0)] + [(j, int(n)) for n in picked]
    doc = Doc(model_text)
    # beyond top + 400 the NB(alpha, p < 0.5) terms are below 1e-100 of
    # any value checked
    top = values.shape[1] - 1
    n_ref = max(nb_truncation_point(doc.alpha, doc.p), top + 400)
    ref = doc.leaf_marginals(n_ref, points, keep=top + 400)
    for j, n in points:
        require(abs(values[j, n] - ref[j, n]) <= 1e-7 * ref[j, n],
                f"marginal: leaf {j + 1} at n={n}: {float(values[j, n])!r} "
                f"vs reference {float(ref[j, n])!r}")
