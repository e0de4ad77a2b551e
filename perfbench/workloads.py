"""The benchmark's workloads.

Each workload is one closed loop: a single caller runs its steps in
order, each step starting when the previous one has returned, and a
pass is one run through all steps.  ``prepare`` writes the seeded inputs;
``steps`` lists what a pass runs and how each output is checked.
"""

from __future__ import annotations

import os

import numpy as np

import checks
import gen

MARGINAL_N = 300


class Step:
    """One verb call.  ``argv`` runs ``treepolya.cli.main``; a step with a
    ``model`` runs ``marginal_pmf`` on it in a fresh worker process."""

    def __init__(self, verb, check, argv=None, outputs=(), inputs=(),
                 model=None):
        self.verb = verb
        self.check = check
        self.argv = argv
        self.outputs = list(outputs)
        self.inputs = list(inputs)
        self.model = model
        self.before = None  # untimed preparation of the step's inputs


class Context:
    """A prepared workload: its directory, inputs and lazily computed
    expectations."""

    def __init__(self, directory: str, seed: int, rows=None, names=None):
        self.dir = directory
        self.seed = seed
        self.rows = rows
        self.names = names
        self.rng = np.random.default_rng([seed, 7])
        self._flat_aic = None

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def flat_aic(self) -> float:
        """AIC of the flat tree, fitted through the library API rather
        than the CLI verb being checked."""
        if self._flat_aic is None:
            from treepolya.fit import fit_tree
            from treepolya.tree import PartitionTree
            _, report = fit_tree(PartitionTree.flat(self.rows.shape[1]), self.rows)
            self._flat_aic = report["total_aic"]
        return self._flat_aic

    def write_in_leaf_order(self, model: str, data: str) -> None:
        doc = checks.Doc(checks.read_text(self.path(model)))
        gen.write(self.path(data), gen.counts_csv(
            doc.in_leaf_order(self.rows, self.names), doc.names))

    def pairs(self, count: int = 6):
        """Seeded leaf pairs (0-based) whose correlation gets checked."""
        j = len(self.names)
        picked = set()
        while len(picked) < min(count, j * (j - 1) // 2):
            a, b = sorted(self.rng.choice(j, size=2, replace=False).tolist())
            picked.add((a, b))
        return sorted(picked)


def cli_step(ctx, verb, args, outputs, inputs, check):
    """A CLI call; arguments that name an input or output file are
    resolved in the run directory."""
    files = set(outputs) | set(inputs)
    argv = [verb] + [ctx.path(a) if a in files else str(a) for a in args]
    return Step(verb, check, argv=argv,
                outputs=[ctx.path(o) for o in outputs],
                inputs=[ctx.path(i) for i in inputs])


def fit_steps(ctx, data, tree, model, report):
    return cli_step(ctx, "fit", ["--data", data, "--tree", tree, "--out", model,
                                 "--report", report], [model, report],
                    [data, tree],
                    lambda: checks.check_fit(ctx.path(report), ctx.path(model),
                                             ctx.rows, ctx.names))


def pmf_step(ctx, model, data, report=None):
    """pmf over the rows, written to ``data`` before the step (untimed)
    with their columns in the model's leaf order, as the CLI needs; a
    searched tree may have reordered them."""
    step = cli_step(ctx, "pmf", ["--model", model, "--obs", data, "--out",
                                 "pmf.csv"], ["pmf.csv"], [model, data],
                    lambda: checks.check_pmf(ctx.path("pmf.csv"),
                                             ctx.path(model), ctx.rows,
                                             ctx.names,
                                             ctx.path(report) if report else None))
    step.before = lambda: ctx.write_in_leaf_order(model, data)
    return step


def sample_step(ctx, model, n):
    return cli_step(ctx, "sample", ["--model", model, "--n", n, "--seed",
                                    ctx.seed, "--out", "sample.csv"],
                    ["sample.csv"], [model],
                    lambda: checks.check_sample(ctx.path("sample.csv"),
                                                ctx.path(model), n))


def corr_step(ctx, model):
    pairs = ctx.pairs()
    return cli_step(ctx, "corr", ["--model", model, "--out", "corr.csv"],
                    ["corr.csv"], [model],
                    lambda: checks.check_corr(ctx.path("corr.csv"),
                                              ctx.path(model), pairs))


def moments_step(ctx, model, out):
    return cli_step(ctx, "moments", ["--model", model, "--out", out], [out],
                    [model], lambda: checks.check_moments(ctx.path(out),
                                                          ctx.path(model)))


def search_step(ctx, data):
    return cli_step(ctx, "search", ["--data", data, "--out", "searched.json",
                                    "--trace", "moves.csv", "--report",
                                    "search_report.csv"],
                    ["searched.json", "moves.csv", "search_report.csv"], [data],
                    lambda: checks.check_search(ctx.path("search_report.csv"),
                                                ctx.flat_aic()))


class SearchWide:
    name = "search-wide"
    why = ("200 x 30 planted-group data: the search's candidate loop of "
           "per-column DM fits does nearly all the work; model and special "
           "are idle")
    # The greedy candidate loop grows with the square of the number of
    # leaves, and each DM fit loops in Python per column over survival
    # vectors as long as the largest count, so fit_node_dm dominates.
    # Verbs: search, fit on the found tree, pmf over the 200 rows, corr.

    def prepare(self, seed, directory):
        rng = np.random.default_rng(seed)
        rows = gen.planted_groups_rows(200, (10, 10, 10), 4.0, (20.0, 20.0, 20.0),
                                       1.5, 0.995, rng)
        names = gen.column_names(30)
        gen.write_all(directory, {"data.csv": gen.counts_csv(rows, names)})
        return Context(directory, seed, rows, names)

    def steps(self, ctx):
        return [search_step(ctx, "data.csv"),
                fit_steps(ctx, "data.csv", "searched.json", "fitted.json",
                          "fit_report.csv"),
                pmf_step(ctx, "fitted.json", "obs.csv", "fit_report.csv"),
                corr_step(ctx, "fitted.json")]


class TallEval:
    name = "tall-eval"
    why = ("10 000 x 10 rows of the worked example: the per-row scalar pmf "
           "path and CSV I/O dominate; DM fits are cheap here")
    # pmf walks joint_log_pmf -> polya_pmf -> ln_gen_factorial with a
    # LogValue per multiply for each of the 10k rows; sample writes a
    # 1M-row CSV; fit and search use survival-count aggregates, so a
    # change to fit should barely move this workload.
    # Verbs: fit on the true tree, search, pmf, sample 1 000 000, corr.

    def prepare(self, seed, directory):
        rng = np.random.default_rng(seed)
        rows = gen.draw_rows(gen.ten_leaf_spec(10.0, 0.95), 10_000, rng)
        names = gen.column_names(10)
        gen.write_all(directory, {
            "data.csv": gen.counts_csv(rows, names),
            "tree.json": gen.tree_json(gen.TEN_LEAF_NESTED, names)})
        return Context(directory, seed, rows, names)

    def steps(self, ctx):
        return [fit_steps(ctx, "data.csv", "tree.json", "fitted.json",
                          "fit_report.csv"),
                search_step(ctx, "data.csv"),
                pmf_step(ctx, "fitted.json", "data.csv", "fit_report.csv"),
                sample_step(ctx, "fitted.json", 1_000_000),
                corr_step(ctx, "fitted.json")]


class DeepCascade:
    name = "deep-cascade"
    why = ("200-leaf binary cascade, depth 199: per-pair path walks in corr, "
           "O(nodes x leaves) subsums per pmf row and per-node sampling "
           "dominate, in model and tree")
    # Splits alternate DM (precision 5) and multinomial, every leaf has
    # the same mean, and the total is NB(3, 0.999).  fit here sees 199
    # two-child nodes instead of one wide node.  200 leaves and 300 rows
    # keep a pass near 7 s, so that a run holds several passes; 300 leaves
    # and 500 rows take 16 s a pass.
    # Verbs: corr, moments, sample 10 000, pmf over 300 rows, fit.
    LEAVES, ROWS = 200, 300

    def prepare(self, seed, directory):
        rng = np.random.default_rng(seed)
        spec = gen.cascade_spec(self.LEAVES, 5.0, 3.0, 0.999)
        rows = gen.draw_rows(spec, self.ROWS, rng)
        names = gen.column_names(self.LEAVES)
        gen.write_all(directory, {"model.json": gen.model_json(spec, names),
                                  "obs.csv": gen.counts_csv(rows, names)})
        return Context(directory, seed, rows, names)

    def steps(self, ctx):
        return [corr_step(ctx, "model.json"),
                moments_step(ctx, "model.json", "moments.csv"),
                sample_step(ctx, "model.json", 10_000),
                pmf_step(ctx, "model.json", "obs.csv"),
                fit_steps(ctx, "obs.csv", "model.json", "fitted.json",
                          "fit_report.csv")]


class MarginalTails:
    name = "marginal-tails"
    why = ("leaf marginals of the worked example under NB(2, 0.45) and "
           "NB(2, 0.99) totals: the series-with-mpmath branch and the dense "
           "kernel branch; carries memory")
    # p = 0.45 takes the closed form, whose series falls back to
    # mpmath.hyper for most n; p = 0.99 composes dense (n_max+1)^2 stage
    # kernels with n_max = 3566.  p = 0.999 (n_max = 35 825, ~10 GB per
    # kernel) does not fit in memory until the kernels are bounded.
    # Each pass evaluates the marginals of each total in a fresh worker
    # process, so that no chain is already in the package's kernel cache.
    # Verbs: marginal_pmf for every leaf and n = 0..299, moments.
    TOTALS = ((2.0, 0.45), (2.0, 0.99))

    def prepare(self, seed, directory):
        names = gen.column_names(10)
        files = {f"model_p{p}.json": gen.model_json(gen.ten_leaf_spec(a, p), names)
                 for a, p in self.TOTALS}
        gen.write_all(directory, files)
        return Context(directory, seed, None, names)

    def size_lines(self):
        """n_max of each total and the bytes of one dense stage kernel."""
        lines = []
        for alpha, p in self.TOTALS:
            n_max = checks.nb_truncation_point(alpha, p)
            lines.append(f"size marginal NB({alpha:g}, {p:g}): n_max {n_max}, "
                         f"one stage kernel {(n_max + 1) ** 2 * 8} B")
        return lines

    def steps(self, ctx):
        models = [f"model_p{p}.json" for _, p in self.TOTALS]
        steps = []
        for k, model in enumerate(models):
            steps.append(Step("marginal", self._checker(ctx, model),
                              model=ctx.path(model), inputs=[ctx.path(model)]))
        for k, model in enumerate(models):
            steps.append(moments_step(ctx, model, f"moments_{k}.csv"))
        return steps

    @staticmethod
    def _checker(ctx, model):
        return lambda values: checks.check_marginal(
            values, checks.read_text(ctx.path(model)), ctx.rng)


WORKLOADS = {w.name: w for w in (SearchWide(), TallEval(), DeepCascade(),
                                 MarginalTails())}
