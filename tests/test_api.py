"""The names that the benchmark and the package's own exports rely on.

``perfbench/tracing.py`` wraps package functions by name, and its
``bootstrap.load_lazy`` calls ``treepolya.special.pfq_convergent``; a
deletion that breaks either should fail here before it breaks a
benchmark run.  The README's CLI synopsis is checked against the parser
here too, and so is the reach of the count checks: every public entry
point that takes counts is in ``test_inference``'s table of non-number
inputs, and every line of the package's source fits in 79 columns.
Every public moment method, and the verbs that print moments, is in the
overflow table, whose laws' moments pass the float range: each returns
a value or raises ``DomainError``, never a bare ``OverflowError``.
"""

import ast
import contextlib
import functools
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import typing
from io import StringIO
from pathlib import Path

import mpmath  # noqa: F401  (a traced target lives in it)
import pytest

import treepolya
import treepolya.cli  # noqa: F401  (loads every module the CLI uses)
from treepolya import polya
from treepolya.exceptions import DomainError, UsageError
from treepolya.examples import ten_leaf_example
from treepolya.model import marginal_pmf
from treepolya.special import ln_gen_factorial

from test_inference import NON_NUMBER_ENTRY_POINTS

ROOT = Path(__file__).resolve().parents[1]


def _tracing_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, path) for _, module_name, path in module.TARGETS]


def _resolve(module_name, path):
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize(
    "module_name, path",
    _tracing_targets() + [("treepolya.special", "pfq_convergent")])
def test_benchmark_hook_resolves(module_name, path):
    assert callable(_resolve(module_name, path))


@pytest.mark.parametrize("module_name", [
    f"treepolya.{info.name}"
    for info in pkgutil.iter_modules(treepolya.__path__)])
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", [])
               if not hasattr(module, name)]
    assert not missing


def test_every_name_the_package_imports_exists():
    tree = ast.parse(Path(treepolya.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names and not [n for n in names if not hasattr(treepolya, n)]


def test_every_sum_law_is_registered_once():
    laws = typing.get_args(polya.SumLaw)
    assert set(polya.SUM_LAWS.values()) == set(laws)
    assert len(polya.SUM_LAWS) == len(laws)
    assert all(polya.SUM_LAWS[law.family] is law for law in laws)


# one law per registered family, to rebuild from its series form
SERIES_LAWS = [polya.NegativeBinomial(2.0, 0.6), polya.Poisson(4.5),
               polya.Dirac(7), polya.Binomial(12, 0.3)]


def test_every_family_is_rebuilt_from_its_series_form():
    """The series table (law -> (c, base, scale)) and its inverse, which
    marginal absorption rebuilds a terminal law with, cover the same
    families."""
    assert [law.family for law in SERIES_LAWS] == list(polya.SUM_LAWS)
    for law in SERIES_LAWS:
        back = polya._law_from_series(*polya._sumlaw_series(law))
        assert type(back) is type(law)
        assert vars(back) == pytest.approx(vars(law), rel=1e-15)


@pytest.mark.parametrize("verb", ["fit", "search"])
def test_sum_law_choices_are_the_registered_families(verb):
    parser = treepolya.cli.build_parser()
    sub = next(action for action in parser._actions
               if action.dest == "command").choices[verb]
    option = next(action for action in sub._actions
                  if action.dest == "sum_law")
    assert option.choices == list(polya.SUM_LAWS)


def _readme_synopsis():
    """verb -> (every option, the optional ones) from README's CLI block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    verbs: dict = {}
    verb = None
    for line in block.strip().splitlines():
        words = line.split()
        if words[:1] == ["treepolya"]:
            verb = words[1]
            verbs[verb] = ([], [])
        every, optional = verbs[verb]
        every += re.findall(r"--[\w-]+", line)
        optional += re.findall(r"\[(--[\w-]+)", line)
    return {verb: (set(every), set(optional))
            for verb, (every, optional) in verbs.items()}


def test_readme_synopsis_lists_every_option_of_every_verb():
    parser = treepolya.cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if action.dest == "command").choices
    parsed = {}
    for verb, sub in subparsers.items():
        options = [action for action in sub._actions
                   if action.option_strings and action.dest != "help"]
        parsed[verb] = ({action.option_strings[0] for action in options},
                        {action.option_strings[0] for action in options
                         if not action.required})
    assert _readme_synopsis() == parsed


# the parameter names under which the package takes counts (and moment
# orders, which pass the same check)
COUNT_PARAMETERS = {"counts", "data", "rows", "y", "n", "totals", "r"}


def _public_members():
    """(name, object) for what each module's ``__all__`` lists, and the
    public members of its classes."""
    for info in pkgutil.iter_modules(treepolya.__path__):
        module = importlib.import_module(f"treepolya.{info.name}")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            yield name, obj
            if inspect.isclass(obj):
                yield from ((attr, getattr(obj, attr)) for attr in vars(obj)
                            if not attr.startswith("_"))


def _count_parameters():
    """(callable name, parameter) for every count parameter of the public
    callables."""
    for label, member in _public_members():
        try:
            params = inspect.signature(member).parameters
        except (TypeError, ValueError):  # not a callable
            continue
        for param in params.values():
            if param.name in COUNT_PARAMETERS:
                yield label, param


def test_every_count_entry_point_meets_the_non_number_table():
    names = {label for label, _ in _count_parameters()}
    assert {"polya_pmf", "joint_log_pmf_many", "CountMatrix"} <= names
    assert names == set(NON_NUMBER_ENTRY_POINTS)


_MODEL = ten_leaf_example()
_LAW = polya.NegativeBinomial(2.0, 0.5)

# every public entry point that takes a single count (its count parameter
# is annotated ``int``), called with a count
SINGLE_COUNT_ENTRY_POINTS = {
    "marginal_pmf": lambda n: marginal_pmf(_MODEL.leaf_marginal_chain(1), n),
    "sumlaw_log_pmf": lambda n: polya.sumlaw_log_pmf(n, _LAW),
    "sumlaw_factorial_moment": lambda n: polya.sumlaw_factorial_moment(
        n, _LAW),
    "node_factorial_moment": lambda n: _MODEL.node_factorial_moment(1, n),
    "ln_gen_factorial": lambda n: ln_gen_factorial(2.0, n, 1),
    "polya_uni_pmf": lambda n: polya.polya_uni_pmf(n, 9, 1.0, 2.0, 1),
}


def test_every_single_count_entry_point_is_in_the_table():
    names = {label for label, param in _count_parameters()
             if param.annotation in (int, "int")}
    assert names == set(SINGLE_COUNT_ENTRY_POINTS)


@pytest.mark.parametrize("entry", SINGLE_COUNT_ENTRY_POINTS)
def test_a_single_count_takes_no_array(entry):
    # an array was a bare TypeError or ValueError (the truth value of an
    # array), except in polya_uni_pmf, where it was ragged input
    call = SINGLE_COUNT_ENTRY_POINTS[entry]
    call(3)
    for array in ([3, 4], [[3]]):
        with pytest.raises(UsageError, match="a single count"):
            call(array)


@pytest.mark.parametrize("path", sorted(
    (ROOT / "src" / "treepolya").glob("*.py")), ids=lambda p: p.name)
def test_source_lines_fit_in_79_columns(path):
    long = [number for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 79]
    assert not long, f"{path.name}: lines {long} pass 79 columns"


# sum laws whose moments pass the float range: the Poisson's and the
# Dirac's high factorial moments, the square of the first negative
# binomial's mean, the second one's Var - E, and the third one's mean
OVERFLOW_LAWS = [polya.Poisson(1e10), polya.Dirac(10 ** 15),
                 polya.NegativeBinomial(1e200, 0.5),
                 polya.NegativeBinomial(1e305, 0.99),
                 polya.NegativeBinomial(1e300, 1 - 1e-12)]


def _verb(*argv):
    """A CLI verb on the model file: it must exit 0, or 1 with a domain
    error, never with a traceback."""
    def call(model, path):
        err = StringIO()
        with contextlib.redirect_stderr(err):
            code = treepolya.cli.main([argv[0], "--model", path, "--out",
                                       os.devnull, *argv[1:]])
        assert code == 0 or (code == 1 and err.getvalue().startswith(
            "error[domain]: ")), err.getvalue()
        return code
    return lambda model, path: [lambda: call(model, path)]


def _each(method, args):
    """One call of a model method per argument tuple."""
    return lambda model, path: [
        functools.partial(getattr(model, method), *a) for a in args(model)]


def _nodes(model):
    return [(n,) for n in range(len(model.tree))]


def _leaf_pairs(model):
    leaves = range(1, model.tree.leaf_count + 1)
    return [(i, j) for i in leaves for j in leaves if i <= j]


# every public moment entry point, as the calls that drive it over the
# ten-leaf tree: each returns a value or raises DomainError
MOMENT_ENTRY_POINTS = {
    "sumlaw_factorial_moment": lambda model, path: [
        functools.partial(polya.sumlaw_factorial_moment, r, model.sum_law)
        for r in (1, 2, 21, 40)],
    "factorial_moment": _each("factorial_moment", lambda model: [
        ([4] * 10,), ([0, 0, 21] + [0] * 7,), ([1] + [0] * 9,)]),
    "node_factorial_moment": _each("node_factorial_moment", lambda model: [
        (n, r) for n, in _nodes(model) for r in (1, 2, 21, 40)]),
    "node_mean": _each("node_mean", _nodes),
    "node_variance": _each("node_variance", _nodes),
    "covariance": _each("covariance", _leaf_pairs),
    "node_covariance": _each("node_covariance", lambda model: [
        (model.tree.leaf_node(i), model.tree.leaf_node(j))
        for i, j in _leaf_pairs(model) if i < j]),
    "covariance_ratio": _each("covariance_ratio", lambda model: [
        tuple(model.tree.leaf_node(j) for j in (4, 5, 1)),
        tuple(model.tree.leaf_node(j) for j in (1, 2, 9))]),
    "correlation_matrix": _each("correlation_matrix", lambda model: [()]),
    "dispersion_report": _each("dispersion_report", lambda model: [()]),
    "moments": _verb("moments", "--order", "40"),
    "corr": _verb("corr"),
}

MOMENT_NAME = re.compile(r"moment|mean|variance|covariance|correlation|"
                         r"dispersion")


def test_every_public_moment_method_is_in_the_overflow_table():
    names = {label for label, member in _public_members()
             if callable(member) and MOMENT_NAME.search(label)}
    assert {"node_mean", "sumlaw_factorial_moment"} <= names
    assert names == set(MOMENT_ENTRY_POINTS) - {"moments", "corr"}


@pytest.mark.parametrize("law", OVERFLOW_LAWS, ids=repr)
@pytest.mark.parametrize("entry", MOMENT_ENTRY_POINTS)
def test_a_moment_past_the_float_range_is_a_domain_error(entry, law,
                                                         tmp_path):
    # mu1 ** 2, rate ** r and the exp of a moment's log were bare
    # OverflowErrors, and the moments and corr verbs printed them
    example = ten_leaf_example()
    model = treepolya.TreePolyaModel(example.tree, example.splits, law)
    path = tmp_path / "model.json"
    path.write_text(treepolya.io.serialize_model(model))
    for call in MOMENT_ENTRY_POINTS[entry](model, str(path)):
        try:
            call()
        except DomainError:
            pass
