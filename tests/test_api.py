"""The names that the benchmark and the package's own exports rely on.

``perfbench/tracing.py`` wraps package functions by name, and its
``bootstrap.load_lazy`` calls ``treepolya.special.pfq_convergent``; a
deletion that breaks either should fail here before it breaks a
benchmark run.  The README's CLI synopsis is checked against the parser
here too, and so is the reach of the count checks: every public entry
point that takes counts is in ``test_inference``'s table of non-number
inputs, and every line of the package's source fits in 79 columns.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import typing
from pathlib import Path

import mpmath  # noqa: F401  (a traced target lives in it)
import pytest

import treepolya
import treepolya.cli  # noqa: F401  (loads every module the CLI uses)
from treepolya import polya
from treepolya.exceptions import UsageError
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


def _count_parameters():
    """(callable name, parameter) for every count parameter of the public
    callables: what each module's ``__all__`` lists, and the public
    methods of its classes."""
    for info in pkgutil.iter_modules(treepolya.__path__):
        module = importlib.import_module(f"treepolya.{info.name}")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(attr, getattr(obj, attr)) for attr in vars(obj)
                            if not attr.startswith("_")]
            for label, member in members:
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
