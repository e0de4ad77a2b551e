"""The fit layer's memory contract: counts of 1e9 and 2**62 reach a fit
result or a categorised error through every fit entry point and the
``fit`` and ``search`` verbs, in a process limited to 1 GB of address
space (:mod:`limited`).  A dense survival row of one entry per value
below the largest count asked numpy for 7.45 GiB at 1e9."""

import ast
import contextlib
import io

import numpy as np
import pytest

from limited import run_limited

BIG = [10 ** 9, 2 ** 62]


def _counts(big):
    counts = np.random.default_rng(7).integers(0, 20, size=(30, 3))
    counts[4, 1] = big
    return counts


def _fit_layer(big):
    """How each fit entry point ends on counts with one cell of ``big``:
    "value", or "error[category]" for a TreePolyaError.  Any other
    exception propagates."""
    from treepolya import fit
    from treepolya.exceptions import TreePolyaError
    from treepolya.tree import PartitionTree
    counts = _counts(big)
    calls = {
        "fit_node_dm": lambda: fit.fit_node_dm(counts),
        "fit_node_multinomial": lambda: fit.fit_node_multinomial(counts),
        "select_node_split": lambda: fit.select_node_split(counts),
        "fit_sum_law": lambda: fit.fit_sum_law(counts.sum(axis=1), "nb"),
        "fit_tree": lambda: fit.fit_tree(PartitionTree.flat(3), counts),
        "search_tree": lambda: fit.search_tree(counts),
    }
    ends = {}
    for name, call in calls.items():
        try:
            call()
            ends[name] = "value"
        except TreePolyaError as exc:
            ends[name] = f"error[{exc.category}]"
    return ends


def _verbs(big, directory):
    """The exit code and standard error of ``treepolya fit`` and
    ``treepolya search`` on the same counts, as CSV in ``directory``."""
    from treepolya.cli import main
    from treepolya.io import write_counts_csv
    data = f"{directory}/counts.csv"
    write_counts_csv(data, _counts(big), ["a", "b", "c"])
    ends = {}
    for verb in ("fit", "search"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([verb, "--data", data, "--out",
                         f"{directory}/{verb}.json", "--report",
                         f"{directory}/{verb}.csv"])
        ends[verb] = (code, err.getvalue())
    return ends


@pytest.mark.parametrize("big", BIG, ids=["1e9", "2**62"])
def test_fit_entry_points_end_in_a_value_or_a_categorised_error(big):
    outcome = run_limited(_fit_layer, big)
    assert outcome.raised is None, outcome.traceback
    ends = ast.literal_eval(outcome.value)
    assert set(ends) == {"fit_node_dm", "fit_node_multinomial",
                         "select_node_split", "fit_sum_law", "fit_tree",
                         "search_tree"}
    for name, end in ends.items():
        assert end == "value" or end.startswith("error["), name


@pytest.mark.parametrize("big", BIG, ids=["1e9", "2**62"])
def test_fit_and_search_verbs_exit_cleanly(big, tmp_path):
    outcome = run_limited(_verbs, big, str(tmp_path))
    assert outcome.raised is None, outcome.traceback
    for verb, (code, err) in ast.literal_eval(outcome.value).items():
        assert (code, err) == (0, "") or (
            code == 1 and err.startswith("error[")), verb
        assert "Traceback" not in err


def _allocate(size):
    return len(bytearray(size))


def test_the_limit_acts_in_the_child():
    """An allocation past the limit is a MemoryError in the child; the
    same size is left untried in this process."""
    outcome = run_limited(_allocate, 2 << 30)
    assert outcome.raised == "MemoryError"
    assert run_limited(_allocate, 1 << 20).value == str(1 << 20)
