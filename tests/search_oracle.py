"""The structure search's exhaustive move loop: the oracle of the screened
one in ``treepolya.fit``.

:func:`exhaustive_grow_node` fully fits every move of every round and
takes the lowest ΔAIC, the first in enumeration order on a tie.  It is the
search's candidate loop as it was before moves were screened, kept to
check that screening changes no move and no ΔAIC.  Its fits are those of
the same :class:`treepolya.fit._FitCache`, every node from its moment
start.
"""

from itertools import combinations

import pytest

import treepolya.fit as fit_module
from treepolya.exceptions import ConvergenceError
from treepolya.tree import _subset_label


def exhaustive_grow_node(children: list, cache, trace: list) -> list:
    """Greedy node creation among one node's children, in place; returns
    the created nodes in order of creation.  Same moves and acceptance
    rule as :func:`treepolya.fit._grow_node`, every move fitted."""
    leaves_under = fit_module._leaves_under
    label = _subset_label(leaves_under(children))
    created: list = []
    node = None  # the grown node; None in a create round
    while len(children) >= 3:
        leaves = [idx for idx, ch in enumerate(children)
                  if isinstance(ch, int)]
        outer = [leaves_under(ch) for ch in children]
        base = cache.fit(outer)[0]
        grown, inner = [], []
        if node is not None:
            grown = [leaves_under(node)]
            inner = [leaves_under(ch) for ch in node]
            base += cache.fit(inner)[0]
        best = None
        for move in (combinations(leaves, 2) if node is None
                     else [(pos,) for pos in leaves]):
            moved = [outer[pos] for pos in move]
            parts = moved + grown
            merged = tuple(sorted(sum(parts, ())))
            rest = [s for s in outer if s not in parts] + [merged]
            delta = cache.fit(rest)[0] + cache.fit(inner + moved)[0] - base
            if best is None or delta < best[0]:
                best = (delta, move)
        if best is None or best[0] >= -fit_module.AIC_EPSILON:
            if node is None:
                break
            node = None
            continue
        delta, move = best
        kind = "create" if node is None else "transfer"
        if node is None:
            node = []
            children.append(node)
            created.append(node)
        node.extend(children[pos] for pos in move)
        for pos in reversed(move):
            del children[pos]
        trace.append({"move": kind, "parent": label,
                      "node": list(leaves_under(node)), "delta_aic": delta})
        if len(trace) > fit_module.MAX_MOVES:
            raise ConvergenceError("structure search exceeded the move budget")
    return created


def exhaustive_search(counts):
    """The search's moves under the exhaustive loop, as
    ``(move, parent, node, delta_aic.hex())``, and its fit cache."""
    cache = fit_module._FitCache(counts)
    trace: list = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fit_module, "_grow_node", exhaustive_grow_node)
        fit_module._search_node(list(range(1, counts.shape[1] + 1)), cache,
                                trace)
    return [(t["move"], t["parent"], t["node"], t["delta_aic"].hex())
            for t in trace], cache
