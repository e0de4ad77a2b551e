"""Partition trees: rooted trees whose leaves partition {1, ..., J}.

Leaf indices are 1-based at the API surface and 0-based in count-matrix
columns; a leaf labelled ``j`` always corresponds to column ``j - 1``.
Child order is preserved exactly as given, since the distributions built
on top of these trees are not exchangeable in the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .exceptions import UsageError, ValidationError

__all__ = ["PartitionTree", "incidence_matrix", "validate_partition_tree"]


def incidence_matrix(subsets: Sequence[Iterable[int]],
                     leaf_count: int) -> np.ndarray:
    """0/1 matrix with one row per subset of 1-based leaf labels, so that
    ``counts @ incidence_matrix(subsets, J).T`` holds the subset sums."""
    out = np.zeros((len(subsets), leaf_count))
    for k, subset in enumerate(subsets):
        out[k, [j - 1 for j in subset]] = 1.0
    return out


@dataclass(frozen=True)
class _Node:
    subset: tuple  # sorted 1-based leaf labels
    parent: Optional[int]
    children: tuple  # child node ids, order as given


@dataclass(frozen=True)
class PartitionTree:
    """Validated partition tree.  Node 0 is always the root."""

    leaf_count: int
    nodes: tuple = field(repr=False)

    ROOT = 0

    # -- construction -------------------------------------------------

    @staticmethod
    def from_nested(nested) -> "PartitionTree":
        """Build from nested lists of 1-based leaf labels.

        ``[[1, 2], 3]`` is the tree whose root has the internal node
        {1,2} and the leaf {3} as children.
        """
        if isinstance(nested, int):
            raise ValidationError("root must be an internal node")
        # [subset, parent, children] records in preorder, children in the
        # order given; internal subsets are filled in bottom-up
        nodes, stack = [], [(nested, None)]
        while stack:
            spec, parent = stack.pop()
            if not isinstance(spec, (int, list, tuple)):
                raise ValidationError(f"bad tree entry {spec!r}")
            nid = len(nodes)
            if parent is not None:
                nodes[parent][2].append(nid)
            leaf = isinstance(spec, int)
            nodes.append([(spec,) if leaf else None, parent, []])
            if not leaf:
                stack.extend((child, nid) for child in reversed(spec))
        for node in reversed(nodes):
            if node[0] is None:
                node[0] = tuple(sorted(j for c in node[2] for j in nodes[c][0]))
        nodes = tuple(_Node(sub, par, tuple(ch)) for sub, par, ch in nodes)
        tree = PartitionTree(len(nodes[0].subset), nodes)
        tree._check()
        return tree

    @staticmethod
    def flat(leaf_count: int) -> "PartitionTree":
        """Root directly over all J singleton leaves."""
        return PartitionTree.from_nested(list(range(1, leaf_count + 1)))

    @staticmethod
    def cascade(order: Sequence[int]) -> "PartitionTree":
        """Binary cascade: {o1, rest}, {o2, rest}, ... over a leaf order."""
        order = list(order)
        if len(order) < 2:
            raise UsageError("cascade needs at least two leaves")
        nested = [order[-2], order[-1]]
        for label in reversed(order[:-2]):
            nested = [label, nested]
        return PartitionTree.from_nested(nested)

    # -- validation ---------------------------------------------------

    def _check(self) -> None:
        violations = []
        root = self.nodes[self.ROOT]
        expected_root = tuple(range(1, self.leaf_count + 1))
        if root.subset != expected_root:
            violations.append(
                f"root subset {root.subset} is not {{1,...,{self.leaf_count}}}")
        seen_leaves = set()
        for nid, node in enumerate(self.nodes):
            if node.children:
                if len(node.children) < 2:
                    violations.append(
                        f"node {nid} {node.subset}: trivial partition "
                        f"({len(node.children)} child)")
                merged = []
                for cid in node.children:
                    merged.extend(self.nodes[cid].subset)
                    if self.nodes[cid].parent != nid:
                        violations.append(f"node {cid}: bad parent link")
                if len(merged) != len(set(merged)):
                    violations.append(
                        f"node {nid} {node.subset}: overlapping children")
                if tuple(sorted(merged)) != node.subset:
                    violations.append(
                        f"node {nid} {node.subset}: children do not "
                        "partition the subset")
            else:
                if len(node.subset) != 1:
                    violations.append(
                        f"leaf node {nid} has subset {node.subset}, "
                        "expected a singleton")
                else:
                    seen_leaves.add(node.subset[0])
        missing = set(expected_root) - seen_leaves
        if missing:
            violations.append(f"missing leaves: {sorted(missing)}")
        reached, stack = set(), [self.ROOT]
        while stack:
            nid = stack.pop()
            if nid in reached:
                violations.append(f"node {nid}: reached twice (cycle)")
                break
            reached.add(nid)
            stack.extend(self.nodes[nid].children)
        if len(reached) != len(self.nodes) and not violations:
            violations.append("node table is not connected")
        if violations:
            raise ValidationError(
                "invalid partition tree: " + "; ".join(violations), violations)

    # -- queries ------------------------------------------------------

    @cached_property
    def incidence(self) -> np.ndarray:
        """Read-only node x leaf 0/1 matrix; ``counts @ incidence.T``
        has every node subsum, in node id order."""
        out = incidence_matrix([n.subset for n in self.nodes], self.leaf_count)
        out.setflags(write=False)
        return out

    def preorder(self, node: int = ROOT) -> list:
        """Node ids of the subtree at ``node``, parents first."""
        order, stack = [], [node]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(reversed(self.nodes[nid].children))
        return order

    def subset(self, node: int) -> tuple:
        return self.nodes[node].subset

    def children(self, node: int) -> tuple:
        return self.nodes[node].children

    def parent(self, node: int) -> Optional[int]:
        return self.nodes[node].parent

    def is_leaf(self, node: int) -> bool:
        return not self.nodes[node].children

    @property
    def internal_ids(self) -> list:
        return [i for i, n in enumerate(self.nodes) if n.children]

    @property
    def leaf_ids(self) -> list:
        return [i for i, n in enumerate(self.nodes) if not n.children]

    def leaf_node(self, label: int) -> int:
        """Node id of the leaf {label} (1-based label)."""
        for i, n in enumerate(self.nodes):
            if not n.children and n.subset == (label,):
                return i
        raise UsageError(f"no leaf labelled {label}")

    def path_to(self, node: int, ancestor: int) -> list:
        """Ordered node ids from ``node`` up to ``ancestor`` inclusive."""
        path = [node]
        while path[-1] != ancestor:
            parent = self.nodes[path[-1]].parent
            if parent is None:
                raise UsageError(
                    f"node {ancestor} is not an ancestor of node {node}")
            path.append(parent)
        return path

    def root_path(self, node: int) -> list:
        return self.path_to(node, self.ROOT)

    def child_containing(self, node: int, label: int) -> int:
        """The child of ``node`` whose subset contains the leaf label."""
        for cid in self.nodes[node].children:
            if label in self.nodes[cid].subset:
                return cid
        raise UsageError(f"leaf {label} not under node {node}")

    def common_ancestor(self, i: int, j: int) -> tuple:
        """Deepest node covering nodes ``i`` and ``j`` of disjoint subsets
        (two distinct leaves, say).

        Returns ``(S, C_i, C_j)`` where C_i, C_j are the distinct
        children of S containing each node.
        """
        if i == j:
            raise UsageError("common_ancestor needs two distinct nodes")
        label_i = self.nodes[i].subset[0]
        label_j = self.nodes[j].subset[0]
        anc_i = set(self.root_path(i))
        node = j
        while node not in anc_i:
            node = self.nodes[node].parent
        s = node
        return s, self.child_containing(s, label_i), \
            self.child_containing(s, label_j)

    def prune_at(self, node: int) -> tuple:
        """Subtree rooted at an internal node, reindexed over its leaves.

        Returns ``(tree, translation)`` where ``translation`` maps old
        1-based leaf labels to new ones (sorted order preserved).
        """
        if self.is_leaf(node):
            raise UsageError("cannot prune at a leaf")
        old_labels = self.nodes[node].subset
        translation = {old: new for new, old in enumerate(old_labels, start=1)}
        nested = {}
        for nid in reversed(self.preorder(node)):
            n = self.nodes[nid]
            nested[nid] = [nested.pop(c) for c in n.children] \
                if n.children else translation[n.subset[0]]
        return PartitionTree.from_nested(nested[node]), translation

    def node_by_subset(self, labels: Iterable[int]) -> int:
        key = tuple(sorted(labels))
        for i, n in enumerate(self.nodes):
            if n.subset == key:
                return i
        raise UsageError(f"no node with subset {key}")

    def __len__(self) -> int:
        return len(self.nodes)


def validate_partition_tree(raw) -> PartitionTree:
    """Validate a raw node table into a PartitionTree.

    ``raw`` is a sequence of ``{"subset": [...], "parent": id or None,
    "children": [...]}`` records indexed by node id, with node 0 the root.
    Raises ValidationError carrying the full list of violations.
    """
    try:
        nodes = tuple(
            _Node(tuple(sorted(rec["subset"])),
                  rec.get("parent"),
                  tuple(rec.get("children", ())))
            for rec in raw)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed node table: {exc}") from exc
    if not nodes:
        raise ValidationError("empty node table")
    tree = PartitionTree(len(nodes[0].subset), nodes)
    tree._check()
    return tree
