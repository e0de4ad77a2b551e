import pytest

from treepolya.exceptions import UsageError, ValidationError
from treepolya.tree import PartitionTree

TEN_LEAF = [[1, 2], 3, [[4, 5], [6, 7], [8, [9, 10]]]]


@pytest.fixture
def ten():
    return PartitionTree.from_nested(TEN_LEAF)


class TestConstruction:
    def test_root_is_full_set(self, ten):
        assert ten.subset(ten.ROOT) == tuple(range(1, 11))

    def test_leaf_count_and_internals(self, ten):
        assert ten.leaf_count == 10
        assert len(ten.leaf_ids) == 10
        assert len(ten.internal_ids) == 7

    def test_flat(self):
        t = PartitionTree.flat(4)
        assert t.internal_ids == [t.ROOT]
        assert len(t.children(t.ROOT)) == 4

    def test_cascade(self):
        t = PartitionTree.cascade([1, 2, 3, 4])
        # each internal node splits off one leaf from the remainder
        node = t.ROOT
        for label in (1, 2):
            kids = t.children(node)
            assert any(t.subset(k) == (label,) for k in kids)
            node = next(k for k in kids if len(t.subset(k)) > 1)
        assert sorted(t.subset(k) for k in t.children(node)) \
            == [(3,), (4,)]

    def test_single_child_rejected(self):
        with pytest.raises(ValidationError):
            PartitionTree.from_nested([[1, 2]])

    def test_duplicate_leaf_rejected(self):
        with pytest.raises(ValidationError):
            PartitionTree.from_nested([[1, 2], [2, 3]])

    def test_missing_leaf_rejected(self):
        with pytest.raises(ValidationError):
            PartitionTree.from_nested([1, 3])

    @pytest.mark.parametrize("nested, named", [
        # overlaps: the messages name the nodes whose children overlap
        ([[1, 2], [3, [4, 4]], 5], "node 6 (4, 4): overlapping children"),
        ([[2, 3], [1, [3, 4]]], "node 0 (1, 2, 3, 3, 4): overlapping"),
        # missing leaves, deep in the tree
        ([[1, 2], [[4, 5], 6]], "missing leaves: [3]"),
        ([1, [2, [3, [5, 6]]]], "missing leaves: [4]"),
        # an empty node and a one-child node below valid siblings
        ([[1, 2], [3, []]], "leaf node 6 has subset ()"),
        ([1, [2, [3]]], "node 4 (3,): trivial partition"),
        # entries other than ints and lists; True built a leaf labelled
        # True ({True,2} in reports)
        ([True, 2], "bad tree entry True"),
        ([1, [2.0, 3]], "bad tree entry 2.0")])
    def test_invalid_nested_trees_name_the_fault(self, nested, named):
        with pytest.raises(ValidationError) as err:
            PartitionTree.from_nested(nested)
        assert named in str(err.value)

    def test_every_fault_is_listed_in_node_order(self):
        with pytest.raises(ValidationError) as err:
            PartitionTree.from_nested([[1, 1], [2], []])
        assert err.value.violations == [
            "root subset (1, 1, 2) is not {1,...,3}",
            "node 0 (1, 1, 2): overlapping children",
            "node 1 (1, 1): overlapping children",
            "node 4 (2,): trivial partition (1 child)",
            "leaf node 6 has subset (), expected a singleton",
            "missing leaves: [3]"]


class TestQueries:
    def test_parent_child_consistency(self, ten):
        for nid in range(len(ten)):
            for child in ten.children(nid):
                assert ten.parent(child) == nid

    def test_sibling_subsets_partition_parent(self, ten):
        for nid in ten.internal_ids:
            merged = sorted(
                x for c in ten.children(nid) for x in ten.subset(c))
            assert tuple(merged) == ten.subset(nid)

    def test_leaf_node_lookup(self, ten):
        for label in range(1, 11):
            assert ten.subset(ten.leaf_node(label)) == (label,)
        for label in (0, 11, (3,), [3]):
            with pytest.raises(UsageError, match="no leaf labelled"):
                ten.leaf_node(label)

    def test_root_path(self, ten):
        leaf = ten.leaf_node(9)
        path = ten.root_path(leaf)
        assert path[0] == leaf and path[-1] == ten.ROOT
        subsets = [ten.subset(n) for n in path]
        assert subsets == [(9,), (9, 10), (8, 9, 10), (4, 5, 6, 7, 8, 9, 10),
                           tuple(range(1, 11))]

    def test_common_ancestor(self, ten):
        s, ci, cj = ten.common_ancestor(ten.leaf_node(6), ten.leaf_node(9))
        assert ten.subset(s) == (4, 5, 6, 7, 8, 9, 10)
        assert ten.subset(ci) == (6, 7)
        assert ten.subset(cj) == (8, 9, 10)

    def test_node_by_subset(self, ten):
        nid = ten.node_by_subset((8, 9, 10))
        assert ten.subset(nid) == (8, 9, 10)
        with pytest.raises(UsageError):
            ten.node_by_subset((8, 9))


class TestPrune:
    def test_prune_relabels(self, ten):
        sub, translation = ten.prune_at(ten.node_by_subset((8, 9, 10)))
        assert sub.leaf_count == 3
        assert sub.subset(sub.ROOT) == (1, 2, 3)
        # 8,9,10 map onto 1,2,3 preserving order
        assert translation == {8: 1, 9: 2, 10: 3}

    def test_prune_keeps_shape(self, ten):
        sub, _ = ten.prune_at(ten.node_by_subset((4, 5, 6, 7, 8, 9, 10)))
        assert sorted(len(sub.subset(n)) for n in sub.internal_ids) \
            == [2, 2, 2, 3, 7]
