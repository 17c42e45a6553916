"""The balanced block-index tree (Section 5.2's O(log n) structure)."""

import bisect
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.avltree import AvlTree


def _floor(tree, key):
    return tree.floor_steps(key)[0]


def _model_floor(keys, probe):
    """The sorted-set oracle: the largest key <= probe, or None."""
    at = bisect.bisect_right(keys, probe)
    return keys[at - 1] if at else None


class TestBasics:
    def test_empty(self):
        tree = AvlTree()
        assert len(tree) == 0
        assert tree.height == 0
        assert tree.floor_steps(5) == (None, 0)

    def test_duplicate_insert_is_a_no_op(self):
        tree = AvlTree()
        tree.insert(10)
        tree.insert(10)
        assert len(tree) == 1
        assert tree.floor_steps(10) == (10, 1)

    def test_delete(self):
        tree = AvlTree()
        for key in (3, 1, 4, 1, 5, 9, 2, 6):
            tree.insert(key)
        tree.delete(4)
        assert _floor(tree, 4) == 3
        assert len(tree) == 6  # 1 was a duplicate insert
        with pytest.raises(KeyError):
            tree.delete(4)

    def test_delete_root_with_two_children(self):
        tree = AvlTree()
        for key in (10, 5, 20, 15, 25):
            tree.insert(key)
        tree.delete(10)
        assert [_floor(tree, probe) for probe in (5, 10, 15, 20, 25)] == [
            5, 5, 15, 20, 25,
        ]
        tree.check_invariants()


class TestFloor:
    def test_floor_is_block_lookup(self):
        # Blocks at 0x0, 0x1000, 0x2000; the block containing an address is
        # the floor of that address.
        tree = AvlTree()
        for start in (0x0, 0x1000, 0x2000):
            tree.insert(start)
        assert _floor(tree, 0x0) == 0x0
        assert _floor(tree, 0xFFF) == 0x0
        assert _floor(tree, 0x1000) == 0x1000
        assert _floor(tree, 0x2FFF) == 0x2000

    def test_floor_below_min(self):
        tree = AvlTree()
        tree.insert(100)
        assert _floor(tree, 99) is None

    def test_steps_count_the_nodes_visited(self):
        tree = AvlTree()
        for key in (10, 5, 20):
            tree.insert(key)
        assert tree.floor_steps(10) == (10, 1)  # the root
        assert tree.floor_steps(5) == (5, 2)
        assert tree.floor_steps(7) == (5, 2)  # 10, then 5's empty right
        assert tree.floor_steps(25) == (20, 2)
        assert tree.floor_steps(1) == (None, 2)


class TestBalance:
    def test_height_is_logarithmic_for_sorted_inserts(self):
        tree = AvlTree()
        n = 1024
        for key in range(n):
            tree.insert(key)
        # A plain BST would have height 1024; AVL stays near log2.
        assert tree.height <= int(1.44 * math.log2(n + 2)) + 1
        tree.check_invariants()

    def test_floor_steps_grow_logarithmically(self):
        tree = AvlTree()
        for key in range(4096):
            tree.insert(key)
        _, steps = tree.floor_steps(4095)
        assert 1 <= steps <= tree.height <= 2 * math.ceil(math.log2(4096)) + 2

    @given(st.lists(st.integers(-1000, 1000), max_size=200))
    @settings(max_examples=50)
    def test_invariants_after_random_inserts(self, keys):
        tree = AvlTree()
        for key in keys:
            tree.insert(key)
        tree.check_invariants()
        assert len(tree) == len(set(keys))

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=100),
        st.lists(st.integers(0, 100), max_size=100),
    )
    @settings(max_examples=50)
    def test_matches_sorted_set_model(self, inserts, deletes):
        tree = AvlTree()
        model = set()
        for key in inserts:
            tree.insert(key)
            model.add(key)
        for key in deletes:
            if key in model:
                tree.delete(key)
                model.discard(key)
            else:
                with pytest.raises(KeyError):
                    tree.delete(key)
        tree.check_invariants()
        assert len(tree) == len(model)
        keys = sorted(model)
        for probe in range(-1, 102):
            found, steps = tree.floor_steps(probe)
            assert found == _model_floor(keys, probe)
            assert steps <= tree.height
