"""Tests for the B+ tree (including property-based invariants)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.datastruct import BPlusTree


class TestBasics:
    def test_empty_get(self):
        assert BPlusTree().get(5) is None

    def test_insert_get(self):
        tree = BPlusTree()
        tree.insert(1, "one")
        assert tree.get(1) == "one"
        assert tree.size == 1

    def test_overwrite(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.get(1) == "b"
        assert tree.size == 1

    def test_contains(self):
        tree = BPlusTree()
        tree.insert(3, "x")
        assert 3 in tree
        assert 4 not in tree

    def test_min_order(self):
        with pytest.raises(ConfigurationError):
            BPlusTree(order=2)

    def test_delete(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        assert tree.delete(1)
        assert tree.get(1) is None
        assert not tree.delete(1)
        assert tree.size == 0


class TestSplitsAndHeight:
    def test_many_inserts_split(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert(key, key * 10)
        for key in range(100):
            assert tree.get(key) == key * 10
        assert tree.height >= 3

    def test_height_grows_logarithmically(self):
        tree = BPlusTree(order=8)
        for key in range(1000):
            tree.insert(key, key)
        assert tree.height <= 5

    def test_reverse_insertion(self):
        tree = BPlusTree(order=4)
        for key in reversed(range(50)):
            tree.insert(key, key)
        assert [k for k, __ in tree.items()] == list(range(50))

    def test_random_insertion(self):
        tree = BPlusTree(order=5)
        keys = list(range(200))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key, -key)
        assert [k for k, __ in tree.items()] == list(range(200))


class TestSearchPath:
    def test_path_length_equals_height(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert(key, key)
        path = tree.search_path(50)
        assert len(path) == tree.height
        assert path[0] == tree.root_id

    def test_single_leaf_path(self):
        tree = BPlusTree()
        tree.insert(1, 1)
        assert tree.search_path(1) == [tree.root_id]

    def test_fetch_counting(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert(key, key)
        before = tree.store.fetches
        tree.get(42)
        assert tree.store.fetches - before == tree.height


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=300))
def test_matches_dict_semantics(keys):
    tree = BPlusTree(order=5)
    reference = {}
    for key in keys:
        tree.insert(key, key * 3)
        reference[key] = key * 3
    for key in reference:
        assert tree.get(key) == reference[key]
    assert tree.size == len(reference)
    assert [k for k, __ in tree.items()] == sorted(reference)
