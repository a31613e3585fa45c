"""Tests for the extent tree."""

import pytest

from repro.common.errors import ConfigurationError
from repro.datastruct import Extent, ExtentTree


class TestExtent:
    def test_translate(self):
        extent = Extent(logical=10, physical=100, length=5)
        assert extent.translate(12) == 102

    def test_translate_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Extent(10, 100, 5).translate(20)

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            Extent(0, 0, 0)


class TestExtentTree:
    def test_insert_lookup(self):
        tree = ExtentTree()
        tree.insert(Extent(0, 1000, 10))
        tree.insert(Extent(10, 2000, 10))
        assert tree.lookup(5).translate(5) == 1005
        assert tree.lookup(15).translate(15) == 2005

    def test_gap_unmapped(self):
        tree = ExtentTree()
        tree.insert(Extent(0, 100, 5))
        tree.insert(Extent(10, 200, 5))
        assert tree.lookup(7) is None
        with pytest.raises(KeyError):
            tree.translate_range(8)

    def test_overlap_rejected(self):
        tree = ExtentTree()
        tree.insert(Extent(0, 100, 10))
        with pytest.raises(ConfigurationError):
            tree.insert(Extent(5, 500, 10))
        with pytest.raises(ConfigurationError):
            tree.insert(Extent(0, 500, 3))

    def test_out_of_order_insert(self):
        tree = ExtentTree()
        tree.insert(Extent(20, 300, 5))
        tree.insert(Extent(0, 100, 5))
        assert [e.logical for e in tree] == [0, 20]

    def test_translate_range_spans_extents(self):
        tree = ExtentTree()
        tree.insert(Extent(0, 100, 4))
        tree.insert(Extent(4, 500, 4))
        pieces = tree.translate_range(6)
        assert pieces == [(100, 4), (500, 2)]

    def test_translate_range_hits_gap(self):
        tree = ExtentTree()
        tree.insert(Extent(0, 100, 2))
        with pytest.raises(KeyError):
            tree.translate_range(5)
