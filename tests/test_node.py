"""Tests for repro.core.node: SwatNode segment/position bookkeeping."""

import numpy as np
import pytest

from repro.core.coverage import CoverageError, locate
from repro.core.node import Role, SwatNode
from repro.wavelets.transform import full_decompose, truncate


def filled_node(level=1, end_time=10, data=None, k=None):
    node = SwatNode(level, Role.RIGHT)
    seg_len = node.segment_length
    if data is None:
        data = np.arange(seg_len, dtype=np.float64)
    coeffs = full_decompose(np.asarray(data, dtype=np.float64), "haar")
    if k is not None:
        coeffs = truncate(coeffs, k)
    node.set_contents(coeffs, end_time)
    return node, np.asarray(data, dtype=np.float64)


def located(node, index, now):
    """``(position, extrapolated)`` of one window index over a lone node."""
    __, __, position, extrapolated = locate(
        [node], np.array([index]), now, allow_extrapolation=True
    )
    return int(position[0]), bool(extrapolated[0])


class TestGeometry:
    def test_segment_length(self):
        assert SwatNode(0, "R").segment_length == 2
        assert SwatNode(3, "L").segment_length == 16

    def test_absolute_segment(self):
        node, __ = filled_node(level=1, end_time=10)
        assert node.absolute_segment() == (7, 10)

    def test_relative_segment_drifts_with_time(self):
        node, __ = filled_node(level=1, end_time=10)
        assert node.relative_segment(now=10) == (0, 3)
        assert node.relative_segment(now=13) == (3, 6)

    def test_covers(self):
        node, __ = filled_node(level=1, end_time=10)
        assert not located(node, 0, now=10)[1]
        assert not located(node, 3, now=10)[1]
        assert located(node, 4, now=10)[1]
        assert located(node, 0, now=13)[1]

    def test_empty_node_covers_nothing(self):
        node = SwatNode(0, "S")
        with pytest.raises(CoverageError):
            locate([node], np.array([0]), 5, allow_extrapolation=True)
        with pytest.raises(ValueError):
            node.absolute_segment()

    def test_position_is_oldest_first(self):
        node, data = filled_node(level=1, end_time=10)
        # now=10: window index 0 is the newest = last element of the segment.
        assert located(node, 0, now=10) == (3, False)
        assert located(node, 3, now=10) == (0, False)

    def test_position_outside_segment_is_clamped_or_refused(self):
        node, __ = filled_node(level=1, end_time=10)
        with pytest.raises(CoverageError):
            locate([node], np.array([9]), 10)
        assert located(node, 9, now=10) == (0, True)  # older: the oldest end
        assert located(node, 0, now=13) == (3, True)  # newer: the newest end


class TestContents:
    def test_reconstruct_full_coefficients(self):
        node, data = filled_node(level=2, end_time=8)
        assert np.allclose(node.reconstruct(), data)

    def test_reconstruct_truncated_is_mean(self):
        node, data = filled_node(level=2, end_time=8, k=1)
        assert np.allclose(node.reconstruct(), data.mean())

    def test_reconstruct_other_basis(self):
        node = SwatNode(2, Role.LEFT)
        data = np.arange(8.0)
        node.set_contents(full_decompose(data, "db2"), 8)
        assert np.allclose(node.reconstruct("db2"), data)

    def test_average(self):
        node, data = filled_node(level=1, end_time=4)
        assert node.average() == pytest.approx(data.mean())

    def test_copy_from_shares_reference(self):
        a, __ = filled_node(level=0, end_time=2)
        b = SwatNode(0, Role.SHIFT)
        b.copy_from(a)
        assert b.end_time == a.end_time
        assert b.coeffs is a.coeffs  # shift is O(1), no copy

    def test_unfilled_average_raises(self):
        with pytest.raises(ValueError):
            SwatNode(1, "L").average()

    def test_repr(self):
        node = SwatNode(2, "S")
        assert "S2" in repr(node)
        assert "empty" in repr(node)


class TestValidation:
    def test_swat_rejects_non_finite(self):
        from repro.core import Swat

        tree = Swat(16)
        with pytest.raises(ValueError):
            tree.update(float("nan"))
        with pytest.raises(ValueError):
            tree.update(float("inf"))

    def test_prefix_rejects_non_finite(self):
        from repro.histogram import PrefixStats

        p = PrefixStats(8)
        with pytest.raises(ValueError):
            p.update(float("nan"))
        with pytest.raises(ValueError):
            p.update(float("-inf"))
