"""Tests for repro.core.coverage: which node answers each query index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Swat
from repro.core.coverage import Cover, CoverageError, build_cover
from repro.data.synthetic import uniform_stream
from tests.reference import reference_cover


@pytest.fixture()
def tree():
    t = Swat(32)
    t.extend(uniform_stream(100, seed=0))
    return t


class TestBuildCover:
    def test_every_requested_index_assigned(self, tree):
        wanted = [0, 5, 13, 31]
        cover = build_cover(tree.nodes(), wanted, tree.time)
        assigned = sorted(i for idx in cover.assignments.values() for i in idx)
        assert assigned == sorted(wanted)

    def test_duplicate_indices_deduplicated(self, tree):
        cover = build_cover(tree.nodes(), [3, 3, 3], tree.time)
        assigned = [i for idx in cover.assignments.values() for i in idx]
        assert assigned == [3]

    def test_first_node_in_scan_order_wins(self, tree):
        """Index 1 is covered by both R_0 [0,1] and S_0 [1,2]; R scans first."""
        cover = build_cover(tree.nodes(), [1], tree.time)
        node = cover.nodes[0]
        assert (node.role, node.level) == ("R", 0)

    def test_lower_levels_preferred(self, tree):
        cover = build_cover(tree.nodes(), [0], tree.time)
        assert cover.nodes[0].level == 0

    def test_uncovered_raises_without_extrapolation(self, tree):
        with pytest.raises(CoverageError):
            build_cover(tree.nodes(), [10_000], tree.time)

    def test_extrapolation_assigns_nearest_segment(self, tree):
        cover = build_cover(tree.nodes(), [10_000], tree.time, allow_extrapolation=True)
        assert cover.extrapolated == [10_000]
        assert len(cover.nodes) == 1

    def test_empty_tree_raises_even_with_extrapolation(self):
        cold = Swat(16)
        with pytest.raises(CoverageError):
            build_cover(cold.nodes(), [0], cold.time, allow_extrapolation=True)

    def test_unfilled_nodes_skipped(self):
        t = Swat(16)
        t.extend([1.0, 2.0])  # only R_0 filled
        cover = build_cover(t.nodes(), [0, 1], t.time)
        assert {(n.role, n.level) for n in cover.nodes} == {("R", 0)}

    def test_cover_object_api(self):
        c = Cover()
        assert c.nodes == []
        assert c.extrapolated == []


@st.composite
def trees(draw):
    """Warm full and reduced trees, and trees settling after a mid-stream
    ``reconfigure(min_level=)`` at an arbitrary arrival."""
    window = draw(st.sampled_from([8, 16, 32, 64]))
    n_levels = window.bit_length() - 1
    shape = draw(st.sampled_from(["full", "reduced", "settling"]))
    min_level = 0
    if shape != "full":
        min_level = draw(st.integers(1 if shape == "reduced" else 0, n_levels - 1))
    tree = Swat(window, k=draw(st.integers(1, 3)), min_level=min_level)
    data = uniform_stream(4 * window, seed=draw(st.integers(0, 2**16)))
    first = draw(st.integers(window, 2 * window))
    tree.extend(data[:first])
    if shape == "settling":
        new_min_level = draw(st.integers(0, n_levels - 1).filter(lambda m: m != min_level))
        tree.reconfigure(min_level=new_min_level)
        tree.extend(data[first : first + draw(st.integers(0, window))])
    return tree


class TestAgainstReference:
    @given(tree=trees(), data=st.data())
    @settings(max_examples=200)
    def test_cover_matches_reference_walk(self, tree, data):
        indices = [0, 1] + data.draw(st.lists(st.integers(0, tree.size - 1), max_size=64))
        cover = tree.cover(indices)
        assignments, extrapolated = reference_cover(tree, indices)
        assert {node: sorted(a) for node, a in cover.assignments.items()} == assignments
        assert cover.extrapolated == extrapolated
