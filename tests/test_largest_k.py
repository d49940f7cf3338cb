"""Tests for largest-k coefficient selection (sparse SWAT nodes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QueryEngine, Swat, exponential_query, linear_query
from repro.data import uniform_stream
from repro.wavelets.haar import (
    largest_coefficients,
    parent_position,
    sparse_combine,
    sparse_reconstruct,
)
from repro.wavelets.transform import full_decompose, reconstruct, truncate
from tests.reference import assert_reference_answer, reference_estimates


class TestSparsePrimitives:
    def test_parent_position_mapping(self):
        # Child band at 1 maps to parent band at 2 (older first).
        assert parent_position(1, is_newer=False) == 2
        assert parent_position(1, is_newer=True) == 3
        # Child band [2, 4) maps to parent band [4, 8).
        assert parent_position(2, is_newer=False) == 4
        assert parent_position(3, is_newer=False) == 5
        assert parent_position(2, is_newer=True) == 6

    def test_parent_position_rejects_approximation(self):
        with pytest.raises(ValueError):
            parent_position(0, is_newer=False)

    @given(st.integers(1, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_full_budget_combine_is_exact(self, log_half, seed):
        half = 1 << log_half
        rng = np.random.default_rng(seed)
        x = rng.normal(size=2 * half)
        pl, vl = largest_coefficients(full_decompose(x[:half], "haar"), half)
        pr, vr = largest_coefficients(full_decompose(x[half:], "haar"), half)
        pp, vv = sparse_combine(pl, vl, pr, vr, 2 * half)
        assert np.allclose(sparse_reconstruct(pp, vv, 2 * half), x)

    def test_positions_sorted_and_unique(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=16)
        pl, vl = largest_coefficients(full_decompose(x[:8], "haar"), 3)
        pr, vr = largest_coefficients(full_decompose(x[8:], "haar"), 3)
        pp, vv = sparse_combine(pl, vl, pr, vr, 4)
        assert pp.size == vv.size == 4
        assert np.all(np.diff(pp) > 0)

    def test_approximation_always_kept(self):
        flat = np.array([0.001, 100.0, 50.0, 25.0])
        pos, val = largest_coefficients(flat, 2)
        assert pos[0] == 0  # the tiny approximation survives top-k

    def test_largest_beats_first_on_spiky_signal(self):
        spiky = np.zeros(32)
        spiky[5] = 100.0
        spiky[20] = -60.0
        flat = full_decompose(spiky, "haar")
        for k in (3, 4, 6):
            first = reconstruct(truncate(flat, k), 32, "haar")
            pos, val = largest_coefficients(flat, k)
            top = sparse_reconstruct(pos, val, 32)
            assert np.abs(top - spiky).sum() <= np.abs(first - spiky).sum() + 1e-9

    def test_sparse_reconstruct_validates(self):
        with pytest.raises(ValueError):
            sparse_reconstruct([4], [1.0], 4)
        with pytest.raises(ValueError):
            sparse_reconstruct([0], [1.0], 6)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            largest_coefficients(np.zeros(4), 0)
        with pytest.raises(ValueError):
            sparse_combine(np.array([0]), np.array([1.0]), np.array([0]), np.array([1.0]), 0)


class TestLargestKTree:
    def test_selection_validation(self):
        with pytest.raises(ValueError):
            Swat(16, selection="best")
        with pytest.raises(ValueError):
            Swat(16, wavelet="db2", selection="largest")

    def test_node_averages_still_exact(self):
        """The approximation coefficient is always retained, so every node's
        average matches the true segment mean regardless of selection."""
        stream = uniform_stream(200, seed=0)
        tree = Swat(32, k=3, selection="largest")
        tree.extend(stream)
        for node in tree.nodes():
            if node.is_filled:
                first, last = node.absolute_segment()
                assert node.average() == pytest.approx(
                    float(np.mean(stream[first - 1 : last]))
                )

    def test_full_k_matches_first_selection(self):
        stream = uniform_stream(200, seed=1)
        a = Swat(16, k=16, selection="first")
        b = Swat(16, k=16, selection="largest")
        a.extend(stream)
        b.extend(stream)
        assert np.allclose(a.reconstruct_window(), b.reconstruct_window())
        assert np.array_equal(b.reconstruct_window(), reference_estimates(b, range(16)))

    def test_largest_k_wins_on_bursty_stream(self):
        """Occasional spikes are where top-k energy selection pays off."""
        rng = np.random.default_rng(2)
        stream = np.full(600, 50.0)
        spikes = rng.choice(600, size=30, replace=False)
        stream[spikes] += rng.uniform(50, 100, size=30)
        errs = {}
        for selection in ("first", "largest"):
            tree = Swat(128, k=4, selection=selection, use_raw_leaves=False)
            tree.extend(stream)
            window = stream[-128:][::-1]
            errs[selection] = float(np.abs(tree.reconstruct_window() - window).mean())
        assert errs["largest"] <= errs["first"] + 1e-9

    def test_queries_work(self):
        tree = Swat(64, k=4, selection="largest")
        tree.extend(uniform_stream(300, seed=3))
        engine = QueryEngine(tree)
        for q in (exponential_query(16), linear_query(48, start=8)):
            ans = tree.answer(q)
            assert np.isfinite(ans.value)
            assert_reference_answer(tree, q, ans)
            assert_reference_answer(tree, q, engine.answer(q))
        assert engine.fallbacks == 0

    def test_checkpoint_roundtrip_preserves_positions(self):
        tree = Swat(32, k=4, selection="largest")
        tree.extend(uniform_stream(150, seed=4))
        restored = Swat.from_state(tree.to_state())
        assert restored.selection == "largest"
        assert np.array_equal(
            restored.reconstruct_window(), reference_estimates(tree, range(32))
        )

    def test_memory_budget_respected(self):
        tree = Swat(64, k=4, selection="largest")
        tree.extend(uniform_stream(300, seed=5))
        assert tree.memory_coefficients <= 4 * tree.num_nodes


def test_largest_k_excludes_deviation_tracking():
    with pytest.raises(ValueError):
        Swat(16, selection="largest", track_deviation=True)
