"""Tests for repro.sketches: the related-work comparators of Section 1.1."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import EhSum, ExponentialHistogram, SurfingWavelets


class TestExponentialHistogramCount:
    def test_exact_while_buckets_unmerged(self):
        eh = ExponentialHistogram(16, eps=1.0)
        for b in [1, 0, 1, 1]:
            eh.update(b)
        # eps=1 -> very aggressive merging, but the estimate stays in band.
        assert abs(eh.estimate() - 3) <= 3 * 1.0

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_error_within_eps(self, eps):
        rng = np.random.default_rng(0)
        eh = ExponentialHistogram(256, eps=eps)
        win = deque(maxlen=256)
        for bit in rng.integers(0, 2, 4000):
            eh.update(int(bit))
            win.append(int(bit))
            true = sum(win)
            if true > 10:
                assert abs(eh.estimate() - true) / true <= eps + 1e-9

    def test_bucket_sizes_are_powers_of_two(self):
        rng = np.random.default_rng(1)
        eh = ExponentialHistogram(128, eps=0.2)
        for bit in rng.integers(0, 2, 2000):
            eh.update(int(bit))
        sizes = [b.size for b in eh._buckets]
        assert all(s & (s - 1) == 0 for s in sizes)
        # Canonical: non-decreasing toward the old end.
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_space_logarithmic(self):
        eh = ExponentialHistogram(4096, eps=0.1)
        for __ in range(20_000):
            eh.update(1)
        # O((1/eps) log N) buckets, far below the window size.
        assert eh.n_buckets < 150

    def test_all_zeros(self):
        eh = ExponentialHistogram(64, eps=0.1)
        for __ in range(200):
            eh.update(0)
        assert eh.estimate() == 0.0
        assert eh.n_buckets == 0

    def test_window_expiry(self):
        eh = ExponentialHistogram(8, eps=0.1)
        for __ in range(8):
            eh.update(1)
        for __ in range(8):
            eh.update(0)
        assert eh.estimate() <= 1.0  # at most a straddling remnant

    def test_rejects_non_bits(self):
        eh = ExponentialHistogram(8)
        with pytest.raises(ValueError):
            eh.update(2)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ExponentialHistogram(0)
        with pytest.raises(ValueError):
            ExponentialHistogram(8, eps=0.0)
        with pytest.raises(ValueError):
            ExponentialHistogram(8, eps=1.5)


class TestEhSum:
    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_error_within_eps(self, eps):
        rng = np.random.default_rng(2)
        es = EhSum(128, eps=eps, max_value=100)
        win = deque(maxlen=128)
        for v in rng.uniform(0, 100, 2500):
            es.update(v)
            win.append(round(v))
            true = sum(win)
            if true > 100:
                assert abs(es.estimate() - true) / true <= eps + 1e-9

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_error_bound_hypothesis(self, values):
        """DGIM guarantee: error <= eps * true + 1/2 (half a unit bucket —
        the additive term matters only for tiny window sums)."""
        es = EhSum(32, eps=0.25, max_value=50)
        win = deque(maxlen=32)
        for v in values:
            es.update(v)
            win.append(v)
        true = sum(win)
        assert abs(es.estimate() - true) <= 0.25 * true + 0.5 + 1e-9

    def test_space_much_smaller_than_window_mass(self):
        rng = np.random.default_rng(3)
        es = EhSum(256, eps=0.1, max_value=100)
        for v in rng.uniform(0, 100, 3000):
            es.update(v)
        assert es.n_buckets < 150  # vs ~12800 units of window mass

    def test_rejects_out_of_range(self):
        es = EhSum(8, max_value=10)
        with pytest.raises(ValueError):
            es.update(11)
        with pytest.raises(ValueError):
            es.update(-1)

    def test_zero_values_free(self):
        es = EhSum(8)
        for __ in range(100):
            es.update(0)
        assert es.n_buckets == 0
        assert es.estimate() == 0.0


class TestSurfingWavelets:
    def test_full_budget_reconstructs_exactly(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 100, 64)
        sw = SurfingWavelets(n_coefficients=64)
        sw.extend(x)
        est = sw.estimates(range(64))
        assert np.allclose(est, x[::-1])

    def test_stored_coefficients_bounded(self):
        sw = SurfingWavelets(n_coefficients=16)
        sw.extend(np.random.default_rng(5).uniform(0, 100, 5000))
        # B details + log t frontier.
        assert sw.stored_coefficients <= 16 + 13

    def test_smooth_stream_well_approximated(self):
        t = np.arange(1024)
        x = 50 + 30 * np.sin(2 * np.pi * t / 256)
        sw = SurfingWavelets(n_coefficients=48)
        sw.extend(x)
        est = sw.estimates(range(1024))
        assert float(np.abs(est - x[::-1]).mean()) < 3.0

    def test_finalized_counter(self):
        sw = SurfingWavelets(8)
        sw.extend(range(16))
        assert sw.finalized == 15  # a full 16-leaf tree has 15 internal details

    def test_out_of_range(self):
        sw = SurfingWavelets(8)
        sw.update(1.0)
        with pytest.raises(IndexError):
            sw.point_estimate(1)

    def test_rejects_non_finite(self):
        sw = SurfingWavelets(8)
        with pytest.raises(ValueError):
            sw.update(float("nan"))

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            SurfingWavelets(0)

    def test_answer_inner_product(self):
        from repro.core import exponential_query

        rng = np.random.default_rng(6)
        x = np.cumsum(rng.normal(0, 1, 256)) + 50
        sw = SurfingWavelets(n_coefficients=256)
        sw.extend(x)
        q = exponential_query(16)
        exact = q.evaluate(x[::-1])
        assert sw.answer(q) == pytest.approx(exact, rel=1e-9)

