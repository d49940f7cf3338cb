"""Tests for repro.metrics: error series, ground-truth window, timing."""

import time

import numpy as np
import pytest

from repro.core.queries import InnerProductQuery
from repro.metrics import (
    ErrorSeries,
    GroundTruthWindow,
    Stopwatch,
    absolute_error,
    relative_error,
    time_call,
)


class TestErrorFunctions:
    def test_relative_error(self):
        assert relative_error(10.0, 9.0) == pytest.approx(0.1)

    def test_relative_error_zero_truth_guarded(self):
        assert np.isfinite(relative_error(0.0, 1.0))

    def test_absolute_error(self):
        assert absolute_error(3.0, -1.0) == 4.0


class TestErrorSeries:
    def test_mean_and_max(self):
        s = ErrorSeries()
        for e in (0.1, 0.3, 0.2):
            s.record(e)
        assert s.mean == pytest.approx(0.2)
        assert s.maximum == pytest.approx(0.3)
        assert len(s) == 3

    def test_cumulative_is_running_average(self):
        s = ErrorSeries()
        for e in (1.0, 0.0, 2.0):
            s.record(e)
        assert np.allclose(s.cumulative(), [1.0, 0.5, 1.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ErrorSeries().record(-0.1)

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError):
            __ = ErrorSeries().mean

    def test_values_array(self):
        s = ErrorSeries()
        s.record(0.5)
        assert np.array_equal(s.values, [0.5])


class TestGroundTruthWindow:
    def test_newest_first_indexing(self):
        w = GroundTruthWindow(4)
        w.extend([1.0, 2.0, 3.0])
        assert w[0] == 3.0
        assert w[2] == 1.0

    def test_window_slides(self):
        w = GroundTruthWindow(3)
        w.extend([1, 2, 3, 4, 5])
        assert w.values_newest_first().tolist() == [5.0, 4.0, 3.0]

    def test_out_of_range(self):
        w = GroundTruthWindow(4)
        w.update(1.0)
        with pytest.raises(IndexError):
            __ = w[1]

    def test_segment_range(self):
        w = GroundTruthWindow(8)
        w.extend([5.0, 1.0, 9.0, 4.0])
        assert w.segment_range(0, 2) == (1.0, 9.0)

    def test_segment_range_validation(self):
        w = GroundTruthWindow(4)
        w.update(1.0)
        with pytest.raises(ValueError):
            w.segment_range(3, 1)

    @pytest.mark.parametrize("filled", [16, 40, 9, 1])
    def test_segment_range_matches_brute_force(self, filled):
        """Every (newest, oldest) pair of full and partly filled windows."""
        size = 16
        w = GroundTruthWindow(size)
        # Small integers, so minima and maxima are often tied.
        w.extend(np.random.default_rng(filled).integers(-3, 4, filled).astype(float))
        values = w.values_newest_first()
        for newest in range(size):
            for oldest in range(size):
                part = values[newest : oldest + 1]
                if newest > oldest or part.size == 0:
                    with pytest.raises(ValueError):
                        w.segment_range(newest, oldest)
                else:
                    assert w.segment_range(newest, oldest) == (part.min(), part.max())

    def test_segment_range_negative_index_raises_index_error(self):
        w = GroundTruthWindow(8)
        w.extend([1.0, 2.0, 3.0])
        for newest, oldest in ((-1, 2), (-1, -1), (-5, 9)):
            with pytest.raises(IndexError):
                w.segment_range(newest, oldest)

    def test_inner_product_matches_indexing(self):
        w = GroundTruthWindow(8)
        w.extend([5.0, 1.0, 9.0, 4.0, 2.5])
        q = InnerProductQuery((3, 0, 4), (0.5, 2.0, -1.0))
        assert w.inner_product(q) == sum(
            weight * w[i] for i, weight in zip(q.indices, q.weights)
        )
        with pytest.raises(IndexError):
            w.inner_product(InnerProductQuery((5,), (1.0,)))

    def test_bad_window_size(self):
        with pytest.raises(ValueError):
            GroundTruthWindow(0)


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.001)
        with sw:
            time.sleep(0.001)
        assert sw.count == 2
        assert sw.elapsed >= 0.002
        assert sw.mean == pytest.approx(sw.elapsed / 2)

    def test_rate_is_zero_before_first_lap(self):
        assert Stopwatch().rate == 0.0

    def test_rate_after_laps(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.001)
        assert sw.rate == pytest.approx(sw.count / sw.elapsed)

    def test_double_start_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            __ = Stopwatch().mean

    def test_reset_zeroes_and_discards_running_lap(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.001)
        sw.start()
        sw.reset()
        assert sw.elapsed == 0.0
        assert sw.count == 0
        sw.start()  # not "already running" after a mid-lap reset
        sw.stop()
        assert sw.count == 1

    def test_rate_is_laps_per_second(self):
        sw = Stopwatch()
        sw.elapsed = 2.0
        sw.count = 10
        assert sw.rate == pytest.approx(5.0)

    def test_rate_empty_is_zero(self):
        assert Stopwatch().rate == 0.0

    def test_time_call(self):
        result, seconds = time_call(sum, [1, 2, 3])
        assert result == 6
        assert seconds >= 0.0
