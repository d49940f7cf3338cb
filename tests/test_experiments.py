"""Smoke tests for the per-figure experiment drivers (scaled-down runs)."""

import numpy as np
import pytest

from repro.experiments import (
    dataset,
    fig4a_relative_error,
    fig4c_levels_sweep,
    fig5_error_comparison,
    fig6a_maintenance_time,
    fig6b_response_time,
    fig9a_rate_sweep,
    fig9c_precision_sweep,
    fig10a_client_sweep,
    fig10b_precision_sweep_multi,
    format_table,
    replication_dataset,
    space_complexity,
)


class TestDatasets:
    def test_real_dataset(self):
        assert dataset("real").size == 2922

    def test_synthetic_dataset_sized(self):
        assert dataset("synthetic", n=500).size == 500

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            dataset("imaginary")

    def test_replication_dataset_returns_range(self):
        data, (lo, hi) = replication_dataset("real")
        assert lo <= data.min() and data.max() <= hi


def pinned(values):
    """Exact pin of driver outputs, as ``TestFig9And10`` pins its errors."""
    return pytest.approx(values, rel=1e-9, abs=1e-12)


class TestFig4:
    """Small-setting driver runs; besides the paper's trends, the outputs are
    pinned exactly so a refactor cannot move a figure unnoticed."""

    def test_fig4a_small(self):
        out = fig4a_relative_error(n_points=800, window_size=256, query_length=32)
        assert out["relative"].size == 544
        assert out["cumulative"].size == out["relative"].size
        assert out["mean"] == pinned(0.04011881311940881)

    def test_fig4a_cumulative_is_running_mean(self):
        out = fig4a_relative_error(n_points=600, window_size=256, query_length=16)
        manual = np.cumsum(out["relative"]) / np.arange(1, out["relative"].size + 1)
        assert np.allclose(out["cumulative"], manual)

    def test_fig4c_error_grows_with_dropped_levels(self):
        rows = fig4c_levels_sweep(n_points=1200, window_size=128, query_length=16)
        lin = [r["linear"] for r in rows]
        exp = [r["exponential"] for r in rows]
        # Coarser trees are never better on average (allow tiny noise).
        assert lin[-1] > lin[0]
        assert exp[-1] >= exp[0]
        # The paper's core claim: linear error grows much faster.
        assert lin[-1] / max(lin[0], 1e-12) > exp[-1] / max(exp[0], 1e-12)
        assert [r["min_level"] for r in rows] == [0, 1, 2, 3, 4, 5]
        assert exp == pinned([
            11.286509471632655, 22.09833865336869, 25.974686542103687,
            27.41208755701395, 27.91831004819329, 27.46651694454223,
        ])
        assert lin == pinned([
            17.939113504451335, 26.360338978584164, 31.6205123147554,
            45.47933332518108, 58.23689317971083, 61.109261499343454,
        ])


class TestFig5:
    def test_fig5_fixed_mode_swat_wins_exponential(self):
        rows = fig5_error_comparison(
            data="real", mode="fixed", eps_values=(0.1,),
            window_size=256, n_buckets=24, query_length=32,
            n_points=1200, query_every=64,
        )
        by_kind = {r["kind"]: r for r in rows}
        assert by_kind["exponential"]["swat"] < by_kind["exponential"]["hist_eps_0.1"]
        # (swat, hist_eps_0.1) per kind, exponential then linear.
        assert [r["kind"] for r in rows] == ["exponential", "linear"]
        assert [v for r in rows for v in (r["swat"], r["hist_eps_0.1"])] == pinned([
            0.007224662807960358, 0.020309575583740868,
            0.011241691489668174, 0.0039031529089453595,
        ])

    def test_fig5_random_mode_runs(self):
        rows = fig5_error_comparison(
            data="synthetic", mode="random", eps_values=(0.1,),
            window_size=256, n_buckets=24, n_points=1200, query_every=64,
        )
        assert len(rows) == 2
        assert all(np.isfinite(r["swat"]) for r in rows)
        assert [r["kind"] for r in rows] == ["exponential", "linear"]
        assert [v for r in rows for v in (r["swat"], r["hist_eps_0.1"])] == pinned([
            0.16050496774347156, 0.11549873539589818,
            0.06819309151533116, 0.032686788163167634,
        ])

    def test_fig5_unknown_mode(self):
        with pytest.raises(ValueError):
            fig5_error_comparison(mode="psychic", n_points=600, query_every=64)


class TestFig6:
    def test_fig6a_small(self):
        rows = fig6a_maintenance_time(sizes=(2000, 4000), window_size=256)
        assert len(rows) == 2
        assert all(r["swat_seconds"] > 0 for r in rows)
        # Larger datasets take longer for both techniques.
        assert rows[1]["swat_seconds"] > rows[0]["swat_seconds"]

    def test_fig6b_swat_is_much_faster(self):
        out = fig6b_response_time(
            n_queries=10, n_hist_queries=1, window_size=256, n_buckets=16,
            hist_method="dense",
        )
        assert out["speedup"] > 10.0  # orders of magnitude on full size


class TestFig9And10:
    """Small-setting driver runs, with SWAT-ASR's totals and errors pinned
    exactly: a protocol refactor must not move a single message or answer."""

    @staticmethod
    def assert_asr(rows, totals, errors):
        assert [r["SWAT-ASR"] for r in rows] == list(totals)
        for row, err in zip(rows, errors):
            assert row["SWAT-ASR_err"] == pytest.approx(err, rel=1e-9, abs=1e-12)

    def test_fig9a_caching_wins_when_reads_dominate(self):
        rows = fig9a_rate_sweep(
            data="real", ratios=(0.5, 4.0), measure_time=150.0
        )
        assert len(rows) == 2
        for r in rows:
            assert r["SWAT-ASR"] >= 0 and r["DC"] >= 0 and r["APS"] >= 0
        self.assert_asr(
            rows, (407, 413), (2.7474319116057207e-15, 0.009795333944153696)
        )

    def test_fig9c_cost_grows_with_tighter_precision(self):
        rows = fig9c_precision_sweep(
            data="real", precisions=(20.0, 1.0), measure_time=150.0
        )
        loose, tight = rows[0], rows[1]
        assert tight["SWAT-ASR"] >= loose["SWAT-ASR"]
        self.assert_asr(
            rows, (368, 424), (0.42001695828943514, 2.1316282072803005e-15)
        )

    def test_fig10a_multi_client(self):
        rows = fig10a_client_sweep(
            data="real", client_counts=(2, 6), measure_time=100.0
        )
        assert rows[1]["SWAT-ASR"] > rows[0]["SWAT-ASR"]  # more clients, more msgs
        self.assert_asr(
            rows, (539, 2231), (2.184918912462308e-15, 0.003966477647165524)
        )

    def test_fig10b_runs(self):
        rows = fig10b_precision_sweep_multi(
            precisions=(20.0, 5.0), measure_time=100.0
        )
        assert len(rows) == 2
        self.assert_asr(
            rows, (2205, 2205), (5.340912897130087e-15, 5.340912897130087e-15)
        )

    def test_space_complexity_table(self):
        rows = space_complexity(window_sizes=(32, 256), n_clients=6)
        assert rows[0]["DC_total"] == 6 * 32
        assert rows[0]["SWAT-ASR_per_site"] == 5
        assert rows[1]["DC_total"] // rows[0]["DC_total"] == 8  # O(N) growth
        assert rows[1]["SWAT-ASR_per_site"] - rows[0]["SWAT-ASR_per_site"] == 3  # O(log N)


class TestFormatTable:
    def test_renders_rows(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}], title="t")
        assert "t" in text and "a" in text and "10" in text

    def test_empty(self):
        assert "(empty)" in format_table([], title="x")
