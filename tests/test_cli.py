"""Tests for the command-line interface."""

import json
import logging

import pytest

from repro import obs
from repro.cli import EXPERIMENTS, main


@pytest.fixture()
def restore_obs():
    """CLI runs may enable observability globally; restore it afterwards."""
    from repro.obs import metrics as obs_metrics

    previous_registry = obs.set_registry(obs.MetricsRegistry())
    previous_enabled = obs_metrics.ENABLED
    yield
    obs_metrics.ENABLED = previous_enabled
    obs.set_registry(previous_registry)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["warp-drive"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fig4c_quick_prints_table(self, capsys):
        assert main(["fig4c", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(c)" in out
        assert "min_level" in out

    def test_space_table(self, capsys):
        assert main(["space"]) == 0
        out = capsys.readouterr().out
        assert "Section 5.1" in out

    def test_every_experiment_has_a_driver(self):
        expected = {
            "fig4a", "fig4c", "fig5", "fig6a", "fig6b",
            "fig9a", "fig9b", "fig9c", "fig10a", "fig10b", "space", "chaos",
            "recovery", "tracedemo", "govern",
        }
        assert set(EXPERIMENTS) == expected

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401


class TestStats:
    def test_stats_without_target_errors(self, capsys, restore_obs):
        assert main(["stats"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_stats_unknown_target_errors(self, capsys, restore_obs):
        assert main(["stats", "warp-drive"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_target_without_stats_errors(self, capsys, restore_obs):
        assert main(["fig4c", "fig4a"]) == 2
        assert "only valid with 'stats'" in capsys.readouterr().err

    def test_metrics_out_empty_path_errors(self, capsys, restore_obs):
        assert main(["fig4c", "--quick", "--metrics-out", ""]) == 2
        assert "empty path" in capsys.readouterr().err

    def test_metrics_out_missing_directory_fails_fast(self, capsys, restore_obs):
        assert main(["fig4c", "--quick", "--metrics-out", "/nonexistent-xyz/m.json"]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err

    def test_stats_runs_and_reports(self, capsys, restore_obs):
        assert main(["stats", "fig4c", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(c)" in out
        assert "== metrics: fig4c ==" in out
        assert "swat.arrivals" in out

    def test_metrics_out_writes_json_dump(self, tmp_path, capsys, restore_obs):
        path = tmp_path / "m.json"
        assert main(["fig4c", "--quick", "--metrics-out", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["counters"]["swat.arrivals"] > 0
        assert data["histograms"]["swat.maintenance.latency"]["count"] > 0

    def test_verbose_flag_installs_stderr_handler(self, restore_obs):
        logger = logging.getLogger("repro")
        before = list(logger.handlers)
        try:
            assert main(["list", "-vv"]) == 0
            added = [h for h in logger.handlers if h not in before]
            assert len(added) == 1
            assert logger.level == logging.DEBUG
        finally:
            for h in logger.handlers[:]:
                if h not in before:
                    logger.removeHandler(h)
            logger.setLevel(logging.NOTSET)


class TestTrace:
    @pytest.fixture()
    def restore_causal(self, restore_obs):
        """Trace runs install a process-wide causal tracer; detach it after."""
        from repro.obs.causal import disable_causal

        yield
        disable_causal()

    def test_trace_without_target_errors(self, capsys, restore_causal):
        assert main(["trace"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_trace_mode_prints_summary_and_writes_chrome_json(
        self, capsys, tmp_path, restore_causal
    ):
        from repro.obs.chrome import validate_chrome

        path = tmp_path / "trace.json"
        code = main(["trace", "tracedemo", "--quick", "--trace-out", str(path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "== causal traces ==" in captured.out
        assert "critical path" in captured.out
        assert "orphans=0" in captured.out
        counts = validate_chrome(json.loads(path.read_text()))
        assert counts["complete"] > 0
        assert counts["traces"] > 0

    def test_trace_out_composes_with_plain_experiments(
        self, tmp_path, restore_causal
    ):
        from repro.obs.chrome import validate_chrome

        path = tmp_path / "trace.json"
        assert main(["tracedemo", "--quick", "--trace-out", str(path)]) == 0
        validate_chrome(json.loads(path.read_text()))

    def test_trace_out_empty_path_errors(self, capsys, restore_causal):
        assert main(["tracedemo", "--quick", "--trace-out", ""]) == 2
        assert "empty path" in capsys.readouterr().err

    def test_govern_prints_frontier_and_writes_report(
        self, capsys, tmp_path, restore_obs
    ):
        path = tmp_path / "govern.json"
        assert main(["govern", "--quick", "--report-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Capacity frontier" in out
        assert "bit-identical" in out
        report = json.loads(path.read_text())
        assert report["fingerprint_match"] is True
        assert all(row["budget_ok"] for row in report["rows"])
        # The whole --quick frontier, pinned: any change to the budget plan,
        # the ledger or the shedding queue moves one of these numbers.
        rows = [
            (r["budget"], r["peak"], r["mean_k"], r["mean_min_level"],
             r["reconfigs"], r["ticks_shed"])
            for r in report["rows"]
        ]
        assert rows == [
            (3200, 3200, 8, 0, 0, 96),
            (1920, 1920, 4, 0, 4, 96),
            (1120, 1088, 2, 0, 4, 96),
            (640, 576, 1, 0, 4, 96),
        ]
        exact = pytest.approx(7.080371446471961e-16, rel=1e-9, abs=1e-12)
        coarse = pytest.approx(0.05972570727227872, rel=1e-9, abs=1e-12)
        assert [r["p95_rel_err"] for r in report["rows"]] == [exact, exact, exact, coarse]
        assert (report["ticks_ingested"], report["ticks_shed"]) == (864, 96)
        assert report["baseline_digest"] == report["disabled_digest"] == "39c714d735136768"

    def test_govern_report_out_bad_dir_errors(self, capsys, restore_obs):
        assert main(["govern", "--quick", "--report-out", "/nonexistent-xyz/r.json"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestReport:
    def test_generate_report_structure(self):
        """The report generator produces a section per figure (tiny run)."""
        from repro.experiments.report import _md_table

        text = _md_table([{"a": 1, "b": 2.5}])
        assert text.startswith("| a | b |")
        assert "| 1 | 2.5 |" in text

    def test_md_table_empty(self):
        from repro.experiments.report import _md_table

        assert "(no rows)" in _md_table([])
