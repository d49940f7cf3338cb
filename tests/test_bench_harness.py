"""The benchmark harness: quick runs leave the committed tables alone.

``benchmarks/results/`` holds the full-mode tables.  A ``REPRO_QUICK=1`` run
prints the same tables from scaled-down settings and writes them under
pytest's temporary directory instead.
"""

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"


def _results_bytes():
    return {p.name: p.read_bytes() for p in sorted(RESULTS.iterdir()) if p.is_file()}


def test_quick_bench_leaves_committed_results_unchanged(tmp_path):
    before = _results_bytes()
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "benchmarks/bench_fig4.py::test_fig4b_cumulative_error",
            "--benchmark-disable", "--basetemp", str(tmp_path / "bench"),
        ],
        cwd=REPO,
        env=dict(os.environ, REPRO_QUICK="1", PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Figure 4(b)" in proc.stdout  # the table is still printed
    assert _results_bytes() == before
    quick_table = tmp_path / "bench" / "results" / "test_fig4b_cumulative_error.txt"
    assert "Figure 4(b)" in quick_table.read_text()
