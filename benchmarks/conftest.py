"""Shared fixtures for the figure-regeneration benchmarks.

Every bench prints the rows the paper's figure reports (via the ``report``
fixture, which bypasses pytest's output capture so the tables appear in
``pytest benchmarks/ --benchmark-only`` output) and also writes them to a
file: under ``benchmarks/results/`` in full mode, the committed tables.

Set ``REPRO_QUICK=1`` to run scaled-down versions (~10x faster) of the
costliest benches.  Quick tables go to pytest's temporary directory
instead, so a quick run never rewrites a committed table.
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def quick_mode() -> bool:
    return os.environ.get("REPRO_QUICK", "0") not in ("0", "", "false")


@pytest.fixture()
def report(request, tmp_path_factory):
    """Print a table past pytest's capture and persist it: to results/ in
    full mode, under pytest's temporary directory in quick mode."""
    capman = request.config.pluginmanager.getplugin("capturemanager")
    results = tmp_path_factory.getbasetemp() / "results" if quick_mode() else RESULTS_DIR

    def _report(text: str, name: str = None) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print("\n" + text)
        else:
            print("\n" + text)
        filename = name or request.node.name
        results.mkdir(exist_ok=True)
        (results / f"{filename}.txt").write_text(text + "\n")

    return _report
