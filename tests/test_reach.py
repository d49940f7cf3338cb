"""Tests for ``python -m tools.reach`` on one cheap entry point."""

import os
import re
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_status():
    """``git status --porcelain`` of the checkout, or None outside a git tree."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"], cwd=REPO, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


@pytest.fixture(scope="module")
def reach_list():
    before = git_status()
    proc = subprocess.run(
        [sys.executable, "-m", "tools.reach", "-m repro list"],
        cwd=REPO, capture_output=True, text=True,
    )
    return proc, before, git_status()


def test_totals_line_parses(reach_list):
    proc, __, __ = reach_list
    assert proc.returncode == 0, proc.stdout + proc.stderr
    first = proc.stdout.splitlines()[0]
    m = re.fullmatch(r"function lines (\d+), unreached (\d+) \((\d+\.\d)%\)", first)
    assert m is not None, first
    total, unreached, percent = int(m[1]), int(m[2]), float(m[3])
    assert 0 < unreached < total
    assert percent == round(100.0 * unreached / total, 1)


def test_lists_unreached_functions_only(reach_list):
    proc, __, __ = reach_list
    unreached = {
        (line.split(":")[0], line.split()[1])
        for line in proc.stdout.splitlines()
        if re.match(r"\S+\.py:\d+  ", line)
    }
    assert ("core/swat.py", "Swat.update") in unreached
    assert ("cli.py", "main") not in unreached


def test_leaves_the_working_tree_unchanged(reach_list):
    __, before, after = reach_list
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before
