"""Stateful property tests: SWAT under arbitrary interleavings of updates
and queries, checked against a brute-force sliding-window oracle.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import GrowingSwat, Swat
from repro.metrics import GroundTruthWindow

WINDOW = 32


class SwatMachine(RuleBasedStateMachine):
    """Every filled node must always average its true segment; coverage of
    the observed window must always succeed; raw leaves must be exact."""

    @initialize()
    def setup(self):
        self.tree = Swat(WINDOW, check_invariants=True)
        self.growing = GrowingSwat()
        self.truth = GroundTruthWindow(WINDOW)
        self.history = []

    @rule(value=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    def feed(self, value):
        self.tree.update(value)
        self.growing.update(value)
        self.truth.update(value)
        self.history.append(float(value))

    @rule(index=st.integers(0, WINDOW - 1))
    def point_query(self, index):
        if index >= self.tree.size:
            return
        est = self.tree.estimates([index])[0]
        assert np.isfinite(est)
        if index < 2:  # raw leaves are exact
            assert est == self.truth[index]

    @invariant()
    def node_averages_are_true_segment_means(self):
        if not self.history:
            return
        for node in self.tree.nodes():
            if node.is_filled:
                first, last = node.absolute_segment()
                segment = self.history[first - 1 : last]
                expected = float(np.mean(segment))
                scale = 1.0 + abs(expected)
                assert abs(node.average() - expected) <= 1e-9 * scale

    @invariant()
    def growing_tree_covers_whole_stream(self):
        t = self.growing.time
        if t == 0:
            return
        # Spot-check oldest, middle, newest rather than O(t) work per step.
        for idx in {0, t // 2, t - 1}:
            assert np.isfinite(self.growing.point_estimate(idx))

    @invariant()
    def window_fully_covered_once_warm(self):
        if self.tree.is_warm and self.tree.size == WINDOW:
            cover = self.tree.cover(list(range(WINDOW)))
            assert not cover.extrapolated


TestSwatStateful = SwatMachine.TestCase
TestSwatStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
