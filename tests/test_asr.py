"""Tests for the SWAT-ASR protocol (:mod:`repro.replication.async_asr`).

The central scenario mirrors the Section 3 walk-through on the Figure 7
topology: a read at C3 pulls the replica first to C1, then to C3; enclosed
range refinements are absorbed silently; write pressure contracts the scheme
back toward the source.
"""

import numpy as np
import pytest

from repro.contracts import check_async_asr
from repro.core.queries import InnerProductQuery, linear_query, point_query
from repro.network.directory import Segment
from repro.network.messages import MessageKind
from repro.network.topology import SOURCE, Topology
from repro.replication.async_asr import AsyncSwatAsr

N = 16
SEG23 = Segment(2, 3)


def make_asr(constant=35.0):
    asr = AsyncSwatAsr(Topology.paper_example(), N)
    for __ in range(N):
        asr.on_data(constant)
    return asr


class TestWalkThrough:
    def test_first_read_travels_to_source(self):
        asr = make_asr()
        answer = asr.on_query("C3", point_query(3, precision=20.0))
        assert answer == pytest.approx(35.0)
        # Two query hops up (C3->C1, C1->S) and two responses back.
        assert asr.stats.count(MessageKind.QUERY) == 2
        assert asr.stats.count(MessageKind.RESPONSE) == 2
        # S marked C1 interested with one read.
        row = asr.sites[SOURCE].directory.row(SEG23)
        assert "C1" in row.interested
        assert row.read_counts["C1"] == 1

    def test_expansion_grants_replica_to_c1_then_c3(self):
        asr = make_asr()
        asr.on_query("C3", point_query(3, precision=20.0))
        asr.on_phase_end()
        assert asr.stats.count(MessageKind.INSERT) == 1
        assert asr.sites["C1"].directory.row(SEG23).is_cached
        assert "C1" in asr.sites[SOURCE].directory.row(SEG23).subscribed
        # Second phase: C3 asks three times; C1 satisfies them all.
        for __ in range(3):
            asr.on_query("C3", point_query(3, precision=20.0))
        assert asr.sites["C1"].directory.row(SEG23).read_counts["C3"] == 3
        asr.on_phase_end()
        assert asr.sites["C3"].directory.row(SEG23).is_cached
        # Third phase: C3 answers locally, zero messages.
        before = asr.stats.total
        asr.on_query("C3", point_query(3, precision=20.0))
        assert asr.stats.total == before
        assert asr.sites["C3"].directory.row(SEG23).local_reads == 1

    def test_enclosed_updates_not_propagated(self):
        asr = make_asr()
        asr.on_query("C3", point_query(3, precision=20.0))
        asr.on_phase_end()  # C1 now subscribed
        before = asr.stats.count(MessageKind.UPDATE)
        # Same constant data: fresh ranges equal the old ones -> enclosed.
        asr.on_data(35.0)
        assert asr.stats.count(MessageKind.UPDATE) == before
        assert asr.sites[SOURCE].directory.row(SEG23).write_count == 0

    def test_nonenclosed_update_pushed_to_subscribers(self):
        asr = make_asr()
        asr.on_query("C3", point_query(3, precision=20.0))
        asr.on_phase_end()
        before = asr.stats.count(MessageKind.UPDATE)
        asr.on_data(90.0)  # widens ranges for the segments reaching index 0..
        asr.on_data(90.0)
        asr.on_data(90.0)  # ..and eventually (2,3)
        asr.on_data(90.0)
        assert asr.stats.count(MessageKind.UPDATE) > before
        # The walk-through's divergence: the source keeps refining silently,
        # so C1's (wider) range must still enclose the source's current one.
        c1_lo, c1_hi = asr.sites["C1"].directory.row(SEG23).approx
        s_lo, s_hi = asr.sites[SOURCE].directory.row(SEG23).approx
        assert c1_lo <= s_lo and s_hi <= c1_hi

    def test_contraction_under_write_pressure(self):
        asr = make_asr()
        asr.on_query("C3", point_query(3, precision=200.0))
        asr.on_phase_end()
        for __ in range(2):
            asr.on_query("C3", point_query(3, precision=200.0))
        asr.on_phase_end()
        assert asr.sites["C3"].directory.row(SEG23).is_cached
        # Now oscillate values (writes) with no reads at C3.
        for i in range(8):
            asr.on_data(10.0 if i % 2 == 0 else 90.0)
        asr.on_phase_end()
        assert not asr.sites["C3"].directory.row(SEG23).is_cached
        assert asr.stats.count(MessageKind.UNSUBSCRIBE) >= 1
        assert "C3" not in asr.sites["C1"].directory.row(SEG23).subscribed


class TestProtocolProperties:
    def test_queries_before_warmup_rejected(self):
        asr = AsyncSwatAsr(Topology.single_client(), N)
        asr.on_data(1.0)
        with pytest.raises(RuntimeError):
            asr.on_query("C1", point_query(0, precision=1.0))

    def test_unknown_site_rejected(self, ambient_tracer):
        """Rejected before the clock moves or a query span opens."""
        asr = make_asr()
        with pytest.raises(KeyError):
            asr.on_query("C99", point_query(0, precision=1.0), now=100.0)
        assert asr.sim.now == 0.0
        assert ambient_tracer.spans
        assert all(span.finished for span in ambient_tracer.spans)

    def test_signed_weights_rejected(self, ambient_tracer):
        """Weights (1, -1) on one segment sum to 0, and 0 x inf is nan on an
        uncached row: the query is refused before the clock moves, a message
        is sent or a span opens."""
        asr = AsyncSwatAsr(Topology.complete_binary_tree(6), 32)
        for value in np.random.default_rng(0).uniform(0, 100, 32):
            asr.on_data(float(value))
        sent = asr.stats.snapshot()
        query = InnerProductQuery((0, 1), (1.0, -1.0), precision=5.0)
        for client in asr.topology.clients:
            with pytest.raises(ValueError, match=r"\[1\.0, -1\.0\]"):
                asr.on_query(client, query, now=100.0)
        assert asr.sim.now < 100.0
        assert asr.stats.snapshot() == sent
        assert ambient_tracer.spans
        assert all(span.finished for span in ambient_tracer.spans)

    def test_answers_respect_precision(self):
        """Midpoint answers are within delta of the truth."""
        rng = np.random.default_rng(0)
        asr = AsyncSwatAsr(Topology.paper_example(), N)
        stream = list(rng.uniform(0, 100, 200))
        for v in stream[:N]:
            asr.on_data(v)
        t = N
        for v in stream[N:]:
            asr.on_data(v)
            t += 1
            if t % 3 == 0:
                q = linear_query(8, precision=5.0)
                ans = asr.on_query("C4", q)
                truth = q.evaluate(asr.window.values_newest_first())
                assert abs(ans - truth) <= q.precision + 1e-9
            if t % 20 == 0:
                asr.on_phase_end()

    def test_precision_monotone_down_the_tree(self):
        rng = np.random.default_rng(1)
        asr = AsyncSwatAsr(Topology.complete_binary_tree(6), 32)
        for v in rng.uniform(0, 100, 32):
            asr.on_data(v)
        t = 0
        for v in rng.uniform(0, 100, 300):
            asr.on_data(v)
            t += 1
            if t % 2 == 0:
                client = f"C{rng.integers(1, 7)}"
                asr.on_query(client, linear_query(16, precision=float(rng.uniform(5, 50))))
            if t % 15 == 0:
                asr.on_phase_end()
            check_async_asr(asr)

    def test_approximation_count_bounded_by_sites_times_segments(self):
        asr = make_asr()
        max_total = len(asr.topology) * len(asr.sites[SOURCE].directory.segments)
        assert 0 < asr.approximation_count() <= max_total

    def test_source_always_answers_exactly(self):
        asr = make_asr(constant=12.0)
        asr.on_data(77.0)
        q = point_query(0, precision=0.0)  # zero tolerance: only exact works
        # Query issued at a deep client must still come back exact.
        assert asr.on_query("C3", q) == pytest.approx(77.0)

    def test_replication_scheme_stays_connected(self):
        """A site may hold a replica only if its parent path holds one too
        (root excluded) — ADR's connectivity invariant."""
        rng = np.random.default_rng(2)
        asr = AsyncSwatAsr(Topology.complete_binary_tree(6), 32)
        for v in rng.uniform(0, 100, 32):
            asr.on_data(v)
        t = 0
        for v in rng.uniform(0, 100, 400):
            asr.on_data(v)
            t += 1
            if t % 2 == 0:
                client = f"C{rng.integers(1, 7)}"
                asr.on_query(client, linear_query(8, precision=float(rng.uniform(2, 30))))
            if t % 10 == 0:
                asr.on_phase_end()
            for seg in asr.sites[SOURCE].directory.segments:
                for node in asr.topology.clients:
                    if asr.sites[node].directory.row(seg).is_cached:
                        parent = asr.topology.parent(node)
                        if parent != SOURCE:
                            assert asr.sites[parent].directory.row(seg).is_cached


class TestSummaryRanges:
    """ASR with ranges derived from the source's deviation-tracked SWAT."""

    def _run(self, use_summary):
        rng = np.random.default_rng(4)
        asr = AsyncSwatAsr(Topology.paper_example(), N, use_summary_ranges=use_summary)
        stream = rng.uniform(0, 100, 300)
        for v in stream[:N]:
            asr.on_data(v)
        errors = []
        t = N
        for v in stream[N:]:
            asr.on_data(v)
            t += 1
            if t % 3 == 0:
                q = linear_query(8, precision=10.0)
                ans = asr.on_query("C3", q)
                truth = q.evaluate(asr.window.values_newest_first())
                errors.append(abs(ans - truth))
            if t % 15 == 0:
                asr.on_phase_end()
        return asr, errors

    def test_answers_still_within_precision(self):
        asr, errors = self._run(use_summary=True)
        assert max(errors) <= 10.0 + 1e-9

    def test_summary_ranges_enclose_true_ranges(self):
        asr, __ = self._run(use_summary=True)
        for seg in asr.sites["S"].directory.segments:
            lo, hi = asr.sites["S"].directory.row(seg).approx
            t_lo, t_hi = asr.window.segment_range(seg.newest, seg.oldest)
            assert lo <= t_lo + 1e-9 and t_hi <= hi + 1e-9

    def test_summary_ranges_cost_no_less_than_exact(self):
        exact, __ = self._run(use_summary=False)
        summary, __ = self._run(use_summary=True)
        # Wider certified ranges can only increase forwarding + update load.
        assert summary.stats.total >= exact.stats.total

    def test_flag_default_off(self):
        assert not AsyncSwatAsr(Topology.single_client(), N).use_summary_ranges
