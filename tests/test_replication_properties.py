"""Property tests for the replication layer: cached state stays *valid*
(encloses the truth) under arbitrary interleavings of data, queries, and
phases — the soundness on which every precision guarantee rests — and every
answer is within delta/2 of the truth, as ``repro.replication.base``
promises for all three protocols.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queries import exponential_query, linear_query
from repro.network.topology import SOURCE, Topology
from repro.replication import AdaptivePrecision, AsyncSwatAsr, DivergenceCaching

N = 16
VR = (0.0, 100.0)
QUERIES = {"linear": linear_query, "exponential": exponential_query}

schedule = st.lists(
    st.tuples(
        st.sampled_from(["data", "query", "phase"]),
        st.floats(0, 100, allow_nan=False),
        st.integers(0, 3),  # client selector
        st.floats(0.5, 40.0, allow_nan=False),  # precision
        st.sampled_from(sorted(QUERIES)),  # query weights
    ),
    min_size=5,
    max_size=80,
)


def drive(protocol, steps, clients):
    """Run a schedule; returns (queries_answered, worst_error), where the
    error is how far an answer lies outside delta/2 of the truth."""
    rng_values = iter(np.random.default_rng(0).uniform(0, 100, 2000))
    for __ in range(N):  # warm up the window
        protocol.on_data(next(rng_values), now=0.0)
    t = float(N)
    worst = 0.0
    answered = 0
    for kind, value, client_idx, precision, shape in steps:
        t += 1.0
        if kind == "data":
            protocol.on_data(value, now=t)
        elif kind == "phase":
            protocol.on_phase_end(now=t)
        else:
            client = clients[client_idx % len(clients)]
            q = QUERIES[shape](6, precision=precision)
            ans = protocol.on_query(client, q, now=t)
            truth = q.evaluate(protocol.window.values_newest_first())
            worst = max(worst, abs(ans - truth) - precision / 2)
            answered += 1
    return answered, worst


class TestPrecisionContracts:
    @given(schedule)
    @settings(max_examples=25, deadline=None)
    def test_asr_never_violates_precision(self, steps):
        topo = Topology.paper_example()
        asr = AsyncSwatAsr(topo, N, check_invariants=True)
        __, worst = drive(asr, steps, topo.clients)
        assert worst <= 1e-9

    @given(schedule)
    @settings(max_examples=25, deadline=None)
    def test_dc_never_violates_precision(self, steps):
        topo = Topology.paper_example()
        dc = DivergenceCaching(topo, N, value_range=VR)
        __, worst = drive(dc, steps, topo.clients)
        assert worst <= 1e-9

    @given(schedule)
    @settings(max_examples=25, deadline=None)
    def test_aps_never_violates_precision(self, steps):
        topo = Topology.paper_example()
        aps = AdaptivePrecision(topo, N, value_range=VR)
        __, worst = drive(aps, steps, topo.clients)
        assert worst <= 1e-9


class TestCacheValidity:
    @given(schedule)
    @settings(max_examples=20, deadline=None)
    def test_asr_cached_ranges_enclose_truth(self, steps):
        """Every cached range at every site encloses the segment's true range."""
        topo = Topology.paper_example()
        asr = AsyncSwatAsr(topo, N, check_invariants=True)
        rng_values = iter(np.random.default_rng(1).uniform(0, 100, 2000))
        for __ in range(N):
            asr.on_data(next(rng_values))
        t = float(N)
        for kind, value, client_idx, precision, shape in steps:
            t += 1.0
            if kind == "data":
                asr.on_data(value, now=t)
            elif kind == "phase":
                asr.on_phase_end(now=t)
            else:
                client = topo.clients[client_idx % len(topo.clients)]
                asr.on_query(client, QUERIES[shape](6, precision=precision), now=t)
            for node in topo.nodes:
                for seg in asr.sites[SOURCE].directory.segments:
                    row = asr.sites[node].directory.row(seg)
                    if row.is_cached:
                        t_lo, t_hi = asr.window.segment_range(seg.newest, seg.oldest)
                        lo, hi = row.approx
                        assert lo <= t_lo + 1e-9
                        assert t_hi <= hi + 1e-9

    @given(schedule)
    @settings(max_examples=20, deadline=None)
    def test_dc_intervals_contain_current_values(self, steps):
        """DC's unsolicited refreshes keep every interval valid."""
        topo = Topology.single_client()
        dc = DivergenceCaching(topo, N, value_range=VR)
        rng_values = iter(np.random.default_rng(2).uniform(0, 100, 2000))
        for __ in range(N):
            dc.on_data(next(rng_values))
        t = float(N)
        for kind, value, __unused, precision, shape in steps:
            t += 1.0
            if kind == "data":
                dc.on_data(value, now=t)
            elif kind == "query":
                dc.on_query("C1", QUERIES[shape](6, precision=precision), now=t)
            state = dc.clients["C1"]
            vals = dc.window.values_newest_first() - dc.value_low
            assert np.all(vals >= state.lo - 1e-9)
            assert np.all(vals <= state.hi + 1e-9)

    @given(schedule)
    @settings(max_examples=20, deadline=None)
    def test_aps_intervals_contain_current_values(self, steps):
        topo = Topology.single_client()
        aps = AdaptivePrecision(topo, N, value_range=VR)
        rng_values = iter(np.random.default_rng(3).uniform(0, 100, 2000))
        for __ in range(N):
            aps.on_data(next(rng_values))
        t = float(N)
        for kind, value, __unused, precision, shape in steps:
            t += 1.0
            if kind == "data":
                aps.on_data(value, now=t)
            elif kind == "query":
                aps.on_query("C1", QUERIES[shape](6, precision=precision), now=t)
            vals = aps.window.values_newest_first() - aps.value_low
            assert np.all(vals >= aps.lo["C1"] - 1e-9)
            assert np.all(vals <= aps.hi["C1"] + 1e-9)
