"""Tests for SWAT-ASR, the actor-based protocol over the message transport.

The headline property: at zero latency the execution is step-for-step the
counted-call model of Figure 8 (``tests/reference_asr.py``) — identical
message counts by kind, identical answers, identical cached state.  With
positive latency it measures real response times.
"""

import numpy as np
import pytest

from repro.core.queries import linear_query, point_query
from repro.data.weather import santa_barbara_temps
from repro.data.workload import RandomWorkload
from repro.network.messages import MessageKind
from repro.network.topology import SOURCE, Topology
from repro.network.transport import Transport
from repro.replication.async_asr import AsyncSwatAsr
from repro.simulate.events import Simulator
from tests.reference_asr import ReferenceAsr

N = 16


def make_pair(topology=None):
    topo = topology or Topology.paper_example()
    return ReferenceAsr(topo, N), AsyncSwatAsr(topo, N, latency=0.0), topo


def assert_same_state(ref, async_):
    """Message counts by kind and every directory row's range and subscribers."""
    assert async_.stats.snapshot() == {k: ref.messages[k] for k in MessageKind.ALL}
    for node in ref.topology.nodes:
        for seg in ref.segments:
            r_row = ref.sites[node].row(seg)
            a_row = async_.sites[node].directory.row(seg)
            assert r_row.approx == a_row.approx
            assert r_row.subscribed == a_row.subscribed


def random_schedule(seed=0, steps=250, spread=100.0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(steps):
        r = rng.random()
        if r < 0.45:
            out.append(("data", float(rng.uniform(0, spread)), None, None))
        elif r < 0.9:
            out.append(
                ("query", None, int(rng.integers(0, 4)), float(rng.uniform(1, 30)))
            )
        else:
            out.append(("phase", None, None, None))
    return out


class TestTransport:
    def test_adjacency_enforced(self):
        topo = Topology.paper_example()
        sim = Simulator()
        tr = Transport(sim, topo)
        tr.register("C3", lambda env: None)
        with pytest.raises(ValueError):
            tr.send(SOURCE, "C3", MessageKind.QUERY)  # two hops apart

    def test_unregistered_destination_rejected(self):
        topo = Topology.paper_example()
        tr = Transport(Simulator(), topo)
        with pytest.raises(KeyError):
            tr.send("C1", SOURCE, MessageKind.QUERY)

    def test_latency_delays_delivery(self):
        topo = Topology.single_client()
        sim = Simulator()
        tr = Transport(sim, topo, latency=5.0)
        seen = []
        tr.register("C1", lambda env: seen.append(sim.now))
        tr.send(SOURCE, "C1", MessageKind.UPDATE)
        assert tr.in_flight == 1
        sim.run_until(4.9)
        assert seen == []
        sim.run_until(5.0)
        assert seen == [5.0]
        assert tr.in_flight == 0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Transport(Simulator(), Topology.single_client(), latency=-1.0)

    def test_bad_kind_rejected(self):
        topo = Topology.single_client()
        tr = Transport(Simulator(), topo)
        tr.register("C1", lambda env: None)
        with pytest.raises(ValueError):
            tr.send(SOURCE, "C1", "smoke-signal")


class TestZeroLatencyEquivalence:
    @staticmethod
    def run_pair(seed, spread):
        """Drive the reference and the protocol through one schedule."""
        ref, async_, topo = make_pair()
        clients = topo.clients
        for v in np.random.default_rng(99).uniform(0, spread, N):
            ref.on_data(float(v))
            async_.on_data(float(v))
        for kind, value, client_idx, precision in random_schedule(seed, spread=spread):
            if kind == "data":
                ref.on_data(value)
                async_.on_data(value)
            elif kind == "phase":
                ref.on_phase_end()
                async_.on_phase_end()
            else:
                client = clients[client_idx % len(clients)]
                q = linear_query(6, precision=precision)
                assert async_.on_query(client, q) == ref.on_query(client, q)
        assert_same_state(ref, async_)
        return async_

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_message_counts_answers_and_state_match(self, seed):
        self.run_pair(seed, spread=100.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_answers_match(self, seed):
        """On a narrow stream cached widths sit near the query precisions,
        so client sites answer some queries and forward others."""
        async_ = self.run_pair(seed, spread=10.0)
        served = {outcome.served_by for outcome in async_.query_outcomes}
        assert SOURCE in served and served - {SOURCE}

    def test_walkthrough_matches_reference(self):
        ref, async_, __ = make_pair()
        for impl in (ref, async_):
            for __unused in range(N):
                impl.on_data(35.0)
            impl.on_query("C3", point_query(3, precision=20.0))
            impl.on_phase_end()
        assert_same_state(ref, async_)
        assert async_.sites["C1"].directory.row(ref.segments[1]).is_cached


class TestUncachedRows:
    def test_infinite_precision_forwards_past_uncached_rows(self):
        """An uncached row offers no precision at all, so even a query that
        accepts any error (precision inf, the default) forwards toward the
        source instead of reading the row."""
        topo = Topology.complete_binary_tree(6)
        ref, async_ = ReferenceAsr(topo, 32), AsyncSwatAsr(topo, 32, latency=0.0)
        values = np.random.default_rng(0).uniform(0.0, 100.0, 32)
        for v in values:
            ref.on_data(float(v))
            async_.on_data(float(v))
        leaf = topo.clients[-1]
        for query in (point_query(0), linear_query(8)):
            assert query.precision == float("inf")
            got = async_.on_query(leaf, query)
            assert got == ref.on_query(leaf, query)
            assert got == pytest.approx(query.evaluate(values[::-1]))
            assert async_.query_outcomes[-1].served_by == SOURCE
        assert_same_state(ref, async_)


class TestLatencyMeasurement:
    def test_cached_answers_have_zero_latency(self):
        async_ = AsyncSwatAsr(Topology.paper_example(), N, latency=0.5)
        for __ in range(N):
            async_.on_data(35.0)
        async_.on_query("C3", point_query(3, precision=20.0))
        # First query went to the source: 2 hops up, 2 back, 0.5 s per hop.
        assert async_.query_latencies[-1] == pytest.approx(2.0)
        async_.on_phase_end()
        async_.on_query("C3", point_query(3, precision=20.0))  # C1 satisfies
        assert async_.query_latencies[-1] == pytest.approx(1.0)
        async_.on_phase_end()
        async_.on_query("C3", point_query(3, precision=20.0))  # local now
        assert async_.query_latencies[-1] == pytest.approx(0.0)
        assert async_.mean_query_latency() == pytest.approx(1.0)

    def test_replication_cuts_measured_latency(self):
        """The paper's latency motivation, observed directly."""
        rng = np.random.default_rng(5)
        async_ = AsyncSwatAsr(Topology.complete_binary_tree(6), 32, latency=0.01)
        for v in rng.uniform(0, 100, 32):
            async_.on_data(float(v))
        early, late = [], []
        for step in range(300):
            async_.on_data(float(rng.uniform(0, 100)))
            q = linear_query(6, precision=25.0)
            lat_list = early if step < 50 else late
            async_.on_query("C6", q)
            lat_list.append(async_.query_latencies[-1])
            if step % 10 == 9:
                async_.on_phase_end()
        assert np.mean(late) <= np.mean(early) + 1e-9

    def test_mean_latency_requires_queries(self):
        async_ = AsyncSwatAsr(Topology.single_client(), N)
        with pytest.raises(ValueError):
            async_.mean_query_latency()

    def test_query_before_warm_rejected(self):
        async_ = AsyncSwatAsr(Topology.single_client(), N)
        with pytest.raises(RuntimeError):
            async_.on_query("C1", point_query(0))


class TestReplicationWorkloadPins:
    """perfbench's replication workload (seed 1), shortened to 100 rounds.

    14 clients on a complete binary tree, N = 64, zero latency, no faults:
    data every 2 virtual seconds, every client queries each second, and a
    phase ends every 10.  The hot message path must not move one message,
    simulator event, segment grouping or answer.
    """

    CLIENTS = 14
    WINDOW = 64
    DATA_PERIOD = 2
    PHASE_PERIOD = 10
    ROUNDS = 100

    def test_counts_and_answers_are_pinned(self):
        series = santa_barbara_temps().tolist()
        topo = Topology.complete_binary_tree(self.CLIENTS)
        asr = AsyncSwatAsr(topo, self.WINDOW)
        pools = {
            client: RandomWorkload(
                self.WINDOW,
                kind="linear",
                max_length=8,
                precision_low=2.0,
                precision_high=10.0,
                seed=1 + 7919 * (i + 1),
            )
            for i, client in enumerate(topo.clients)
        }
        fill = self.WINDOW * self.DATA_PERIOD
        answers, local = [], 0
        for t in range(fill + self.ROUNDS):
            now = float(t)
            if t % self.DATA_PERIOD == 0:
                asr.on_data(series[t // self.DATA_PERIOD], now=now)
            if t < fill:
                continue
            for client in topo.clients:
                answers.append(asr.on_query(client, pools[client].next(), now=now))
                local += asr.query_outcomes[-1].served_by == client
            if (t - fill) % self.PHASE_PERIOD == 0:
                asr.on_phase_end(now=now)
        assert asr.stats.snapshot() == {
            "query": 3393,
            "response": 3393,
            "update": 147,
            "insert": 58,
            "unsubscribe": 50,
        }
        assert asr.sim.events_run == 7041
        assert (asr._segment_plans.hits, asr._segment_plans.misses) == (3395, 1398)
        assert (len(answers), local) == (1400, 1)
        assert sum(answers) == pytest.approx(58554.892472908, rel=1e-9)
