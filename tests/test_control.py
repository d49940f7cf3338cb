"""The resource-control subsystem (:mod:`repro.control`).

Exact byte accounting (analytic ``nbytes``, the ledger, the configured
ceiling), the one-shot budget plan (hard budget at every block, the floor,
disabled bit-identity), the bounded arrival queue, and the replication
cache-row governor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    ArrivalQueue,
    MemoryLedger,
    ResourceGovernor,
    ReplicaGovernor,
    config_nbytes,
)
from repro.core.multi import StreamEnsemble
from repro.core.queries import linear_query, point_query
from repro.core.swat import Swat
from repro.data.synthetic import random_walk_stream
from repro.histogram.prefix import PrefixStats
from repro.network.topology import Topology
from repro.replication.async_asr import AsyncSwatAsr
from repro.simulate.shake import fingerprint_digest, fingerprint_system


def _fill(tree: Swat, n: int, seed: int = 0) -> np.ndarray:
    data = random_walk_stream(n, seed=seed)
    tree.extend(data)
    return data


# ------------------------------------------------------------- byte counting


class TestNbytes:
    def test_node_nbytes_is_analytic_array_count(self):
        tree = Swat(32, k=4)
        _fill(tree, 80)
        for node in tree.nodes():
            expected = node.coeffs.nbytes
            if node.positions is not None:
                expected += node.positions.nbytes
            assert node.nbytes == expected

    def test_tree_nbytes_is_buffer_plus_maintained_nodes(self):
        tree = Swat(64, k=8, min_level=2)
        _fill(tree, 200)
        expected = 8 * len(tree._buffer)
        for lv in tree._levels[tree.min_level:]:
            for node in lv.values():
                if node.coeffs is not None:
                    expected += node.nbytes
        assert tree.nbytes == expected

    @pytest.mark.parametrize(
        "window,k,min_level",
        [(32, 1, 0), (32, 4, 0), (64, 8, 0), (64, 2, 3), (64, 64, 0), (128, 3, 1)],
    )
    def test_settled_tree_matches_configured_ceiling(self, window, k, min_level):
        tree = Swat(window, k=k, min_level=min_level)
        ceiling = config_nbytes(window, k, min_level)
        worst = 0
        for value in random_walk_stream(3 * window, seed=1):
            tree.update(float(value))
            worst = max(worst, tree.nbytes)
        assert worst <= ceiling  # live never exceeds the ceiling, at any arrival
        assert tree.nbytes == ceiling  # and a warm tree sits exactly on it

    def test_prefix_stats_nbytes_constant_and_analytic(self):
        ps = PrefixStats(16)
        before = ps.nbytes
        assert before == ps._values.nbytes + ps._csum.nbytes + ps._csq.nbytes
        for value in random_walk_stream(100, seed=2):
            ps.update(float(value))
        assert ps.nbytes == before  # fixed-capacity ring: footprint is static

    def test_config_nbytes_validates(self):
        with pytest.raises(ValueError):
            config_nbytes(48, 2, 0)  # not a power of two
        with pytest.raises(ValueError):
            config_nbytes(64, 0, 0)
        with pytest.raises(ValueError):
            config_nbytes(64, 2, 6)  # min_level out of range


class TestMemoryLedger:
    def test_incremental_total_and_peak(self):
        ledger = MemoryLedger()
        ledger.set("a", 100)
        ledger.set("b", 50)
        assert ledger.total == 150 == sum(ledger.per_stream().values())
        ledger.set("a", 20)  # shrink: total follows, peak holds
        assert ledger.total == 70
        assert ledger.peak == 150
        assert ledger.get("c") == 0
        assert len(ledger) == 2

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            MemoryLedger().set("a", -1)


# ------------------------------------------------------------------ governor


def _ensemble(window, k, n_streams):
    ens = StreamEnsemble(window, k=k)
    for i in range(n_streams):
        ens.add_stream(f"S{i}")
    return ens


def _shapes(ens):
    return {n: (ens.tree(n).k, ens.tree(n).min_level) for n in ens.streams}


class TestResourceGovernor:
    @given(
        window=st.sampled_from([16, 32, 64, 256]),
        n_streams=st.integers(1, 6),
        k=st.sampled_from([1, 2, 4, 8, 16]),
        block=st.sampled_from([5, 8, 37]),
        seed=st.integers(0, 50),
        data=st.data(),
    )
    @settings(max_examples=40)
    def test_budget_holds_at_every_arrival(self, window, n_streams, k, block, seed, data):
        """Between the floor and the full ceiling the plan holds the ledger
        within the budget after every block; below the floor attach raises
        and leaves every tree's shape as it was."""
        floor = n_streams * config_nbytes(window, 1, 1)
        full = n_streams * config_nbytes(window, k, 0)
        budget = data.draw(
            st.one_of(st.integers(1, floor - 1), st.integers(floor, full)),
            label="budget",
        )
        ens = _ensemble(window, k, n_streams)
        if budget < floor:
            with pytest.raises(ValueError, match=f"below the {floor}-byte floor"):
                ens.attach_governor(ResourceGovernor(budget))
            assert set(_shapes(ens).values()) == {(k, 0)}
            return
        ens.attach_governor(ResourceGovernor(budget))
        assert ens.ledger.total <= budget
        streams = {
            name: random_walk_stream(3 * window, seed=seed + i)
            for i, name in enumerate(ens.streams)
        }
        for lo in range(0, 3 * window, block):
            ens.extend_columns({n: col[lo : lo + block] for n, col in streams.items()})
            assert ens.ledger.total <= budget

    def test_govern_ensemble_below_its_floor_raises(self):
        """``repro govern``'s ensemble under 480 bytes.  At k=1 a stream's
        ceiling is smallest at min_level 1: raising it further grows the raw
        ring buffer faster than it drops nodes, so the floor is 4 x 136."""
        assert [config_nbytes(64, 1, m) for m in range(6)] == [144, 136, 144, 184, 288, 520]
        ens = _ensemble(64, 8, 4)
        with pytest.raises(ValueError, match="below the 544-byte floor"):
            ens.attach_governor(ResourceGovernor(480))
        assert set(_shapes(ens).values()) == {(8, 0)}
        changes = ens.attach_governor(ResourceGovernor(544))
        assert changes == _shapes(ens) == {n: (1, 1) for n in ens.streams}

    def test_monitor_only_never_reconfigures(self):
        ens = StreamEnsemble(32, k=4)
        ens.add_stream("S0")
        assert ens.attach_governor(ResourceGovernor(None)) == {}  # no budget: no plan
        for value in random_walk_stream(200, seed=6):
            ens.update({"S0": float(value)})
        assert ens.tree("S0").k == 4

    @given(
        window=st.sampled_from([16, 32, 64]),
        k=st.integers(1, 8),
        seed=st.integers(0, 50),
        n_blocks=st.integers(1, 6),
    )
    @settings(max_examples=25)
    def test_disabled_governor_is_bit_identical(self, window, k, seed, n_blocks):
        data = random_walk_stream(n_blocks * window, seed=seed)
        plain = StreamEnsemble(window, k=k)
        governed = StreamEnsemble(window, k=k)
        for ens in (plain, governed):
            ens.add_stream("S0")
            ens.add_stream("S1")
        governed.attach_governor(ResourceGovernor(None))
        for lo in range(0, len(data), window // 2):
            block = data[lo : lo + window // 2]
            plain.extend_columns({"S0": block, "S1": -block})
            governed.extend_columns({"S0": block, "S1": -block})
        for name in ("S0", "S1"):
            assert governed.tree(name).to_state() == plain.tree(name).to_state()
        probe = {"S0": [linear_query(min(8, window))]}
        assert (
            governed.answer_batch(probe)["S0"][0].value
            == plain.answer_batch(probe)["S0"][0].value
        )


# ------------------------------------------------------------------ shedding


class TestArrivalQueue:
    def test_drop_newest_is_deterministic(self):
        q = ArrivalQueue(40)
        a1 = q.offer({"s": np.arange(30.0)})
        a2 = q.offer({"s": np.arange(30.0)})
        assert (a1, a2) == (30, 10)
        assert q.ticks_offered == 60
        assert q.ticks_accepted == 40
        assert q.ticks_dropped == 20
        blocks = q.drain()
        kept = np.concatenate([b["s"] for b in blocks])
        # the accepted ticks are always a prefix, in arrival order
        assert kept.tolist() == list(range(30)) + list(range(10))
        assert q.pending == 0

    def test_mismatched_columns_rejected(self):
        q = ArrivalQueue(8)
        with pytest.raises(ValueError):
            q.offer({"a": [1.0, 2.0], "b": [1.0]})

    def test_ensemble_offer_ingest_roundtrip(self):
        ens = StreamEnsemble(16, k=2)
        ens.add_stream("a")
        ens.add_stream("b")
        ens.attach_shedding(queue_capacity_ticks=24)
        cols = {"a": np.arange(32.0), "b": np.arange(32.0) * 2}
        assert ens.offer_columns(cols) == 24
        assert ens.ingest_pending() == 24
        assert ens.ticks == 24
        assert ens.arrival_queue.ticks_dropped == 8

    def test_offer_requires_queue(self):
        ens = StreamEnsemble(16, k=2)
        ens.add_stream("a")
        with pytest.raises(RuntimeError):
            ens.offer_columns({"a": [1.0]})


# --------------------------------------------------------- replica governor


class TestReplicaGovernor:
    def test_select_evictions_least_read_unpinned_first(self):
        gov = ReplicaGovernor(1)
        rows = [("s0", 5, False), ("s1", 0, True), ("s2", 0, False), ("s3", 1, False)]
        assert gov.select_evictions(rows) == ["s2", "s3", "s0"][:3]

    def test_select_evictions_respects_budget_and_pins(self):
        gov = ReplicaGovernor(2)
        rows = [("s0", 0, True), ("s1", 0, True), ("s2", 3, False)]
        assert gov.select_evictions(rows) == ["s2"]  # over by 1, pins survive
        assert ReplicaGovernor(4).select_evictions(rows) == []

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            ReplicaGovernor(-1)

    @staticmethod
    def _drive_asr(governor):
        asr = AsyncSwatAsr(Topology.star(2), 16, governor=governor)
        data = random_walk_stream(200, seed=3)
        for i, value in enumerate(data):
            asr.on_data(float(value))
            if i > 32:
                for idx in range(16):
                    asr.on_query("C1", point_query(idx, precision=6.0))
            if (i + 1) % 4 == 0:
                asr.on_phase_end()
        return asr

    def test_asr_eviction_enforces_row_budget(self):
        governed = self._drive_asr(ReplicaGovernor(max_cached_rows=1))
        free = self._drive_asr(None)
        governed.on_phase_end()
        free.on_phase_end()
        gov = governed.governor
        assert gov.rows_evicted > 0
        assert governed.sites["C1"].directory.cached_count() <= 1
        assert free.sites["C1"].directory.cached_count() > 1

    def test_asr_none_governor_is_bit_identical(self):
        explicit = self._drive_asr(None)
        implicit = AsyncSwatAsr(Topology.star(2), 16)
        data = random_walk_stream(200, seed=3)
        for i, value in enumerate(data):
            implicit.on_data(float(value))
            if i > 32:
                for idx in range(16):
                    implicit.on_query("C1", point_query(idx, precision=6.0))
            if (i + 1) % 4 == 0:
                implicit.on_phase_end()
        assert fingerprint_digest(
            fingerprint_system(explicit)
        ) == fingerprint_digest(fingerprint_system(implicit))
