"""Tests for the derived query-latency metric of the replication layer."""

import pytest

from repro.core.queries import point_query
from repro.data import santa_barbara_temps
from repro.network.topology import Topology
from repro.replication import ReplicationConfig, make_protocol, run_replication
from repro.replication.async_asr import AsyncSwatAsr

STREAM = santa_barbara_temps()
VR = (float(STREAM.min()) - 1.0, float(STREAM.max()) + 1.0)


class TestLastQueryHops:
    def test_asr_miss_counts_round_trip(self):
        asr = AsyncSwatAsr(Topology.paper_example(), 16)
        for __ in range(16):
            asr.on_data(35.0)
        asr.on_query("C3", point_query(3, precision=20.0))
        assert asr.last_query_hops == 4  # 2 hops up, 2 back

    def test_asr_local_hit_is_zero_hops(self):
        asr = AsyncSwatAsr(Topology.paper_example(), 16)
        for __ in range(16):
            asr.on_data(35.0)
        for __ in range(2):  # pull the replica down to C3 over two phases
            asr.on_query("C3", point_query(3, precision=20.0))
            asr.on_phase_end()
            asr.on_query("C3", point_query(3, precision=20.0))
            asr.on_phase_end()
        asr.on_query("C3", point_query(3, precision=20.0))
        assert asr.last_query_hops == 0

    @pytest.mark.parametrize("name", ["DC", "APS"])
    def test_item_protocols_track_round_trip(self, name):
        proto = make_protocol(name, Topology.single_client(), 16, VR)
        for i in range(16):
            proto.on_data(50.0, now=float(i))
        proto.on_query("C1", point_query(3, precision=0.0), now=20.0)  # must miss
        assert proto.last_query_hops == 2


class TestHarnessLatency:
    def _result(self, name):
        config = ReplicationConfig(
            window_size=32,
            data_period=2.0,
            query_period=1.0,
            measure_time=150.0,
            precision=(2.0, 10.0),
            max_query_length=8,
            value_range=VR,
            seed=0,
        )
        proto = make_protocol(name, Topology.complete_binary_tree(6), 32, VR)
        return run_replication(proto, STREAM, config)

    def test_mean_query_hops_reported(self):
        result = self._result("SWAT-ASR")
        assert result.mean_query_hops >= 0.0

    def test_latency_scales_with_per_hop_delay(self):
        result = self._result("SWAT-ASR")
        assert result.mean_query_latency(0.02) == pytest.approx(
            2 * result.mean_query_latency(0.01)
        )

    def test_negative_delay_rejected(self):
        result = self._result("SWAT-ASR")
        with pytest.raises(ValueError):
            result.mean_query_latency(-1.0)

    def test_asr_latency_below_uncached_round_trip(self):
        """Caching must beat always-going-to-the-source on average."""
        result = self._result("SWAT-ASR")
        # Deepest client sits 3 hops from the source in a 6-client tree.
        assert result.mean_query_hops < 2 * 3
