"""Tests for repro.replication.base: the weight check and tolerance allocation."""

import numpy as np
import pytest

from repro.core.queries import InnerProductQuery, linear_query, point_query
from repro.network.topology import Topology
from repro.replication import AdaptivePrecision, DivergenceCaching
from repro.replication.base import per_index_tolerances, require_positive_weights

SIGNED = InnerProductQuery((0, 1), (1.0, -1.0), precision=5.0)


class TestRequirePositiveWeights:
    @pytest.mark.parametrize("weights", [(1.0, -1.0), (0.0, 1.0), (1.0, float("nan"))])
    def test_other_weights_rejected_by_name(self, weights):
        query = InnerProductQuery((0, 1), weights, precision=5.0)
        with pytest.raises(ValueError, match="query weights must be positive"):
            require_positive_weights(query)

    @pytest.mark.parametrize("protocol", [DivergenceCaching, AdaptivePrecision])
    def test_dc_and_aps_raise_the_same_error(self, protocol):
        replica = protocol(Topology.single_client(), 16, value_range=(0.0, 100.0))
        for value in np.random.default_rng(0).uniform(0, 100, 16):
            replica.on_data(float(value))
        with pytest.raises(ValueError, match=r"must be positive, got \[1\.0, -1\.0\]"):
            replica.on_query("C1", SIGNED)


class TestPerIndexTolerances:
    def test_point_query(self):
        tols = per_index_tolerances(point_query(3, precision=8.0))
        assert tols == {3: 8.0}

    def test_weighted_sum_equals_delta(self):
        q = linear_query(8, precision=12.0)
        tols = per_index_tolerances(q)
        total = sum(w * tols[i] for i, w in zip(q.indices, q.weights))
        assert total == pytest.approx(12.0)

    def test_high_weight_items_get_tight_tolerance(self):
        q = linear_query(8, precision=12.0)
        tols = per_index_tolerances(q)
        assert tols[0] < tols[7]  # index 0 carries weight 1, index 7 weight 1/8

    def test_non_positive_weight_rejected(self):
        q = InnerProductQuery((0,), (0.0,), precision=1.0)
        # frozen dataclass allows 0 weight; the allocator must refuse it
        with pytest.raises(ValueError):
            per_index_tolerances(q)
