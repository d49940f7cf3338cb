"""Live reconfiguration of :class:`~repro.core.swat.Swat`.

The governor's contract with the summary: k-truncation is exact (state
equals a tree that ran small all along), min_level changes settle cleanly
under the runtime contracts, batched ingest stays bit-identical to scalar
across arbitrary reconfigure sequences, the epoch bump invalidates compiled
query plans, and — the Section 2.6 property — observed range-query error
never exceeds :func:`~repro.control.query_error_bound` across random
reconfigurations at phase boundaries.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import check_swat
from repro.control import config_nbytes, query_error_bound
from repro.core.engine import QueryEngine
from repro.core.queries import InnerProductQuery, linear_query, point_query
from repro.core.swat import Swat
from repro.data.synthetic import random_walk_stream, uniform_stream
from tests.reference import assert_reference_answer


def tree_bits(tree: Swat) -> dict:
    return tree.to_state()


# ------------------------------------------------------------- k truncation


class TestKTruncation:
    def test_truncation_equals_native_small_k(self):
        data = random_walk_stream(5 * 32, seed=20)
        big = Swat(32, k=8)
        small = Swat(32, k=2)
        big.extend(data)
        small.extend(data)
        assert big.reconfigure(k=2)
        assert tree_bits(big) == tree_bits(small)

    def test_raising_k_grows_through_refreshes(self):
        data = random_walk_stream(8 * 32, seed=21)
        tree = Swat(32, k=1)
        tree.extend(data[: 4 * 32])
        assert tree.reconfigure(k=4)
        tree.extend(data[4 * 32 :])
        native = Swat(32, k=4)
        native.extend(data)
        # After two full windows every node has refreshed under the new k,
        # so the grown tree answers match a native k=4 tree (node end_times
        # differ only in never-refilled history, not in served content).
        for length in (4, 16, 32):
            q = linear_query(length)
            assert tree.answer(q).value == pytest.approx(native.answer(q).value)

    def test_noop_reconfigure_reports_unchanged(self):
        tree = Swat(32, k=4, min_level=1)
        assert not tree.reconfigure(k=4, min_level=1)
        assert tree.epoch == 0

    def test_invalid_reconfigure_rejected(self):
        tree = Swat(32, k=4)
        with pytest.raises(ValueError):
            tree.reconfigure(k=0)
        with pytest.raises(ValueError):
            tree.reconfigure(min_level=5)
        largest = Swat(32, k=4, selection="largest")
        with pytest.raises(ValueError):
            largest.reconfigure(k=2)


# ------------------------------------------------------------------ settling


class TestSettling:
    @pytest.mark.parametrize("new_min_level", [2, 0])
    def test_contracts_hold_through_settling(self, new_min_level):
        tree = Swat(32, k=2, min_level=0 if new_min_level else 2)
        data = random_walk_stream(6 * 32, seed=22)
        tree.extend(data[: 2 * 32])
        assert tree.reconfigure(min_level=new_min_level)
        assert not tree.memory_settled
        settled_at = None
        for i, value in enumerate(data[2 * 32 :]):
            tree.update(float(value))
            check_swat(tree)
            if settled_at is None and tree.memory_settled:
                settled_at = i
        assert settled_at is not None  # settling terminates
        assert tree.nbytes == config_nbytes(32, 2, new_min_level)

    def test_settled_flag_reflects_reconfigure(self):
        tree = Swat(16, k=2)
        tree.extend(random_walk_stream(3 * 16, seed=23))
        assert tree.memory_settled
        tree.reconfigure(k=1)
        assert not tree.memory_settled  # k change: nodes shrink as they refresh
        tree.extend(random_walk_stream(3 * 16, seed=24))
        assert tree.memory_settled
        assert tree.nbytes == config_nbytes(16, 1, 0)


# -------------------------------------------------------------- batch parity


class TestBatchParity:
    @given(
        seed=st.integers(0, 100),
        plan=st.lists(
            st.tuples(
                st.integers(1, 3),  # blocks of N/2 arrivals before the change
                st.integers(1, 4),  # new k
                st.integers(0, 3),  # new min_level
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=30)
    def test_batched_equals_scalar_across_reconfigs(self, seed, plan):
        window = 16
        total = sum(blocks for blocks, _, _ in plan) * (window // 2)
        data = uniform_stream(total, seed=seed)
        scalar = Swat(window, k=2)
        batched = Swat(window, k=2)
        lo = 0
        for blocks, new_k, new_m in plan:
            hi = lo + blocks * (window // 2)
            for value in data[lo:hi]:
                scalar.update(float(value))
            batched.extend(data[lo:hi])
            scalar.reconfigure(k=new_k, min_level=new_m)
            batched.reconfigure(k=new_k, min_level=new_m)
            lo = hi
        assert tree_bits(batched) == tree_bits(scalar)


# ---------------------------------------------------------------- epoch bump


class TestEpochInvalidation:
    def test_engine_tracks_reconfigured_tree(self):
        tree = Swat(32, k=8)
        engine = QueryEngine(tree)
        data = random_walk_stream(4 * 32, seed=25)
        tree.extend(data)
        q = linear_query(16)
        engine.answer(q)  # compile + cache a plan against k=8
        assert engine.plan_cache_size > 0
        before = tree.epoch
        assert tree.reconfigure(k=2)
        assert tree.epoch == before + 1
        for query in (q, point_query(3), linear_query(32)):
            got = engine.answer(query)
            assert got.value == tree.answer(query).value
            assert_reference_answer(tree, query, got)
        tree.reconfigure(min_level=2)
        # Settling, then settled: every arrival is checked against the oracle.
        for value in random_walk_stream(2 * 32, seed=26):
            tree.update(float(value))
            for query in (q, point_query(0), linear_query(32)):
                got = engine.answer(query)
                assert got.value == tree.answer(query).value
                assert_reference_answer(tree, query, got)


# ------------------------------------------------------------ §2.6 property


def _range_query(start: int, length: int) -> InnerProductQuery:
    indices = tuple(range(start, start + length))
    return InnerProductQuery(
        indices=indices, weights=(1.0 / length,) * length, precision=float("inf")
    )


class TestSectionTwoSixBound:
    @given(
        seed=st.integers(0, 200),
        reconfigs=st.lists(
            st.tuples(st.integers(1, 5), st.integers(0, 3)),  # (k, min_level)
            min_size=1,
            max_size=5,
        ),
        q_start=st.integers(0, 15),
        q_len=st.integers(1, 16),
    )
    @settings(max_examples=60)
    def test_observed_error_within_bound(self, seed, reconfigs, q_start, q_len):
        window = 32
        tree = Swat(window, k=reconfigs[0][0], min_level=reconfigs[0][1])
        data = uniform_stream((len(reconfigs) + 2) * window, seed=seed)
        history: deque = deque(maxlen=2 * window)
        phase = window // 2

        def ingest(block: np.ndarray) -> None:
            for value in block:
                tree.update(float(value))
                history.appendleft(float(value))

        ingest(data[: 2 * window])
        lo = 2 * window
        for k, min_level in reconfigs[1:]:
            try:
                tree.reconfigure(k=k, min_level=min_level)
            except ValueError:
                pass  # e.g. deviation/largest guards; irrelevant here
            ingest(data[lo : lo + phase])
            lo += phase

        query = _range_query(q_start, q_len)
        bound = query_error_bound(tree, list(history), query)
        if bound == float("inf"):
            return  # history cannot certify (deep extrapolation): no claim
        truth = float(
            np.dot(
                [history[i] for i in query.indices],
                np.asarray(query.weights),
            )
        )
        answer = tree.answer(query)
        assert_reference_answer(tree, query, answer)
        observed = abs(answer.value - truth)
        assert observed <= bound + 1e-9 * (1.0 + abs(truth))
