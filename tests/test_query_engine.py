"""QueryEngine: plan-cached, batched serving is bit-identical to uncached
``Swat.answer`` and to the reference oracle (``tests/reference.py``) across
random windows, phases, weightings, and ``k`` — including generic wavelets,
largest-k and deviation-tracked trees, cold trees, cache invalidation across
``extend``, and the reduced-level (``min_level > 0``) refresh interaction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import QueryEngine
from repro.core.plan import compile_plan, phase_of
from repro.core.queries import InnerProductQuery, point_query
from repro.core.swat import Swat
from tests.reference import assert_reference_answer, reference_estimates


def make_queries(rng, window, n_queries, max_len=8):
    """Random inner-product queries with repeated shapes mixed in."""
    queries = []
    for _ in range(n_queries):
        length = int(rng.integers(1, max_len + 1))
        indices = tuple(
            int(i) for i in rng.choice(window, size=length, replace=False)
        )
        weights = tuple(float(w) for w in rng.normal(size=length))
        queries.append(InnerProductQuery(indices, weights))
    # Same shape, different weights: these must share one plan + estimate.
    if queries:
        first = queries[0]
        queries.append(
            InnerProductQuery(
                first.indices, tuple(-w for w in first.weights)
            )
        )
    return queries


def assert_answers_identical(tree, query, got, want):
    assert_reference_answer(tree, query, want)
    assert got.value == want.value  # bit-identical, not approximately
    assert np.array_equal(got.estimates, want.estimates)
    assert got.n_extrapolated == want.n_extrapolated
    assert [id(n) for n in got.nodes_used] == [id(n) for n in want.nodes_used]
    assert got.error_bound == want.error_bound


class TestBitIdentity:
    @settings(max_examples=40)
    @given(
        n_levels=st.integers(min_value=3, max_value=6),
        k=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=0, max_value=70),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_answer_batch_matches_sequential_scalar(self, n_levels, k, extra, seed):
        window = 2**n_levels
        rng = np.random.default_rng(seed)
        tree = Swat(window, k=k)
        # `extra` varies the phase (arrivals mod window/2) across examples.
        tree.extend(rng.normal(size=2 * window + extra))
        engine = QueryEngine(tree)
        queries = make_queries(rng, window, n_queries=6)
        batch = engine.answer_batch(queries)
        scalar = [tree.answer(q) for q in queries]
        for q, got, want in zip(queries, batch, scalar):
            assert_answers_identical(tree, q, got, want)
        # Singles replay through the now-cached plans identically.
        for q, want in zip(queries, scalar):
            assert_answers_identical(tree, q, engine.answer(q), want)
        assert engine.hits > 0

    @settings(max_examples=20)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8),
    )
    def test_interleaved_extends_invalidate_correctly(self, seed, steps):
        """Plans cached at one phase must recompile/revalidate after any
        number of arrivals, including partial-refresh interleavings."""
        window = 32
        rng = np.random.default_rng(seed)
        tree = Swat(window, k=2)
        tree.extend(rng.normal(size=2 * window))
        engine = QueryEngine(tree)
        queries = make_queries(rng, window, n_queries=4)
        for step in steps:
            for q, got, want in zip(
                queries, engine.answer_batch(queries), [tree.answer(q) for q in queries]
            ):
                assert_answers_identical(tree, q, got, want)
            tree.extend(rng.normal(size=step))
        for q, got, want in zip(
            queries, engine.answer_batch(queries), [tree.answer(q) for q in queries]
        ):
            assert_answers_identical(tree, q, got, want)

    @settings(max_examples=15)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        config=st.sampled_from(
            [
                {"wavelet": "db2", "k": 3},
                {"selection": "largest", "k": 3},
                {"track_deviation": True},
            ]
        ),
    )
    def test_generic_wavelet_falls_back_identically(self, seed, config):
        """Generic wavelets, largest-k and deviation-tracked trees all serve
        from compiled, cached plans — there is no other query path."""
        rng = np.random.default_rng(seed)
        tree = Swat(64, **config)
        tree.extend(rng.normal(size=160))
        engine = QueryEngine(tree)
        queries = make_queries(rng, 64, n_queries=5)
        for _ in range(2):  # compile, then replay from the cache
            for q, got, want in zip(
                queries, engine.answer_batch(queries), [tree.answer(q) for q in queries]
            ):
                assert_answers_identical(tree, q, got, want)
        assert engine.fallbacks == 0
        assert engine.misses >= 1 and engine.hits >= engine.misses

    @settings(max_examples=15)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        min_level=st.integers(min_value=1, max_value=3),
    )
    def test_reduced_level_trees_match_including_extrapolation(self, seed, min_level):
        rng = np.random.default_rng(seed)
        tree = Swat(64, k=2, min_level=min_level)
        tree.extend(rng.normal(size=150))
        engine = QueryEngine(tree)
        queries = make_queries(rng, 64, n_queries=5)
        for q, got, want in zip(
            queries, engine.answer_batch(queries), [tree.answer(q) for q in queries]
        ):
            assert_answers_identical(tree, q, got, want)

    def test_estimates_with_duplicates_matches_scalar(self):
        rng = np.random.default_rng(7)
        tree = Swat(32, k=2)
        tree.extend(rng.normal(size=80))
        engine = QueryEngine(tree)
        idx = [0, 5, 0, 1, 31, 5, 5]
        ref = reference_estimates(tree, idx)
        assert np.array_equal(tree.estimates(idx), ref)
        assert np.array_equal(engine.estimates(idx), ref)
        assert np.array_equal(engine.estimates(np.asarray(idx)), ref)
        assert np.array_equal(engine.estimates(idx), ref)
        assert engine.hits >= 1


class TestLevelRefreshRegression:
    def test_query_immediately_after_each_level_refresh(self):
        """min_level interaction: at every arrival in a full refresh period
        (including the ticks where deep levels just shifted), plan-cached
        answers must track the scalar path exactly."""
        window = 32
        for min_level in (0, 1, 2):
            rng = np.random.default_rng(min_level)
            tree = Swat(window, k=2, min_level=min_level)
            tree.extend(rng.normal(size=2 * window))
            engine = QueryEngine(tree)
            queries = [point_query(i) for i in range(0, window, 3)]
            queries.append(
                InnerProductQuery(tuple(range(8)), tuple(float(w + 1) for w in range(8)))
            )
            # Walk one full phase cycle one arrival at a time: every level
            # refresh (2^l boundaries) happens somewhere in here.
            for _ in range(window):
                tree.update(float(rng.normal()))
                for q, got, want in zip(
                    queries,
                    engine.answer_batch(queries),
                    [tree.answer(q) for q in queries],
                ):
                    assert_answers_identical(tree, q, got, want)

    def test_node_version_keyed_reconstruction_after_refresh(self):
        """A refresh between two uses of one cached plan must be picked up
        via SwatNode.version (same plan object, fresh contents)."""
        window = 16
        rng = np.random.default_rng(3)
        tree = Swat(window, k=window)  # k = segment length: exact answers
        tree.extend(rng.normal(size=2 * window))
        engine = QueryEngine(tree)
        q = point_query(4)
        first = engine.answer(q)
        phase = tree.phase
        tree.extend(rng.normal(size=window // 2))  # same phase, new contents
        assert tree.phase == phase
        second = engine.answer(q)
        assert engine.hits >= 1  # the plan was reused...
        assert second.value != first.value  # ...but served fresh contents
        assert second.value == tree.answer(q).value
        assert_reference_answer(tree, q, second)


class TestPlanCache:
    def test_cold_tree_serves_via_fallback_until_warm(self):
        """A cold tree's cover is not a function of the phase: its plans are
        compiled uncached (counted in ``fallbacks``) until the tree warms."""
        tree = Swat(16, k=2)
        engine = QueryEngine(tree)
        rng = np.random.default_rng(0)
        tree.extend(rng.normal(size=5))
        q = point_query(2)
        for _ in range(2):
            assert_answers_identical(tree, q, engine.answer(q), tree.answer(q))
        engine.answer_batch([q, q])
        assert engine.fallbacks == 3  # one compile per call (or batch group)
        assert engine.misses == engine.hits == engine.plan_cache_size == 0
        tree.extend(rng.normal(size=2 * 16))
        assert_answers_identical(tree, q, engine.answer(q), tree.answer(q))
        engine.answer(q)
        assert engine.fallbacks == 3  # warm now: compiled once, then cached
        assert engine.misses == 1 and engine.hits == 1

    def test_phase_keying(self):
        rng = np.random.default_rng(1)
        tree = Swat(16, k=2)
        tree.extend(rng.normal(size=40))
        engine = QueryEngine(tree)
        q = point_query(3)
        engine.answer(q)
        assert phase_of(tree) == tree.phase
        tree.update(1.0)  # phase moved: same shape needs a new plan
        engine.answer(q)
        assert engine.misses == 2
        tree.extend(rng.normal(size=8 - 1))  # back to the first phase
        engine.answer(q)
        assert engine.hits == 1

    def test_lru_eviction_bounds_cache(self):
        rng = np.random.default_rng(2)
        tree = Swat(32, k=2)
        tree.extend(rng.normal(size=80))
        engine = QueryEngine(tree, max_plans=4)
        for i in range(12):
            engine.answer(point_query(i))
        assert engine.plan_cache_size <= 4

    def test_compile_plan_rejects_out_of_range_like_scalar(self):
        rng = np.random.default_rng(4)
        tree = Swat(16, k=2)
        tree.extend(rng.normal(size=40))
        with pytest.raises(IndexError) as plan_err:
            compile_plan(tree, (3, 99))
        with pytest.raises(IndexError) as scalar_err:
            tree.estimates([3, 99])
        assert str(plan_err.value) == str(scalar_err.value)

    def test_max_plans_validation(self):
        tree = Swat(16, k=2)
        with pytest.raises(ValueError):
            QueryEngine(tree, max_plans=0)


class TestObservability:
    def test_hit_miss_counters_and_batch_histogram(self, obs_registry):
        rng = np.random.default_rng(5)
        tree = Swat(32, k=2)
        tree.extend(rng.normal(size=80))
        engine = QueryEngine(tree)
        queries = [point_query(i) for i in range(6)]
        engine.answer_batch(queries)
        engine.answer_batch(queries)
        snap = obs_registry.snapshot()
        assert snap["counters"]["query.plan_cache.miss"] == 6.0
        assert snap["counters"]["query.plan_cache.hit"] == 6.0
        batch_hist = snap["histograms"]["query.batch_size"]
        assert batch_hist["count"] == 2
        assert batch_hist["sum"] == 12.0
