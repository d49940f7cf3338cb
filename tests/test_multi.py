"""Tests for repro.core.multi: multi-stream summaries and correlation."""

import numpy as np
import pytest

from repro.core import StreamEnsemble
from repro.core.queries import InnerProductQuery, point_query
from repro.data.synthetic import uniform_stream


def fill(ensemble, columns):
    """Feed column arrays as synchronized ticks."""
    n = len(next(iter(columns.values())))
    for i in range(n):
        ensemble.update({name: col[i] for name, col in columns.items()})


class TestManagement:
    def test_add_remove(self):
        e = StreamEnsemble(32)
        e.add_stream("a")
        e.add_stream("b")
        assert e.streams == ["a", "b"]
        e.remove_stream("a")
        assert e.streams == ["b"]
        with pytest.raises(KeyError):
            e.remove_stream("a")

    def test_duplicate_rejected(self):
        e = StreamEnsemble(32)
        e.add_stream("a")
        with pytest.raises(ValueError):
            e.add_stream("a")

    def test_update_requires_all_streams(self):
        e = StreamEnsemble(32)
        e.add_stream("a")
        e.add_stream("b")
        with pytest.raises(ValueError):
            e.update({"a": 1.0})
        with pytest.raises(KeyError):
            e.update({"a": 1.0, "b": 2.0, "zzz": 3.0})

    def test_memory_scales_with_streams(self):
        e = StreamEnsemble(64, k=1)
        for name in "abc":
            e.add_stream(name)
        fill(e, {n: uniform_stream(200, seed=i) for i, n in enumerate("abc")})
        per_stream = e.tree("a").memory_coefficients
        assert e.memory_coefficients == 3 * per_stream


class TestCorrelation:
    def _ensemble(self, n=400, window=64, k=8):
        rng = np.random.default_rng(0)
        base = np.cumsum(rng.normal(0, 1, n)) + 50
        cols = {
            "base": base,
            "same": base + rng.normal(0, 0.5, n),
            "anti": 100 - base + rng.normal(0, 0.5, n),
            "noise": rng.uniform(0, 100, n),
        }
        e = StreamEnsemble(window, k=k)
        for name in cols:
            e.add_stream(name)
        fill(e, cols)
        return e

    def test_positive_pair_detected(self):
        e = self._ensemble()
        assert e.correlation("base", "same") > 0.8

    def test_negative_pair_detected(self):
        e = self._ensemble()
        assert e.correlation("base", "anti") < -0.8

    def test_noise_uncorrelated(self):
        e = self._ensemble()
        assert abs(e.correlation("base", "noise")) < 0.6

    def test_most_correlated(self):
        e = self._ensemble()
        name, corr = e.most_correlated("base")
        assert name in ("same", "anti")
        assert abs(corr) > 0.8

    def test_correlation_matrix_symmetric_unit_diagonal(self):
        e = self._ensemble()
        names, m = e.correlation_matrix()
        assert m.shape == (4, 4)
        assert np.allclose(np.diag(m), 1.0)
        assert np.allclose(m, m.T)

    def test_recent_length_restriction(self):
        e = self._ensemble()
        c = e.correlation("base", "same", length=16)
        assert -1.0 <= c <= 1.0

    def test_length_validation(self):
        e = self._ensemble()
        with pytest.raises(ValueError):
            e.correlation("base", "same", length=1)

    def test_constant_stream_gives_zero(self):
        e = StreamEnsemble(32, k=2)
        e.add_stream("flat")
        e.add_stream("varies")
        fill(e, {"flat": [5.0] * 100, "varies": uniform_stream(100, seed=1)})
        assert e.correlation("flat", "varies") == 0.0

    def test_not_enough_data(self):
        e = StreamEnsemble(32)
        e.add_stream("a")
        e.add_stream("b")
        e.update({"a": 1.0, "b": 2.0})
        with pytest.raises(ValueError):
            e.correlation("a", "b")

    def test_most_correlated_needs_two_streams(self):
        e = StreamEnsemble(32)
        e.add_stream("only")
        with pytest.raises(ValueError):
            e.most_correlated("only")

    def test_higher_k_tracks_exact_correlation_better(self):
        rng = np.random.default_rng(5)
        n, window = 300, 64
        x = np.cumsum(rng.normal(0, 1, n)) + 50
        y = x * 0.5 + rng.normal(0, 3, n)
        exact = float(np.corrcoef(x[-window:], y[-window:])[0, 1])
        errs = []
        for k in (1, 8, 64):
            e = StreamEnsemble(window, k=k)
            e.add_stream("x")
            e.add_stream("y")
            fill(e, {"x": x, "y": y})
            errs.append(abs(e.correlation("x", "y") - exact))
        assert errs[2] <= errs[0] + 1e-9
        assert errs[2] < 0.05  # k = window: exact reconstruction


class TestShardedServing:
    """Ensemble serving through one plan-cached engine per stream."""

    def _filled(self, streams="abcde", window=32):
        rng = np.random.default_rng(11)
        e = StreamEnsemble(window, k=3)
        for name in streams:
            e.add_stream(name)
        fill(e, {name: rng.normal(size=3 * window) for name in streams})
        return e

    def test_answer_all_bit_identical_to_scalar(self):
        e = self._filled()
        q = InnerProductQuery((0, 4, 9, 17), (1.0, -0.5, 2.0, 0.25))
        out = e.answer_all(q)
        assert sorted(out) == e.streams
        for name, answer in out.items():
            want = e.tree(name).answer(q)
            assert answer.value == want.value
            assert np.array_equal(answer.estimates, want.estimates)

    def test_answer_batch_partial_streams(self):
        e = self._filled()
        batches = {
            "a": [point_query(i) for i in range(5)],
            "c": [point_query(i) for i in range(3)],
        }
        out = e.answer_batch(batches)
        assert sorted(out) == ["a", "c"]
        for name, queries in batches.items():
            for got, want in zip(out[name], [e.tree(name).answer(q) for q in queries]):
                assert got.value == want.value

    def test_single_shard_runs_inline(self):
        e = self._filled()
        out = e.answer_all(point_query(2))
        assert len(out) == 5
        assert e.serve_shards == 1
        assert StreamEnsemble(32, serve_shards=1).serve_shards == 1

    def test_unknown_stream_rejected(self):
        e = self._filled()
        with pytest.raises(KeyError):
            e.answer_batch({"nope": [point_query(0)]})

    def test_empty_requests(self):
        e = self._filled()
        assert e.answer_batch({}) == {}
        assert StreamEnsemble(32).answer_all(point_query(0)) == {}

    def test_remove_stream_drops_engine(self):
        e = self._filled()
        e.answer_all(point_query(1))  # engines exist
        e.remove_stream("c")
        out = e.answer_all(point_query(1))
        assert sorted(out) == ["a", "b", "d", "e"]

    def test_serving_repeats_hit_plan_cache(self):
        e = self._filled()
        q = point_query(3)
        e.answer_all(q)
        e.answer_all(q)
        assert sum(e.engine(n).hits for n in e.streams) >= len(e.streams)

    def test_batch_size_metric_recorded(self, obs_registry):
        e = self._filled()
        e.answer_all(point_query(0))
        snap = obs_registry.snapshot()
        assert snap["histograms"]["ensemble.batch_size"]["sum"] == len(e.streams)

    def test_invalid_serve_shards(self):
        for shards in (-1, 0, 2):
            with pytest.raises(ValueError):
                StreamEnsemble(32, serve_shards=shards)

    def test_serving_interleaved_with_ingest(self):
        rng = np.random.default_rng(12)
        e = self._filled()
        q = InnerProductQuery((1, 6, 12), (0.5, 1.5, -2.0))
        for _ in range(10):
            fill(e, {name: rng.normal(size=3) for name in e.streams})
            out = e.answer_all(q)
            for name, answer in out.items():
                assert answer.value == e.tree(name).answer(q).value
