"""The benchmark's four workloads.

Each workload makes all of its inputs from the seed up front, builds its
structure through its own ingest path (:meth:`Workload.setup`), then runs
in *rounds*: one round is a fixed slice of the op mix, such as sixteen
arrivals and one query.  Each call into the program is timed on its own;
fetching the next input and checking answers happen outside those
timings.  Rounds depend only on the seed, so every count a run has
reached after a fixed number of rounds repeats exactly.

Why each workload exists, and which layer it loads, is in ``RATIONALE.md``.
"""

from __future__ import annotations

import math
import time
import traceback
from array import array
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.control import query_error_bound
from repro.core.engine import QueryEngine
from repro.core.multi import StreamEnsemble
from repro.core.queries import InnerProductQuery, exponential_query, linear_query
from repro.core.swat import Swat
from repro.data.weather import santa_barbara_temps
from repro.data.workload import RandomWorkload
from repro.metrics.error import relative_error
from repro.network.topology import Topology
from repro.replication.async_asr import AsyncSwatAsr

__all__ = ["WORKLOADS", "Recorder", "Workload"]

#: Returns ``(exact answer, certified error bound)`` for one answer.
Oracle = Callable[[], Tuple[float, float]]

State = Dict[str, Any]


class Recorder:
    """What a stretch of rounds did: per-call latencies, counts, failures.

    ``ingest``, ``query`` and ``other`` (phase ends) hold one duration in
    seconds per timed call.  ``rel_errors`` collects the relative error of
    every checked answer while :attr:`keep_errors` is set.  ``tracer`` (a
    span recorder or None) is switched off while a check runs, so checks
    stay out of spans.
    """

    def __init__(self, tracer: Any = None) -> None:
        # Flat float arrays: memory per sample stays 8 bytes, so peak RSS
        # barely depends on how many calls a run manages.
        self.ingest = array("d")
        self.query = array("d")
        self.other = array("d")
        self.values = 0
        self.queries = 0
        self.calls = 0
        self.failed = 0
        self.first_failure: Optional[str] = None
        self.checked = 0
        self.check_s = 0.0
        self.worst_bound_share = 0.0
        self.rel_errors: List[float] = []
        self.keep_errors = True
        self.tracer = tracer

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what

    def raised(self, call: str) -> None:
        """Count the call whose exception is being handled as failed."""
        self.fail(f"{call} raised:\n{traceback.format_exc()}")

    def problem(self, answer: float, oracle: Optional[Oracle], what: str) -> Optional[str]:
        """Why ``answer`` is wrong, or None; checks the bound when ``oracle`` is given."""
        if not math.isfinite(answer):
            return f"{what}: non-finite answer {answer!r}"
        if oracle is None:
            return None
        t0 = time.perf_counter()
        tracer = self.tracer
        if tracer is not None:
            tracer.active = False
        try:
            exact, bound = oracle()
            self.checked += 1
            err = abs(answer - exact)
            if self.keep_errors:
                self.rel_errors.append(relative_error(exact, answer))
            if not err <= bound + 1e-9 * (1.0 + abs(exact)):
                return f"{what}: |answer - exact| = {err!r} exceeds the bound {bound!r}"
            if bound > 0.0:
                self.worst_bound_share = max(self.worst_bound_share, err / bound)
            return None
        finally:
            if tracer is not None:
                tracer.active = True
            self.check_s += time.perf_counter() - t0


class Workload:
    """Inputs, set-up and one round of the op mix for one named workload."""

    name = ""
    #: Rounds of the op mix run (untimed) at the end of set-up.
    WARMUP_ROUNDS = 0
    #: Rounds after which the exact-repeat fingerprint is taken; every one
    #: of them is checked, and they alone feed ``mean_rel_error``.
    FINGERPRINT_ROUNDS = 0
    #: Later rounds are checked one in this many.
    CHECK_EVERY = 1
    #: Length of one pass of the traced run.
    TRACE_ROUNDS = 0

    def setup(self, rec: Recorder) -> State:
        raise NotImplementedError

    def round(self, st: State, rec: Recorder, check: bool) -> None:
        raise NotImplementedError

    def config(self, st: State) -> Dict[str, Any]:
        """Configuration read back from the built objects."""
        raise NotImplementedError

    def counters(self, st: State) -> Dict[str, float]:
        """Monotone counts; the benchmark reports differences of them."""
        raise NotImplementedError

    def gauges(self, st: State) -> Dict[str, float]:
        """Point-in-time levels, reported as read."""
        return {}

    def instrument(self, st: State, tracer: Any) -> None:
        """Wrap what only exists per instance (nothing by default)."""


# ------------------------------------------------------------- centralized


class Centralized(Workload):
    """One stream through ``Swat.update`` plus ``QueryEngine.answer`` (Figs 5-6).

    N = 1024, k = 1, Haar, values uniform on [0, 100]; one query after every
    16 arrivals.  Subclasses choose the queries.
    """

    WINDOW = 1024
    ARRIVALS_PER_QUERY = 16
    #: Prime, so the value cycle never lines up with the tree's phase.
    POOL = 65521

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.values = rng.uniform(0.0, 100.0, self.POOL)
        self.value_list: List[float] = self.values.tolist()
        self.queries = self.make_queries(seed)

    def make_queries(self, seed: int) -> List[InnerProductQuery]:
        raise NotImplementedError

    def setup(self, rec: Recorder) -> State:
        tree = Swat(self.WINDOW, k=1)
        for v in self.value_list[: self.WINDOW]:
            tree.update(v)
        st: State = {"tree": tree, "engine": QueryEngine(tree), "pos": self.WINDOW, "round": 0}
        for _ in range(self.WARMUP_ROUNDS):
            self.round(st, rec, check=False)
        return st

    def history(self, pos: int) -> np.ndarray:
        """The true last ``2N`` values, newest first, after ``pos`` arrivals."""
        return self.values[(pos - 1 - np.arange(2 * self.WINDOW)) % self.POOL]

    def round(self, st: State, rec: Recorder, check: bool) -> None:
        clock = time.perf_counter
        tree = st["tree"]
        update = tree.update
        values = self.value_list
        ingest = rec.ingest
        pos = st["pos"]
        for _ in range(self.ARRIVALS_PER_QUERY):
            v = values[pos % self.POOL]
            pos += 1
            t0 = clock()
            try:
                update(v)
            except Exception:  # counted as a failed call; the run goes on
                rec.raised("Swat.update")
            ingest.append(clock() - t0)
        st["pos"] = pos
        rec.values += self.ARRIVALS_PER_QUERY
        rec.calls += self.ARRIVALS_PER_QUERY

        engine = st["engine"]
        query = self.queries[st["round"] % len(self.queries)]
        st["round"] += 1
        fallbacks = engine.fallbacks
        answer: Optional[float] = None
        t0 = clock()
        try:
            answer = engine.answer(query).value
        except Exception:
            rec.raised("QueryEngine.answer")
        rec.query.append(clock() - t0)
        rec.queries += 1
        rec.calls += 1
        if answer is None:
            return
        if engine.fallbacks != fallbacks:
            rec.fail("QueryEngine.answer fell back to the scalar path on a warm tree")
            return

        def oracle() -> Tuple[float, float]:
            hist = self.history(pos)
            return query.evaluate(hist), query_error_bound(tree, hist, query)

        msg = rec.problem(answer, oracle if check else None, "QueryEngine.answer")
        if msg is not None:
            rec.fail(msg)

    def config(self, st: State) -> Dict[str, Any]:
        tree = st["tree"]
        return {
            "window_size": tree.window_size,
            "k": tree.k,
            "wavelet": tree.wavelet,
            "min_level": tree.min_level,
            "streams": 1,
            "arrivals_per_query": self.ARRIVALS_PER_QUERY,
            "distinct_queries": len(self.queries),
            "plan_cache_capacity": st["engine"].max_plans,
        }

    def counters(self, st: State) -> Dict[str, float]:
        engine = st["engine"]
        return {
            "plan.hits": engine.hits,
            "plan.misses": engine.misses,
            "engine.fallbacks": engine.fallbacks,
        }


class FixedQuery(Centralized):
    """Fig 5 fixed mode: the same length-64 exponential query every time."""

    name = "fixed_query"
    # Passes through all 32 query phases many times over.
    WARMUP_ROUNDS = 1536
    FINGERPRINT_ROUNDS = 256
    CHECK_EVERY = 16
    TRACE_ROUNDS = 2000

    def make_queries(self, seed: int) -> List[InnerProductQuery]:
        return [exponential_query(64)]


class RandomQuery(Centralized):
    """Fig 5(f)/6(b) random mode: a fresh random subset for every query."""

    name = "random_query"
    WARMUP_ROUNDS = 128
    FINGERPRINT_ROUNDS = 128
    CHECK_EVERY = 16
    TRACE_ROUNDS = 300
    #: More distinct queries than the engine caches plans (512), so the
    #: cycle never meets a plan it compiled before: every lookup misses.
    DISTINCT = 1021

    def make_queries(self, seed: int) -> List[InnerProductQuery]:
        workload = RandomWorkload(self.WINDOW, kind="exponential", seed=seed)
        return [workload.next() for _ in range(self.DISTINCT)]


# ---------------------------------------------------------------- ensemble


class Ensemble(Workload):
    """Synchronized streams: ``extend_columns`` blocks, then ``answer_batch``."""

    name = "ensemble"
    STREAMS = 16
    WINDOW = 1024
    K = 4
    BLOCK = 128
    QUERIES_PER_STREAM = 3
    #: Primes, so data blocks and query sets drift against each other.
    POOL_BLOCKS = 31
    QUERY_SETS = 37
    WARMUP_ROUNDS = 24
    FINGERPRINT_ROUNDS = 64
    CHECK_EVERY = 8
    TRACE_ROUNDS = 200

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.names = [f"s{i:02d}" for i in range(self.STREAMS)]
        self.span = self.POOL_BLOCKS * self.BLOCK
        self.data = rng.uniform(0.0, 100.0, (self.STREAMS, self.span))
        self.blocks = [
            {
                name: self.data[i, b * self.BLOCK : (b + 1) * self.BLOCK]
                for i, name in enumerate(self.names)
            }
            for b in range(self.POOL_BLOCKS)
        ]
        shapes = (
            exponential_query(16),
            exponential_query(64),
            linear_query(32),
            linear_query(128, start=64),
            exponential_query(8, start=500),
            linear_query(self.WINDOW),
        )
        picks = rng.integers(
            0, len(shapes), (self.QUERY_SETS, self.STREAMS, self.QUERIES_PER_STREAM)
        )
        self.query_sets = [
            {name: [shapes[j] for j in picks[q, i]] for i, name in enumerate(self.names)}
            for q in range(self.QUERY_SETS)
        ]
        self.checked_stream: List[int] = rng.integers(
            0, self.STREAMS, self.QUERY_SETS
        ).tolist()

    def setup(self, rec: Recorder) -> State:
        ens = StreamEnsemble(self.WINDOW, k=self.K, serve_shards=1)
        for name in self.names:
            ens.add_stream(name)
        fill = self.WINDOW // self.BLOCK
        for b in range(fill):
            ens.extend_columns(self.blocks[b % self.POOL_BLOCKS])
        st: State = {"ens": ens, "block": fill}
        for _ in range(self.WARMUP_ROUNDS):
            self.round(st, rec, check=False)
        return st

    def _fallbacks(self, ens: StreamEnsemble) -> int:
        return sum(ens.engine(name).fallbacks for name in self.names)

    def round(self, st: State, rec: Recorder, check: bool) -> None:
        clock = time.perf_counter
        ens = st["ens"]
        b = st["block"]
        st["block"] = b + 1
        t0 = clock()
        try:
            ens.extend_columns(self.blocks[b % self.POOL_BLOCKS])
        except Exception:  # counted as a failed call; the run goes on
            rec.raised("StreamEnsemble.extend_columns")
        rec.ingest.append(clock() - t0)
        rec.values += self.STREAMS * self.BLOCK
        rec.calls += 1

        ticks = (b + 1) * self.BLOCK
        qset = b % self.QUERY_SETS
        queries = self.query_sets[qset]
        fallbacks = self._fallbacks(ens)
        out: Optional[Dict[str, List[Any]]] = None
        t0 = clock()
        try:
            out = ens.answer_batch(queries)
        except Exception:
            rec.raised("StreamEnsemble.answer_batch")
        rec.query.append(clock() - t0)
        rec.queries += self.STREAMS * self.QUERIES_PER_STREAM
        rec.calls += 1
        if out is None:
            return
        if self._fallbacks(ens) != fallbacks:
            rec.fail("StreamEnsemble.answer_batch fell back to the scalar path")
            return
        checked = self.checked_stream[qset] if check else -1
        for i, name in enumerate(self.names):
            answers = out.get(name, [])
            if len(answers) != self.QUERIES_PER_STREAM:
                rec.fail(f"answer_batch returned {len(answers)} answers for {name}")
                return
            tree = ens.tree(name)
            for query, ans in zip(queries[name], answers):
                oracle = None
                if i == checked:

                    def oracle(
                        q: InnerProductQuery = query, tree: Swat = tree, i: int = i
                    ) -> Tuple[float, float]:
                        hist = self.data[i, (ticks - 1 - np.arange(2 * self.WINDOW)) % self.span]
                        return q.evaluate(hist), query_error_bound(tree, hist, q)

                msg = rec.problem(ans.value, oracle, f"answer_batch[{name}]")
                if msg is not None:
                    rec.fail(msg)
                    return

    def config(self, st: State) -> Dict[str, Any]:
        ens = st["ens"]
        tree = ens.tree(self.names[0])
        return {
            "window_size": ens.window_size,
            "k": ens.k,
            "wavelet": tree.wavelet,
            "min_level": tree.min_level,
            "streams": len(ens),
            "serve_shards": ens.serve_shards,
            "block_ticks": self.BLOCK,
            "queries_per_stream": self.QUERIES_PER_STREAM,
        }

    def counters(self, st: State) -> Dict[str, float]:
        engines = [st["ens"].engine(name) for name in self.names]
        return {
            "plan.hits": sum(e.hits for e in engines),
            "plan.misses": sum(e.misses for e in engines),
            "engine.fallbacks": sum(e.fallbacks for e in engines),
        }


# ------------------------------------------------------------- replication


class Replication(Workload):
    """SWAT-ASR over a real transport (Fig 10a), driven one virtual second a round.

    ``AsyncSwatAsr`` on a complete binary tree of 14 clients, N = 64, zero
    latency, no faults.  Data arrives every 2 virtual seconds, each client
    queries every second, and a phase ends every 10.  Queries are linear,
    at most 8 indices, precision uniform on [2, 10].
    """

    name = "replication"
    CLIENTS = 14
    WINDOW = 64
    DATA_PERIOD = 2
    PHASE_PERIOD = 10
    #: Queries start once the window is full, as in the paper's harness.
    FILL_TIME = WINDOW * DATA_PERIOD
    #: The paper's 100 virtual seconds of warm-up, then 200 more so set-up
    #: is long enough to time steadily.
    WARMUP_ROUNDS = 300
    FINGERPRINT_ROUNDS = 200
    CHECK_EVERY = 1
    TRACE_ROUNDS = 600
    QUERY_POOL = 1021

    def __init__(self, seed: int) -> None:
        # The paper's data set is fixed and the seed draws the queries, as
        # in the replication harness.  Update-cascade cost depends on the
        # data, so a fixed series keeps ingest latency from moving with
        # the seed.
        self.series: List[float] = santa_barbara_temps().tolist()
        self.clients = Topology.complete_binary_tree(self.CLIENTS).clients
        self.queries: Dict[str, List[InnerProductQuery]] = {}
        for i, client in enumerate(self.clients):
            workload = RandomWorkload(
                self.WINDOW,
                kind="linear",
                max_length=8,
                precision_low=2.0,
                precision_high=10.0,
                seed=seed + 7919 * (i + 1),
            )
            self.queries[client] = [workload.next() for _ in range(self.QUERY_POOL)]

    def setup(self, rec: Recorder) -> State:
        asr = AsyncSwatAsr(
            Topology.complete_binary_tree(self.CLIENTS), self.WINDOW, latency=0.0
        )
        st: State = {
            "asr": asr,
            "t": 0,
            "arrivals": 0,
            "round": 0,
            "local": 0,
            "truth": deque(maxlen=self.WINDOW),
        }
        while st["t"] < self.FILL_TIME + self.WARMUP_ROUNDS:
            self.round(st, rec, check=False)
        return st

    def round(self, st: State, rec: Recorder, check: bool) -> None:
        clock = time.perf_counter
        asr = st["asr"]
        t = st["t"]
        st["t"] = t + 1
        now = float(t)
        truth = st["truth"]
        if t % self.DATA_PERIOD == 0:
            v = self.series[st["arrivals"] % len(self.series)]
            st["arrivals"] += 1
            t0 = clock()
            try:
                asr.on_data(v, now=now)
            except Exception:  # counted as a failed call; the run goes on
                rec.raised("AsyncSwatAsr.on_data")
            rec.ingest.append(clock() - t0)
            rec.values += 1
            rec.calls += 1
            truth.appendleft(v)  # truth[i] is window index i
        if t < self.FILL_TIME:
            return
        k = st["round"]
        st["round"] = k + 1
        for client in self.clients:
            query = self.queries[client][k % self.QUERY_POOL]
            answer: Optional[float] = None
            t0 = clock()
            try:
                answer = asr.on_query(client, query, now=now)
            except Exception:
                rec.raised("AsyncSwatAsr.on_query")
            rec.query.append(clock() - t0)
            rec.queries += 1
            rec.calls += 1
            if answer is None:
                continue
            # The benchmark consumes each outcome, so the lists stay short.
            outcome = asr.query_outcomes.pop()
            asr.query_latencies.pop()
            if outcome.degraded:
                rec.fail(f"degraded answer for {client} at t={t}")
                continue
            st["local"] += outcome.served_by == client

            def oracle(q: InnerProductQuery = query) -> Tuple[float, float]:
                exact = sum(w * truth[i] for i, w in zip(q.indices, q.weights))
                return exact, q.precision / 2.0

            msg = rec.problem(answer, oracle if check else None, "AsyncSwatAsr.on_query")
            if msg is not None:
                rec.fail(msg)
        if (t - self.FILL_TIME) % self.PHASE_PERIOD == 0:
            t0 = clock()
            try:
                asr.on_phase_end(now=now)
            except Exception:
                rec.raised("AsyncSwatAsr.on_phase_end")
            rec.other.append(clock() - t0)
            rec.calls += 1

    def config(self, st: State) -> Dict[str, Any]:
        asr = st["asr"]
        return {
            "window_size": asr.window_size,
            "topology_size": len(asr.topology),
            "clients": len(asr.topology.clients),
            "latency": asr.transport.latency,
            "faults": asr.faults is not None,
            "checkpoints": asr.checkpoints is not None,
            "governor": asr.governor is not None,
            "data_period": self.DATA_PERIOD,
            "query_period": 1,
            "phase_period": self.PHASE_PERIOD,
        }

    def counters(self, st: State) -> Dict[str, float]:
        asr = st["asr"]
        out: Dict[str, float] = {
            f"messages.{kind}": n for kind, n in asr.stats.snapshot().items()
        }
        out["sim.events_run"] = asr.sim.events_run
        # The one index-to-segment grouping cache every site shares.
        groups = asr._segment_plans
        out["directory.hits"] = groups.hits
        out["directory.misses"] = groups.misses
        out["asr.local_answers"] = st["local"]
        return out

    def gauges(self, st: State) -> Dict[str, float]:
        return {"asr.cached_rows": st["asr"].approximation_count()}

    def instrument(self, st: State, tracer: Any) -> None:
        tracer.wrap_handlers(st["asr"])


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (FixedQuery, RandomQuery, Ensemble, Replication)
}
