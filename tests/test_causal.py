"""Causal-tracing acceptance suite (repro.obs.causal + repro.obs.chrome).

Three layers are pinned here:

* **Tracer/tree mechanics** — deterministic span ids, whole-trace sampling
  under ``max_spans``, orphan detection, and the critical-path invariant:
  segments are chronological, non-overlapping, and tile the root interval
  exactly, so their durations sum to the end-to-end latency by construction.
* **Propagation** — transport retransmissions, duplicate deliveries, and
  crash retries all stay inside the originating trace (events chain under
  the hop span that caused them); the counted-call protocols (APS, ADR)
  and the SWAT-ASR actor runtime produce connected trees with zero orphans
  even under a seeded fault plan.
* **Export** — the Chrome trace-event document round-trips through JSON and
  passes :func:`validate_chrome`, the same check the CI smoke step runs.
"""

import json

import pytest

from repro import obs
from repro.core.queries import point_query
from repro.experiments import trace_chaos_demo
from repro.network.faults import CrashWindow, FaultPlan
from repro.network.messages import MessageKind
from repro.network.topology import SOURCE, Topology
from repro.network.transport import Transport
from repro.obs.causal import (
    CausalTracer,
    Span,
    SpanTree,
    TraceContext,
    current_causal,
    disable_causal,
    enable_causal,
    format_critical_path,
    record_query_trace,
    record_update_trace,
    render_tree,
)
from repro.obs.chrome import (
    chrome_trace_ids,
    to_chrome,
    validate_chrome,
    write_chrome,
)
from repro.replication.adr import AdrObject
from repro.replication.aps import AdaptivePrecision
from repro.replication.async_asr import AsyncSwatAsr
from repro.simulate.events import Simulator

N = 16


def make_query_trace(tracer):
    """One forwarded query: request hop, response hop chained under it."""
    root = tracer.start_span("query", at=0.0, site="C1")
    fwd = tracer.start_span(
        "hop:query", at=0.0, site="C1", parent=root.context, dst=SOURCE
    ).finish(1.0, status="delivered")
    tracer.start_span(
        "hop:response", at=1.0, site=SOURCE, parent=fwd.context, dst="C1"
    ).finish(3.0, status="delivered")
    root.finish(4.0)
    return root


class TestTracerBasics:
    def test_ids_are_deterministic_and_seed_offset(self):
        t = CausalTracer(seed=0)
        a = t.start_span("a", at=0.0)
        b = t.start_span("b", at=0.0)
        assert (a.span_id, b.span_id) == (1, 2)
        assert CausalTracer(seed=3).start_span("a", at=0.0).span_id == (3 << 20) + 1

    def test_root_trace_id_equals_its_span_id(self):
        t = CausalTracer()
        root = t.start_span("query", at=0.0, site="C1")
        assert root.trace_id == root.span_id
        assert root.is_root
        child = t.start_span("hop:query", at=0.0, parent=root.context)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert not child.is_root

    def test_event_is_instant_and_finished(self):
        t = CausalTracer()
        root = t.start_span("query", at=0.0)
        ev = t.event("drop", at=1.5, parent=root.context, site="C1", attempt=1)
        assert ev.finished
        assert ev.duration == 0.0
        assert ev.annotations["attempt"] == 1

    def test_finish_is_idempotent_first_wins(self):
        t = CausalTracer()
        span = t.start_span("query", at=0.0)
        span.finish(2.0, status="delivered")
        span.finish(9.0, extra=True)
        assert span.end_at == 2.0
        # Later finishes still merge annotations.
        assert span.annotations == {"status": "delivered", "extra": True}

    def test_finish_before_start_raises(self):
        span = CausalTracer().start_span("query", at=5.0)
        with pytest.raises(ValueError):
            span.finish(4.0)

    def test_unfinished_span_has_zero_duration(self):
        span = CausalTracer().start_span("query", at=5.0)
        assert not span.finished
        assert span.duration == 0.0

    def test_max_spans_samples_whole_traces(self):
        t = CausalTracer(max_spans=2)
        root = t.start_span("a", at=0.0)
        t.start_span("b", at=0.0, parent=root.context)
        # The cap is reached: a *new* trace is sampled out entirely...
        dropped_root = t.start_span("c", at=0.0)
        assert not t.has_trace(dropped_root.trace_id)
        assert t.dropped == 1
        # ...but an already-admitted trace keeps recording past the cap,
        # so stored trees never lose interior spans.
        t.start_span("d", at=0.0, parent=root.context)
        assert len(t) == 3
        assert len(t.tree(root.trace_id)) == 3

    def test_max_spans_must_be_positive(self):
        with pytest.raises(ValueError):
            CausalTracer(max_spans=0)

    def test_clear_resets_spans_and_dropped(self):
        t = CausalTracer(max_spans=1)
        t.start_span("a", at=0.0)
        t.start_span("b", at=0.0)
        assert (len(t), t.dropped) == (1, 1)
        t.clear()
        assert (len(t), t.dropped) == (0, 0)
        assert t.trace_ids() == []

    def test_orphan_detection(self):
        t = CausalTracer()
        t.start_span("lost", at=0.0, parent=TraceContext(999, 999))
        (orphan,) = t.orphan_spans()
        assert orphan.name == "lost"
        # The partial tree still builds, rooted at the orphan itself.
        assert t.tree(999).root is orphan

    def test_tree_of_unknown_trace_raises(self):
        with pytest.raises(KeyError):
            CausalTracer().tree(42)


class TestSpanTree:
    def test_needs_at_least_one_span(self):
        with pytest.raises(ValueError):
            SpanTree([])

    def test_two_roots_rejected(self):
        a = Span(1, 1, None, "a", "s", 0.0)
        b = Span(1, 2, None, "b", "s", 0.0)
        with pytest.raises(ValueError):
            SpanTree([a, b])

    def test_walk_is_depth_first_in_start_order(self):
        t = CausalTracer()
        root = make_query_trace(t)
        tree = t.tree(root.trace_id)
        names = [s.name for s, __ in tree.walk()]
        assert names == ["query", "hop:query", "hop:response"]
        depths = {s.name: d for s, d in tree.walk()}
        assert depths == {"query": 0, "hop:query": 1, "hop:response": 2}

    def test_hop_count_counts_hop_spans_only(self):
        t = CausalTracer()
        root = make_query_trace(t)
        t.event("dedup", at=2.0, parent=root.context)
        assert t.tree(root.trace_id).hop_count() == 2


class TestCriticalPath:
    def test_segments_tile_the_root_interval(self):
        t = CausalTracer()
        root = make_query_trace(t)
        tree = t.tree(root.trace_id)
        segs = tree.critical_path()
        assert [(s.span.name, s.start, s.end) for s in segs] == [
            ("hop:query", 0.0, 1.0),
            ("hop:response", 1.0, 3.0),
            ("query", 3.0, 4.0),
        ]
        assert sum(s.duration for s in segs) == pytest.approx(tree.duration)
        for prev, cur in zip(segs, segs[1:]):
            assert prev.end == cur.start  # chronological, gap-free

    def test_instant_leaf_events_never_extend_a_subtree(self):
        # Ack bookkeeping lands *after* the root finished; it must not make
        # the hop look "still running" and collapse the path onto the root.
        t = CausalTracer()
        root = make_query_trace(t)
        hop = next(s for s in t.spans if s.name == "hop:query")
        t.event("ack", at=6.0, parent=hop.context, site="C1")
        segs = t.tree(root.trace_id).critical_path()
        assert [s.span.name for s in segs] == ["hop:query", "hop:response", "query"]
        assert sum(s.duration for s in segs) == pytest.approx(4.0)

    def test_late_subtree_stays_off_the_path(self):
        # A straggler response arriving after the (degraded) answer did not
        # cause the root to finish; the root keeps the whole interval.
        t = CausalTracer()
        root = t.start_span("query", at=0.0, site="C1")
        t.start_span("hop:query", at=0.0, parent=root.context).finish(9.0)
        root.finish(4.0, degraded=True)
        segs = t.tree(root.trace_id).critical_path()
        assert [s.span.name for s in segs] == ["query"]
        assert segs[0].duration == pytest.approx(4.0)

    def test_unfinished_root_raises(self):
        t = CausalTracer()
        t.start_span("query", at=0.0)
        with pytest.raises(ValueError):
            t.trees()[0].critical_path()

    def test_phase_durations_aggregate_by_name(self):
        t = CausalTracer()
        root = make_query_trace(t)
        phases = t.tree(root.trace_id).phase_durations()
        assert phases == pytest.approx(
            {"hop:query": 1.0, "hop:response": 2.0, "query": 1.0}
        )
        assert sum(phases.values()) == pytest.approx(4.0)


class TestRendering:
    def test_render_tree_shows_spans_and_events(self):
        t = CausalTracer()
        root = make_query_trace(t)
        t.event("drop", at=0.5, parent=root.context, site="C1")
        text = render_tree(t.tree(root.trace_id))
        assert "trace 1: query @ C1" in text
        assert "hop:response" in text
        assert "event" in text  # zero-width children render as events
        assert f"(dst={SOURCE} status=delivered)" in text

    def test_format_critical_path(self):
        t = CausalTracer()
        root = make_query_trace(t)
        text = format_critical_path(t.tree(root.trace_id).critical_path())
        assert "critical path: 4.000000s over 3 segment(s)" in text
        assert "50.0%" in text  # the 2s response hop out of 4s
        assert format_critical_path([]) == "(empty critical path)"


class TestMetricsBridge:
    def test_query_trace_records_latency_and_phases(self, obs_registry):
        t = CausalTracer()
        root = make_query_trace(t)
        record_query_trace(t, root, "SWAT-ASR")
        hist = obs_registry.histogram(
            "trace.query.critical_path_seconds", protocol="SWAT-ASR"
        )
        assert hist.count == 1
        assert hist.sum == pytest.approx(4.0)
        phase = obs_registry.histogram(
            "trace.query.phase_seconds", phase="hop:response", protocol="SWAT-ASR"
        )
        assert phase.sum == pytest.approx(2.0)

    def test_update_trace_records_hop_count(self, obs_registry):
        t = CausalTracer()
        root = make_query_trace(t)
        record_update_trace(t, root, "SWAT-ASR")
        hist = obs_registry.histogram(
            "trace.update.hops", buckets=obs.COUNT_BUCKETS, protocol="SWAT-ASR"
        )
        assert hist.count == 1
        assert hist.sum == pytest.approx(2.0)

    def test_unadmitted_trace_is_a_noop(self, obs_registry):
        t = CausalTracer(max_spans=1)
        t.start_span("a", at=0.0).finish(1.0)
        root = t.start_span("query", at=0.0)  # sampled out
        root.finish(1.0)
        record_query_trace(t, root, "SWAT-ASR")
        snap = obs_registry.snapshot()
        assert not any("trace.query" in k for k in snap["histograms"])


class TestAmbientSwitch:
    def test_enable_disable_roundtrip(self, ambient_tracer):
        assert current_causal() is ambient_tracer
        returned = disable_causal()
        assert returned is ambient_tracer
        assert current_causal() is None
        supplied = CausalTracer(seed=5)
        assert enable_causal(supplied) is supplied
        assert current_causal() is supplied

    def test_transport_picks_up_ambient_at_construction(self, ambient_tracer):
        sim = Simulator()
        transport = Transport(sim, Topology.single_client())
        assert transport.causal is ambient_tracer
        disable_causal()
        # Already-built objects keep their tracer; new ones see none.
        assert transport.causal is ambient_tracer
        assert Transport(Simulator(), Topology.single_client()).causal is None


def reliable_transport(plan, tracer, latency=0.01):
    topo = Topology.single_client()
    sim = Simulator()
    transport = Transport(
        sim, topo, latency=latency, faults=plan,
        retry_timeout=0.1, max_retries=3, causal=tracer,
    )
    delivered = []
    transport.register(SOURCE, lambda env: delivered.append(env))
    transport.register("C1", lambda env: delivered.append(env))
    return sim, transport, delivered


class TestTransportPropagation:
    def test_each_untraced_send_roots_its_own_hop_trace(self):
        tracer = CausalTracer()
        __, transport, delivered = reliable_transport(None, tracer)
        transport.send("C1", SOURCE, MessageKind.QUERY, {"qid": 1})
        transport.send("C1", SOURCE, MessageKind.QUERY, {"qid": 2})
        transport.drain()
        assert len(delivered) == 2
        assert len(tracer.trace_ids()) == 2
        for tree in tracer.trees():
            assert tree.root.name == f"hop:{MessageKind.QUERY}"
            assert tree.root.annotations["status"] == "delivered"
        # The delivered envelope carries the hop's context for chaining.
        assert delivered[0].trace.trace_id == tracer.trace_ids()[0]

    def test_explicit_trace_context_chains_the_hop(self):
        tracer = CausalTracer()
        __, transport, delivered = reliable_transport(None, tracer)
        root = tracer.start_span("query", at=0.0, site="C1")
        transport.send("C1", SOURCE, MessageKind.QUERY, trace=root.context)
        transport.drain()
        root.finish(transport.sim.now)
        tree = tracer.tree(root.trace_id)
        assert len(tracer.trace_ids()) == 1
        assert tree.hop_count() == 1
        assert tracer.orphan_spans() == []

    def test_crash_retransmit_stays_in_originating_trace(self):
        # Deterministic retry: the destination is down when the first copy
        # lands, back up before the retransmission arrives.
        tracer = CausalTracer()
        plan = FaultPlan(seed=0, crashes=(CrashWindow(SOURCE, 0.0, 0.05),))
        __, transport, delivered = reliable_transport(plan, tracer)
        transport.send("C1", SOURCE, MessageKind.UPDATE, {"v": 1.0})
        transport.drain()
        assert len(delivered) == 1
        assert len(tracer.trace_ids()) == 1
        tree = tracer.trees()[0]
        events = {s.name for s in tree.spans}
        assert "crash" in events and "retry" in events
        assert tree.root.annotations["status"] == "delivered"
        assert tree.root.annotations["attempts"] == 2
        assert tracer.orphan_spans() == []

    def test_give_up_finishes_the_hop_as_failed(self):
        tracer = CausalTracer()
        plan = FaultPlan(seed=0, drop_rate=1.0)
        __, transport, delivered = reliable_transport(plan, tracer)
        failures = []
        transport.send(
            "C1", SOURCE, MessageKind.QUERY, on_failed=lambda env: failures.append(env)
        )
        transport.drain()
        assert delivered == [] and len(failures) == 1
        tree = tracer.trees()[0]
        assert tree.root.annotations["status"] == "failed"
        names = [s.name for s in tree.spans]
        assert names.count("drop") == 4  # initial + 3 retries, all dropped
        assert "give_up" in names
        assert tracer.orphan_spans() == []

    def test_duplicate_delivery_dedups_inside_the_trace(self):
        tracer = CausalTracer()
        plan = FaultPlan(seed=0, duplicate_rate=1.0)
        __, transport, delivered = reliable_transport(plan, tracer)
        transport.send("C1", SOURCE, MessageKind.QUERY)
        transport.drain()
        assert len(delivered) == 1  # exactly-once at the handler
        assert len(tracer.trace_ids()) == 1
        names = [s.name for s in tracer.trees()[0].spans]
        assert "duplicate" in names and "dedup" in names
        assert tracer.orphan_spans() == []


class TestSyncProtocolTraces:
    def test_asr_forwarded_query_trace(self, ambient_tracer):
        asr = AsyncSwatAsr(Topology.paper_example(), N)
        assert asr.causal is ambient_tracer
        for __ in range(N):
            asr.on_data(35.0)
        ambient_tracer.clear()  # keep only the query trace
        asr.on_query("C3", point_query(3, precision=20.0), now=7.0)
        roots = [tr for tr in ambient_tracer.trees() if tr.root.name == "query"]
        (tree,) = roots
        assert tree.root.site == "C3"
        assert tree.root.annotations["hops"] == asr.last_query_hops == 4
        assert tree.hop_count() == 4  # 2 query hops up, 2 responses down
        assert ambient_tracer.orphan_spans() == []
        # Response hops chain under their forward hop, not the root.
        responses = [s for s in tree.spans if s.name == "hop:response"]
        assert all(s.parent_id != tree.root.span_id for s in responses)

    def test_asr_update_and_phase_traces(self, ambient_tracer):
        asr = AsyncSwatAsr(Topology.paper_example(), N)
        for __ in range(N):
            asr.on_data(35.0)
        asr.on_query("C3", point_query(3, precision=20.0))
        ambient_tracer.clear()
        asr.on_phase_end(now=10.0)  # expansion: INSERT + refresh UPDATE
        names = {tr.root.name for tr in ambient_tracer.trees()}
        assert names == {"phase"}
        # Arrivals that move the segment ranges force pushes to the replica
        # C1 just acquired (enclosed refinements are absorbed silently).
        for i in range(4):
            asr.on_data(350.0, now=11.0 + i)
        update_trees = [
            tr for tr in ambient_tracer.trees() if tr.root.name == "update"
        ]
        assert len(update_trees) == 4
        assert any(tr.hop_count() >= 1 for tr in update_trees)
        assert ambient_tracer.orphan_spans() == []

    def test_aps_traces_refresh_hops(self, ambient_tracer):
        aps = AdaptivePrecision(Topology.single_client(), N)
        for __ in range(N):
            aps.on_data(50.0)
        ambient_tracer.clear()
        aps.on_query("C1", point_query(0, precision=0.5), now=3.0)
        (tree,) = [t for t in ambient_tracer.trees() if t.root.name == "query"]
        assert tree.root.annotations["protocol"] == "APS"
        assert tree.hop_count() == aps.last_query_hops == 2
        assert ambient_tracer.orphan_spans() == []

    def test_adr_read_and_write_traces(self, ambient_tracer):
        adr = AdrObject(Topology.paper_example())
        adr.write("C3", 1.25, at=1.0)
        adr.read("C3", at=2.0)
        names = sorted(tr.root.name for tr in ambient_tracer.trees())
        assert names == ["read", "write"]
        read_tree = next(
            tr for tr in ambient_tracer.trees() if tr.root.name == "read"
        )
        assert read_tree.hop_count() >= 1  # C3 is not a replica initially
        assert ambient_tracer.orphan_spans() == []


class TestChaosAcceptance:
    """The tentpole invariants, under drops + duplicates + a crash window."""

    @pytest.fixture(scope="class")
    def chaos(self):
        tracer = CausalTracer(seed=0)
        rows = trace_chaos_demo(n_queries=8, seed=0, tracer=tracer)
        return tracer, rows

    def test_trees_are_connected(self, chaos):
        tracer, rows = chaos
        assert len(rows) == 8
        assert tracer.dropped == 0
        assert tracer.orphan_spans() == []
        for tree in tracer.trees():  # SpanTree raises on a multi-root trace
            assert tree.root.trace_id == tree.root.span_id

    def test_every_outcome_resolves_to_a_recorded_trace(self, chaos):
        tracer, rows = chaos
        for row in rows:
            assert tracer.has_trace(row["trace_id"])
            assert tracer.tree(row["trace_id"]).root.name == "query"

    def test_critical_path_sums_to_observed_latency(self, chaos):
        tracer, rows = chaos
        for row in rows:
            tree = tracer.tree(row["trace_id"])
            segs = tree.critical_path()
            # Row latencies are rounded to microseconds for display.
            assert sum(s.duration for s in segs) == pytest.approx(
                row["latency"], abs=1e-6
            )

    def test_retransmissions_share_the_originating_trace(self, chaos):
        tracer, __ = chaos
        retries = [s for s in tracer.spans if s.name == "retry"]
        assert retries, "chaos plan produced no retransmissions"
        for ev in retries:
            hop = tracer.span(ev.parent_id)
            assert hop is not None and hop.name.startswith("hop:")
            assert hop.trace_id == ev.trace_id

    def test_chrome_export_round_trips_and_validates(self, chaos, tmp_path):
        tracer, __ = chaos
        path = tmp_path / "trace.json"
        doc = write_chrome(tracer, str(path), metadata={"experiment": "chaos"})
        loaded = json.loads(path.read_text())
        assert loaded == doc
        counts = validate_chrome(loaded)
        assert counts["complete"] > 0 and counts["instant"] > 0
        assert counts["traces"] == len(tracer.trace_ids())
        assert chrome_trace_ids(loaded) == set(tracer.trace_ids())
        assert loaded["otherData"]["experiment"] == "chaos"
        assert loaded["otherData"]["dropped_spans"] == 0

    def test_trace_metrics_recorded_when_obs_enabled(self, obs_registry):
        trace_chaos_demo(n_queries=4, seed=1, tracer=CausalTracer(seed=1))
        snap = obs_registry.snapshot()["histograms"]
        latency_keys = [
            k for k in snap if k.startswith("trace.query.critical_path_seconds")
        ]
        assert latency_keys and sum(snap[k]["count"] for k in latency_keys) == 4
        assert any(k.startswith("trace.query.phase_seconds") for k in snap)
        assert any(k.startswith("trace.update.hops") for k in snap)


class TestChromeExporter:
    def test_events_are_complete_or_instant(self):
        t = CausalTracer()
        root = make_query_trace(t)
        t.event("drop", at=0.5, parent=root.context, site="C1")
        doc = to_chrome(t)
        by_ph = {}
        for ev in doc["traceEvents"]:
            by_ph.setdefault(ev["ph"], []).append(ev)
        assert len(by_ph["X"]) == 3  # root + both hops carry width
        assert len(by_ph["i"]) == 1  # the drop event
        assert all(ev["pid"] == root.trace_id for ev in by_ph["X"])
        # Virtual seconds scale to microseconds.
        root_ev = next(ev for ev in by_ph["X"] if ev["name"] == "query")
        assert root_ev["dur"] == pytest.approx(4e6)

    def test_unfinished_spans_export_as_marked_instants(self):
        t = CausalTracer()
        t.start_span("query", at=0.0, site="C1")
        (ev,) = [e for e in to_chrome(t)["traceEvents"] if e["ph"] == "i"]
        assert ev["args"]["unfinished"] is True

    def test_sites_become_threads_with_names(self):
        t = CausalTracer()
        make_query_trace(t)
        doc = to_chrome(t)
        thread_names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert thread_names == {"C1", SOURCE}

    def test_time_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            to_chrome(CausalTracer(), time_scale=0.0)

    def test_validate_rejects_malformed_documents(self):
        with pytest.raises(ValueError):
            validate_chrome([])
        with pytest.raises(ValueError):
            validate_chrome({"traceEvents": [{"ph": "X", "name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome(
                {"traceEvents": [{"ph": "B", "name": "x", "pid": 1, "tid": 1, "ts": 0}]}
            )
