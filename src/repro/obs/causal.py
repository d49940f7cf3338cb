"""Causal tracing: trace contexts, span trees, and critical-path analysis.

The metrics registry (:mod:`repro.obs.metrics`) counts *how many* events
happened but does not link them.  This module adds the causal layer: every
query, update push, and transport hop becomes a :class:`Span` in a tree
rooted at the operation that caused it, so a degraded answer can be traced
back to the exact drop, retry, or stale-version rejection that produced it.

Design rules (see ``docs/observability.md``):

* **Deterministic.**  Span ids are minted from a seeded counter
  (``(seed << 20) + 1`` upward), never from wall clocks or process state, so
  a replayed run produces byte-identical trace files.
* **Propagated, not guessed.**  A :class:`TraceContext` names one span in
  one trace.  It travels on every :class:`~repro.network.transport.Envelope`
  and through :class:`~repro.simulate.events.Simulator` callbacks; child
  work always attaches to the context it was handed.
* **One attribute check when off.**  Instrumented code holds a
  ``causal`` attribute that defaults to ``None``; the disabled hot path is
  ``if self.causal is not None`` and nothing else.

Analysis lives next to collection: :meth:`SpanTree.critical_path` attributes
every instant of a trace's duration to exactly one span (the segments tile
``[root.start, root.end]``, so their widths sum to the observed end-to-end
latency), and :func:`record_query_trace` / :func:`record_update_trace` feed
the results into the metrics registry.  Perfetto/Chrome export lives in
:mod:`repro.obs.chrome`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from . import metrics as obs_metrics

__all__ = [
    "TraceContext",
    "Span",
    "SpanTree",
    "CriticalSegment",
    "CausalTracer",
    "enable_causal",
    "disable_causal",
    "current_causal",
    "render_tree",
    "format_critical_path",
    "record_query_trace",
    "record_update_trace",
]


@dataclass(frozen=True)
class TraceContext:
    """A reference to one span in one trace — the unit of propagation.

    Carried on envelopes and simulator callbacks; starting a span with a
    parent context attaches the new span under it.  A trace's id equals its
    root span's id, so ``trace_id`` alone finds the tree.
    """

    trace_id: int
    span_id: int


class Span:
    """One timed operation inside a trace.

    ``start_at`` / ``end_at`` are in the clock of the caller — virtual
    seconds for simulator work, ``time.perf_counter`` seconds for in-process
    :class:`~repro.core.swat.Swat` operations (the two never mix inside one
    trace).  A span with ``end_at == start_at`` is an instant *event* (a
    drop, a retry, a dedup hit).  ``annotations`` are small JSON-friendly
    key/value facts (``dst``, ``status``, ``attempt``...).
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "site",
        "start_at",
        "end_at",
        "annotations",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        site: str,
        start_at: float,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.site = site
        self.start_at = start_at
        self.end_at: Optional[float] = None
        self.annotations: Dict[str, object] = {}

    @property
    def context(self) -> TraceContext:
        """The context children should attach to."""
        return TraceContext(self.trace_id, self.span_id)

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    @property
    def finished(self) -> bool:
        return self.end_at is not None

    @property
    def duration(self) -> float:
        """Span width; 0.0 for events and unfinished spans."""
        if self.end_at is None:
            return 0.0
        return self.end_at - self.start_at

    def finish(self, at: float, **annotations: object) -> "Span":
        """Close the span at ``at`` (idempotent: the first finish wins)."""
        if self.end_at is None:
            if at < self.start_at:
                raise ValueError(
                    f"span {self.name!r} cannot finish before it started "
                    f"({at} < {self.start_at})"
                )
            self.end_at = at
        self.annotations.update(annotations)
        return self

    def annotate(self, **annotations: object) -> "Span":
        self.annotations.update(annotations)
        return self

    def __repr__(self) -> str:
        end = f"{self.end_at:.6f}" if self.end_at is not None else "..."
        return (
            f"Span({self.name!r} id={self.span_id} trace={self.trace_id} "
            f"site={self.site!r} [{self.start_at:.6f}, {end}])"
        )


@dataclass(frozen=True)
class CriticalSegment:
    """One interval of a trace's duration attributed to one span."""

    span: Span
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTree:
    """All spans of one trace, indexed for tree walks."""

    def __init__(self, spans: List[Span]) -> None:
        if not spans:
            raise ValueError("a span tree needs at least one span")
        self.spans = spans
        self._by_id: Dict[int, Span] = {s.span_id: s for s in spans}
        self._children: Dict[int, List[Span]] = {}
        roots = []
        for span in spans:
            if span.parent_id is None or span.parent_id not in self._by_id:
                roots.append(span)
            else:
                self._children.setdefault(span.parent_id, []).append(span)
        if len(roots) != 1:
            raise ValueError(
                f"trace {spans[0].trace_id} has {len(roots)} roots; "
                "expected exactly one (orphan spans break the tree)"
            )
        self.root = roots[0]

    def __len__(self) -> int:
        return len(self.spans)

    def children(self, span_id: int) -> List[Span]:
        return self._children.get(span_id, [])

    def span(self, span_id: int) -> Span:
        return self._by_id[span_id]

    @property
    def duration(self) -> float:
        return self.root.duration

    def hop_count(self) -> int:
        """Transport hops in this trace (spans named ``hop:<kind>``)."""
        return sum(1 for s in self.spans if s.name.startswith("hop:"))

    def walk(self) -> Iterator[Tuple[Span, int]]:
        """Depth-first ``(span, depth)`` pairs, children in start order."""
        stack: List[Tuple[Span, int]] = [(self.root, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            kids = sorted(
                self.children(span.span_id),
                key=lambda s: (s.start_at, s.span_id),
                reverse=True,
            )
            stack.extend((k, depth + 1) for k in kids)

    def _subtree_end(self, span: Span) -> float:
        """Latest finish over ``span`` and its *duration-bearing* descendants
        (hop spans finish at delivery, but the work they caused — the
        receiver's own sends — chains under them and can end later).  Instant
        events take no time, so a leaf event never extends the subtree: ack
        settling after delivery is bookkeeping, not waiting."""
        end = span.end_at if span.end_at is not None else span.start_at
        for child in self.children(span.span_id):
            if child.finished and child.duration == 0.0 and not self.children(
                child.span_id
            ):
                continue
            child_end = self._subtree_end(child)
            if child_end > end:
                end = child_end
        return end

    def critical_path(self) -> List[CriticalSegment]:
        """Attribute every instant of the trace to exactly one span.

        Walking backwards from the root's finish (the standard critical-path
        construction): the child whose *subtree* finished latest — but no
        later than the current cursor — owns the interval up to that finish,
        the parent owns the gap above it, and the walk recurses into the
        child.  The returned segments are chronological, non-overlapping,
        and tile ``[root.start_at, root.end_at]`` exactly — so their
        durations sum to the observed end-to-end latency by construction.

        A subtree still unfinished at the cursor (a late response arriving
        after a degraded answer, a post-answer retransmission) never lands
        on the path: it did not cause the root to finish, so its interval
        stays attributed to the span that was actually waiting.
        """
        if self.root.end_at is None:
            raise ValueError("cannot extract a critical path from an unfinished root")
        segments: List[CriticalSegment] = []

        def walk(span: Span, cap: float) -> None:
            kids = sorted(
                (
                    (self._subtree_end(k), k)
                    for k in self.children(span.span_id)
                ),
                key=lambda pair: (pair[0], pair[1].span_id),
                reverse=True,
            )
            cursor = cap
            for child_end, child in kids:
                if child_end > cursor or child_end < span.start_at:
                    continue  # still running at the cursor, or out of window
                if cursor <= span.start_at:
                    break
                if cursor > child_end:
                    segments.append(CriticalSegment(span, child_end, cursor))
                walk(child, child_end)
                cursor = max(child.start_at, span.start_at)
            if cursor > span.start_at:
                segments.append(CriticalSegment(span, span.start_at, cursor))

        walk(self.root, self.root.end_at)
        segments.reverse()
        return [s for s in segments if s.duration > 0.0]

    def phase_durations(self) -> Dict[str, float]:
        """Critical-path time aggregated by span name (the "phase")."""
        out: Dict[str, float] = {}
        for seg in self.critical_path():
            out[seg.span.name] = out.get(seg.span.name, 0.0) + seg.duration
        return out


class CausalTracer:
    """Collects spans into per-trace trees with deterministic ids.

    ``seed`` offsets the id counter so concurrent tracers (or re-runs with a
    different seed) mint disjoint id ranges; the default reproduces ids
    ``1, 2, 3, ...``.  ``max_spans`` caps memory: once the cap is reached,
    *new traces* are sampled out (counted in :attr:`dropped`) while spans of
    already-admitted traces keep recording, so every stored tree stays
    complete and connected.
    """

    def __init__(self, seed: int = 0, max_spans: Optional[int] = None) -> None:
        if max_spans is not None and max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.seed = seed
        self.max_spans = max_spans
        self._ids = itertools.count((seed << 20) + 1)
        self._spans: Dict[int, Span] = {}
        self._by_trace: Dict[int, List[Span]] = {}
        #: Spans not recorded because the cap sampled their trace out.
        self.dropped = 0

    # ------------------------------------------------------------ recording

    def start_span(
        self,
        name: str,
        *,
        at: float,
        site: str = "",
        parent: Optional[TraceContext] = None,
        **annotations: object,
    ) -> Span:
        """Open a span; no ``parent`` starts a new trace rooted at it."""
        span_id = next(self._ids)
        if parent is None:
            span = Span(span_id, span_id, None, name, site, at)
        else:
            span = Span(parent.trace_id, span_id, parent.span_id, name, site, at)
        if annotations:
            span.annotations.update(annotations)
        self._admit(span)
        return span

    def event(
        self,
        name: str,
        *,
        at: float,
        parent: TraceContext,
        site: str = "",
        **annotations: object,
    ) -> Span:
        """Record an instant child event (a drop, a retry, an ack...)."""
        span = self.start_span(name, at=at, site=site, parent=parent, **annotations)
        span.end_at = at
        return span

    def _admit(self, span: Span) -> None:
        if self.max_spans is not None and span.trace_id not in self._by_trace:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
        self._spans[span.span_id] = span
        self._by_trace.setdefault(span.trace_id, []).append(span)

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def spans(self) -> List[Span]:
        return list(self._spans.values())

    def span(self, span_id: int) -> Optional[Span]:
        return self._spans.get(span_id)

    def trace_ids(self) -> List[int]:
        return list(self._by_trace)

    def has_trace(self, trace_id: int) -> bool:
        return trace_id in self._by_trace

    def tree(self, trace_id: int) -> SpanTree:
        spans = self._by_trace.get(trace_id)
        if not spans:
            raise KeyError(f"no spans recorded for trace {trace_id}")
        return SpanTree(spans)

    def trees(self) -> List[SpanTree]:
        return [self.tree(tid) for tid in self._by_trace]

    def orphan_spans(self) -> List[Span]:
        """Spans whose parent was never recorded — a broken propagation
        chain (the acceptance suite asserts this is empty)."""
        return [
            s
            for s in self._spans.values()
            if s.parent_id is not None and s.parent_id not in self._spans
        ]

    def clear(self) -> None:
        self._spans.clear()
        self._by_trace.clear()
        self.dropped = 0

    def __repr__(self) -> str:
        return (
            f"CausalTracer(traces={len(self._by_trace)}, spans={len(self._spans)}, "
            f"dropped={self.dropped})"
        )


# ----------------------------------------------------------- module state

#: Process-wide tracer instrumented code attaches to at construction time.
#: ``None`` (the default) keeps every hot path at one attribute check.
_ACTIVE: Optional[CausalTracer] = None


def enable_causal(
    tracer: Optional[CausalTracer] = None,
    *,
    seed: int = 0,
    max_spans: Optional[int] = None,
) -> CausalTracer:
    """Install a process-wide causal tracer (optionally caller-supplied).

    Objects pick the tracer up **at construction**: enable before building
    transports/protocols.  Returns the active tracer.
    """
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else CausalTracer(seed=seed, max_spans=max_spans)
    return _ACTIVE


def disable_causal() -> Optional[CausalTracer]:
    """Detach the process-wide tracer; returns it (with its spans) if set."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, None
    return previous


def current_causal() -> Optional[CausalTracer]:
    """The process-wide tracer, or ``None`` when causal tracing is off."""
    return _ACTIVE


# ------------------------------------------------------------- rendering

def _format_annotations(span: Span) -> str:
    if not span.annotations:
        return ""
    inner = " ".join(f"{k}={v}" for k, v in sorted(span.annotations.items()))
    return f"  ({inner})"


def render_tree(tree: SpanTree, *, unit: str = "s") -> str:
    """Indented text rendering of one trace (the ``repro trace`` view)."""
    lines = [
        f"trace {tree.root.trace_id}: {tree.root.name} @ {tree.root.site or '?'} "
        f"[{tree.root.start_at:.6f} .. "
        f"{tree.root.end_at if tree.root.end_at is not None else '...'}] "
        f"duration={tree.duration:.6f}{unit} spans={len(tree)}"
    ]
    for span, depth in tree.walk():
        if span is tree.root:
            continue
        width = f"+{span.duration:.6f}{unit}" if span.duration > 0.0 else "event"
        lines.append(
            f"{'  ' * depth}- {span.name} @ {span.site or '?'} "
            f"t={span.start_at:.6f} {width}{_format_annotations(span)}"
        )
    return "\n".join(lines)


def format_critical_path(segments: List[CriticalSegment], *, unit: str = "s") -> str:
    """Tabular rendering of :meth:`SpanTree.critical_path` output."""
    if not segments:
        return "(empty critical path)"
    total = sum(s.duration for s in segments)
    lines = [f"critical path: {total:.6f}{unit} over {len(segments)} segment(s)"]
    for seg in segments:
        share = seg.duration / total if total > 0.0 else 0.0
        lines.append(
            f"  [{seg.start:.6f} .. {seg.end:.6f}] {seg.duration:.6f}{unit} "
            f"{share:6.1%}  {seg.span.name} @ {seg.span.site or '?'}"
        )
    return "\n".join(lines)


# --------------------------------------------------------- metrics bridge

def record_query_trace(tracer: CausalTracer, root: Span, protocol: str) -> None:
    """Feed one finished query trace into the metrics registry.

    Records ``trace.query.critical_path_seconds{protocol=...}`` (the segment
    sum — equal to the end-to-end latency) and per-phase
    ``trace.query.phase_seconds{phase=...,protocol=...}``.  No-op unless
    metrics are enabled and the trace was admitted.
    """
    if not obs_metrics.ENABLED or not tracer.has_trace(root.trace_id):
        return
    tree = tracer.tree(root.trace_id)
    phases = tree.phase_durations()
    obs_metrics.histogram(
        "trace.query.critical_path_seconds", protocol=protocol
    ).observe(sum(phases.values()))
    for phase, duration in phases.items():
        obs_metrics.histogram(
            "trace.query.phase_seconds", phase=phase, protocol=protocol
        ).observe(duration)


def record_update_trace(tracer: CausalTracer, root: Span, protocol: str) -> None:
    """Feed one finished update-push trace into the metrics registry:
    ``trace.update.hops{protocol=...}`` counts transport hops in the tree."""
    if not obs_metrics.ENABLED or not tracer.has_trace(root.trace_id):
        return
    tree = tracer.tree(root.trace_id)
    obs_metrics.histogram(
        "trace.update.hops", buckets=obs_metrics.COUNT_BUCKETS, protocol=protocol
    ).observe(tree.hop_count())
