"""Message-passing transport over a tree topology, on the event simulator.

The DC and APS baselines in :mod:`repro.replication` model a message as an
instantaneous function call plus a counter increment.  This module provides
the real thing: envelopes travel one tree edge at a time, arrive after a
configurable per-hop latency, and are handed to the receiving site's
handler — which lets SWAT-ASR run as communicating actors
(:mod:`repro.replication.async_asr`) and lets experiments measure response
latency directly instead of deriving it from hop counts.

Every message takes one path: :meth:`Transport.send` validates it, copies
its payload once into a read-only :class:`Envelope`, and schedules the
delivery with :meth:`Simulator.schedule_after`; :meth:`Simulator.step` later
runs the delivery, which hands the envelope to the handler registered for
the destination at that moment.  On a perfect network (no fault plan) that
is all a send costs: an edge-set lookup, one payload copy, one heap push.

Fault tolerance
---------------
By default the network is perfect: every envelope is delivered exactly once.
Attaching a :class:`~repro.network.faults.FaultPlan` switches the transport
into **reliable mode**:

* every logical message gets a unique id (:meth:`Transport.fresh_id`) and is
  retransmitted on an exponential-backoff timer until the receiver's ack
  arrives or ``max_retries`` retransmissions are exhausted;
* the receiver deduplicates by message id, so duplicated or retransmitted
  copies are dispatched to the handler **at most once** (and re-acked, so a
  lost ack cannot cause a double-apply);
* deliveries due at a crashed site are suppressed; retransmissions landing
  after recovery go through;
* a message whose retries are exhausted invokes the sender's ``on_failed``
  callback instead of raising — the protocol layer degrades gracefully
  (see :mod:`repro.replication.async_asr`).

Acks are transport-level control traffic: they are never recorded in
:class:`~repro.network.messages.MessageStats`, so the paper's hop-count cost
metric is identical with and without reliability.  ``MessageStats`` counts
*logical* sends; physical retransmissions show up in the observability
counters ``transport.retries`` / ``transport.dropped`` /
``transport.duplicated`` instead.

Determinism: every fault roll is **keyed** by the logical message's intrinsic
identity — a stable hash of ``(src, dst, kind)`` plus that edge's per-kind
sequence number — together with the attempt and copy index, so a message's
fate is a pure function of the fault-plan seed and the message itself, never
of the incidental global order in which unrelated simulator events happened
to execute (see :mod:`repro.network.faults` and ``repro shake``).  With a
:class:`~repro.simulate.shake.RaceDetector` installed, the reliability
bookkeeping (``_pending`` / ``_seen``) reports its shared-state accesses so
same-timestamp conflicts are caught at runtime.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from functools import partial
from types import MappingProxyType
from typing import Any, Callable, Dict, FrozenSet, Mapping, NamedTuple, Optional, Set, Tuple

from ..obs import metrics as obs
from ..obs.causal import CausalTracer, Span, TraceContext, current_causal
from ..simulate import shake as shake_mod
from ..simulate.events import Simulator
from .faults import FaultPlan
from .messages import MessageKind, MessageStats
from .topology import Topology

__all__ = ["Envelope", "Transport", "TransportDrainError"]

# Fault-roll purpose codes: the final component of every roll key, so the
# drop / duplicate / jitter / ack decisions of one transmission consume
# independent keyed draws (see FaultPlan._keyed_uniform).
_ROLL_DROP = 0
_ROLL_DUPLICATE = 1
_ROLL_JITTER = 2
_ROLL_ACK_DROP = 3
_ROLL_ACK_JITTER = 4

#: Probe label of each protocol kind's delivery event, built once.
_DELIVER_LABELS: Dict[str, str] = {
    kind: f"transport.deliver:{kind}" for kind in MessageKind.ALL
}


def _edge_hash(src: str, dst: str, kind: str) -> int:
    """Stable 64-bit identity of a directed edge + message kind (process- and
    run-independent, unlike ``hash()`` under hash randomization)."""
    digest = hashlib.blake2b(
        f"{src}\x00{dst}\x00{kind}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class TransportDrainError(RuntimeError):
    """``Transport.drain`` exceeded its step budget with envelopes in flight.

    Raised instead of looping forever when handlers keep re-sending on every
    delivery (a protocol livelock) or when reliability bookkeeping leaks; the
    message names the in-flight message kinds to point at the offender.
    """


class _EnvelopeFields(NamedTuple):
    src: str
    dst: str
    kind: str
    payload: Mapping[str, Any]
    msg_id: Optional[int]
    trace: Optional[TraceContext]
    #: Intrinsic fault-roll identity ``(edge hash, per-edge sequence)``; set
    #: in reliable mode and shared by every physical copy and ack of the
    #: logical message, so fault decisions key off *what* the message is,
    #: not *when* the scheduler happened to process it.
    fault_key: Optional[Tuple[int, int]]


class Envelope(_EnvelopeFields):
    """One logical message on one tree edge (immutable).

    ``payload`` is copied once, here, and exposed read-only
    (``MappingProxyType``): duplicated or retried deliveries of the same
    envelope must never observe each other's mutations, and the sender
    cannot alter what a handler sees.  Direct construction freezes the
    payload too; :meth:`Transport.send` passes the caller's mapping straight
    through, so each logical send copies its payload exactly once.
    ``msg_id`` is set in reliable mode only and keys ack/retry/dedup
    bookkeeping.

    ``trace`` is the causal trace context this envelope travels under (the
    hop span opened by :meth:`Transport.send` when causal tracing is on);
    handler-side work that sends further messages chains under it, and
    retransmitted or duplicated physical copies of one logical message all
    share it — that is what makes a trace *causal* rather than a flat log.

    A named tuple rather than a frozen dataclass: one is built per message,
    and tuple construction costs well under half as much.
    """

    __slots__ = ()

    def __new__(
        cls,
        src: str,
        dst: str,
        kind: str,
        payload: Optional[Mapping[str, Any]] = None,
        msg_id: Optional[int] = None,
        trace: Optional[TraceContext] = None,
        fault_key: Optional[Tuple[int, int]] = None,
    ) -> "Envelope":
        frozen = MappingProxyType({} if payload is None else dict(payload))
        return tuple.__new__(cls, (src, dst, kind, frozen, msg_id, trace, fault_key))


class _PendingSend:
    """Sender-side reliability state for one logical message."""

    __slots__ = ("env", "attempts", "on_failed", "span")

    def __init__(
        self,
        env: Envelope,
        on_failed: Optional[Callable[[Envelope], None]],
        span: Optional[Span] = None,
    ) -> None:
        self.env = env
        #: Physical transmissions performed so far (1 after the first send).
        self.attempts = 0
        self.on_failed = on_failed
        #: Causal hop span (open until first dispatch or give-up).
        self.span = span


class Transport:
    """Delivers envelopes between adjacent tree sites with per-hop latency.

    Parameters
    ----------
    sim:
        The discrete-event simulator carrying the virtual clock.
    topology:
        Sites and edges; only adjacent sites may exchange envelopes.
    latency:
        Per-hop delivery delay in virtual seconds (0 = same-instant delivery,
        still in FIFO event order).
    causal:
        Optional :class:`~repro.obs.causal.CausalTracer`; defaults to the
        process-wide tracer active at construction
        (:func:`repro.obs.causal.current_causal`).  When set, every logical
        send opens a ``hop:<kind>`` span under the caller's trace context,
        and retransmissions / duplicates / drops / dedup hits become child
        events of that span.  ``None`` keeps the hot path at one attribute
        check.
    faults:
        Optional :class:`~repro.network.faults.FaultPlan`.  Attaching one
        switches the transport into reliable mode (acks, retransmission,
        dedup); ``None`` keeps the exact perfect-network fast path.
    retry_timeout:
        Base ack timeout in virtual seconds; attempt ``i`` waits
        ``retry_timeout * 2**i``.  Defaults to
        ``max(4 * (latency + jitter), 0.05)``.
    max_retries:
        Retransmissions after the first send before the message is declared
        failed and ``on_failed`` fires.
    drain_max_steps:
        Default step budget for :meth:`drain` (override per call).
    """

    DEFAULT_DRAIN_STEPS = 100_000

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        latency: float = 0.0,
        causal: Optional[CausalTracer] = None,
        faults: Optional[FaultPlan] = None,
        retry_timeout: Optional[float] = None,
        max_retries: int = 3,
        drain_max_steps: int = DEFAULT_DRAIN_STEPS,
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_timeout is not None and retry_timeout <= 0:
            raise ValueError("retry_timeout must be positive")
        if drain_max_steps < 1:
            raise ValueError("drain_max_steps must be positive")
        self.sim = sim
        self.topology = topology
        self.latency = latency
        self.stats = MessageStats()
        #: Optional causal tracer; picked up from the process-wide switch at
        #: construction unless passed explicitly.
        self.causal: Optional[CausalTracer] = (
            causal if causal is not None else current_causal()
        )
        self.faults = faults
        self.max_retries = max_retries
        jitter = faults.jitter if faults is not None else 0.0
        self.retry_timeout = (
            retry_timeout
            if retry_timeout is not None
            else max(4.0 * (latency + jitter), 0.05)
        )
        self.drain_max_steps = drain_max_steps
        # Both directions of every tree edge; a Topology is never mutated,
        # so one set built here answers every send's adjacency check.
        edges: Set[Tuple[str, str]] = set()
        for node in topology.nodes:
            parent = topology.parent(node)
            if parent is not None:
                edges.update(((node, parent), (parent, node)))
        self._edges: FrozenSet[Tuple[str, str]] = frozenset(edges)
        self._handlers: Dict[str, Callable[[Envelope], None]] = {}
        self._ids = itertools.count(1)
        self._in_flight = 0
        self._in_flight_kinds: Counter = Counter()
        # Reliable-mode state: pending acks at the sender, seen ids at the
        # receiver (per destination site, for idempotent delivery).
        self._pending: Dict[int, _PendingSend] = {}
        self._seen: Dict[str, Set[int]] = {}
        # Intrinsic message identity for keyed fault rolls: a per-(edge, kind)
        # logical-send counter, and a per-message ack counter (the n-th ack of
        # one logical message is itself intrinsic to that message).
        self._edge_seq: Dict[Tuple[str, str, str], int] = {}
        self._ack_seq: Dict[int, int] = {}
        # Plain reliability counters (always on — cheap int adds); the obs
        # registry mirrors them when observability is enabled.
        self.dropped = 0
        self.duplicated = 0
        self.retries = 0
        self.failed = 0
        self.dedup_hits = 0
        self.acks = 0

    @property
    def reliable(self) -> bool:
        """True when a fault plan is attached (ack/retry/dedup active)."""
        return self.faults is not None

    def register(self, node: str, handler: Callable[[Envelope], None]) -> None:
        """Attach the site's message handler."""
        if node not in self.topology:
            raise KeyError(f"unknown site {node!r}")
        self._handlers[node] = handler

    def is_up(self, site: str) -> bool:
        """False while ``site`` sits inside a fault-plan crash window."""
        return self.faults is None or not self.faults.is_crashed(site, self.sim.now)

    # ----------------------------------------------------------------- send

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Optional[Mapping[str, Any]] = None,
        on_failed: Optional[Callable[[Envelope], None]] = None,
        trace: Optional[TraceContext] = None,
    ) -> None:
        """Ship one logical message one hop; delivery is a future event.

        In reliable mode the message is retransmitted until acked; if the
        retry cap is exhausted, ``on_failed`` (if given) is invoked with the
        envelope instead of raising.  ``on_failed`` is ignored on the
        perfect-network path, where delivery is guaranteed.

        ``trace`` attaches the message to a causal trace; when omitted, the
        simulator's :attr:`~repro.simulate.events.Simulator.current_context`
        is inherited, so a handler that sends while processing a delivery
        chains under the envelope that triggered it without any explicit
        threading.  With a causal tracer attached, the send opens a
        ``hop:<kind>`` span and the envelope carries *that* span's context.
        """
        if dst not in self._handlers:
            raise KeyError(f"no handler registered at {dst!r}")
        if (src, dst) not in self._edges:
            if src not in self.topology:
                raise KeyError(f"unknown site {src!r}")
            raise ValueError(f"{src!r} and {dst!r} are not adjacent in the tree")
        label = _DELIVER_LABELS.get(kind)
        if label is None:
            raise ValueError(f"unknown message kind {kind!r}")
        self.stats.record(kind)
        ctx = trace if trace is not None else self.sim.current_context
        span: Optional[Span] = None
        if self.causal is not None:
            span = self.causal.start_span(
                f"hop:{kind}",
                at=self.sim.now,
                site=src,
                parent=ctx,
                dst=dst,
                category=MessageKind.category(kind),
            )
            ctx = span.context
        if self.faults is None:
            env = Envelope(src, dst, kind, payload, None, ctx)
            self._track(env)
            self.sim.schedule_after(
                self.latency, partial(self._deliver, env, span), label, ctx
            )
            return
        msg_id = self.fresh_id()
        edge = (src, dst, kind)
        seq = self._edge_seq.get(edge, 0) + 1
        self._edge_seq[edge] = seq
        env = Envelope(
            src,
            dst,
            kind,
            payload,
            msg_id=msg_id,
            trace=ctx,
            fault_key=(_edge_hash(src, dst, kind), seq),
        )
        if shake_mod.DETECTOR is not None:
            shake_mod.note_write("transport", "_pending", msg_id)
        self._pending[msg_id] = _PendingSend(env, on_failed, span)
        self._track(env)
        self._transmit(self._pending[msg_id])

    def _track(self, env: Envelope) -> None:
        self._in_flight += 1
        self._in_flight_kinds[env.kind] += 1

    def _untrack(self, env: Envelope) -> None:
        self._in_flight -= 1
        self._in_flight_kinds[env.kind] -= 1

    # ------------------------------------------------- perfect-network path

    def _deliver(self, env: Envelope, span: Optional[Span] = None) -> None:
        self._untrack(env)
        if span is not None:
            span.finish(self.sim.now, status="delivered")
        self._handlers[env.dst](env)

    # --------------------------------------------------- reliable-mode path

    def _causal_event(self, span: Optional[Span], name: str, **annotations: object) -> None:
        """Record an instant child event under a hop span (no-op when causal
        tracing is off — ``span`` is only ever created with a tracer)."""
        if span is not None and self.causal is not None:
            self.causal.event(
                name, at=self.sim.now, parent=span.context, site=span.site, **annotations
            )

    def _transmit(self, pending: _PendingSend) -> None:
        """One physical transmission attempt: roll faults, schedule copies
        and the ack-timeout guard for this attempt."""
        env = pending.env
        plan = self.faults
        assert plan is not None  # reliable mode only
        assert env.fault_key is not None
        pending.attempts += 1
        base = env.fault_key + (pending.attempts,)
        copies = 1
        if plan.roll_drop(key=base + (_ROLL_DROP,)):
            copies = 0
            self.dropped += 1
            self._causal_event(pending.span, "drop", attempt=pending.attempts)
            if obs.ENABLED:
                obs.counter("transport.dropped", reason="drop").inc()
        elif plan.roll_duplicate(key=base + (_ROLL_DUPLICATE,)):
            copies = 2
            self.duplicated += 1
            self._causal_event(pending.span, "duplicate", attempt=pending.attempts)
            if obs.ENABLED:
                obs.counter("transport.duplicated").inc()
        for copy_idx in range(copies):
            extra = plan.roll_jitter(key=base + (_ROLL_JITTER, copy_idx))
            if extra > 0:
                self._causal_event(pending.span, "jitter", extra=round(extra, 6))
            self.sim.schedule_after(
                self.latency + extra,
                lambda: self._deliver_reliable(env),
                label=_DELIVER_LABELS[env.kind],
                ctx=env.trace,
            )
        timeout = self.retry_timeout * (2 ** (pending.attempts - 1))
        guarded_attempts = pending.attempts
        msg_id = env.msg_id
        assert msg_id is not None
        self.sim.schedule_after(
            timeout,
            lambda: self._on_timeout(msg_id, guarded_attempts),
            label=f"transport.timeout:{env.kind}",
        )

    def _deliver_reliable(self, env: Envelope) -> None:
        plan = self.faults
        assert plan is not None and env.msg_id is not None
        if shake_mod.DETECTOR is not None:
            shake_mod.note_read("transport", "_pending", env.msg_id)
        pending = self._pending.get(env.msg_id)
        span = pending.span if pending is not None else None
        if plan.is_crashed(env.dst, self.sim.now):
            self.dropped += 1
            self._causal_event(span, "crash", crashed=env.dst)
            if obs.ENABLED:
                obs.counter("transport.dropped", reason="crash").inc()
            return
        seen = self._seen.setdefault(env.dst, set())
        if shake_mod.DETECTOR is not None:
            shake_mod.note_write("transport", f"_seen[{env.dst}]", env.msg_id)
        if env.msg_id in seen:
            # Duplicate or retransmitted copy: never re-dispatch, but re-ack
            # so a lost ack cannot stall the sender forever.
            self.dedup_hits += 1
            if obs.ENABLED:
                obs.counter("transport.dedup_hits").inc()
            if span is not None:
                self._causal_event(span, "dedup")
            elif self.causal is not None and env.trace is not None:
                # The logical message was already acked (pending gone), so
                # the dedup of this late copy hangs off the envelope's own
                # hop context to stay inside the originating trace.
                self.causal.event(
                    "dedup", at=self.sim.now, parent=env.trace, site=env.dst
                )
            self._send_ack(env)
            return
        seen.add(env.msg_id)
        if pending is not None and pending.span is not None and not pending.span.finished:
            pending.span.finish(
                self.sim.now, status="delivered", attempts=pending.attempts
            )
        try:
            self._handlers[env.dst](env)
        finally:
            # Ack even when the handler raises: the delivery was consumed
            # (dedup marked it seen), so the sender must stop retransmitting
            # — otherwise counters and pending-ack state drift.
            self._send_ack(env)

    def _send_ack(self, env: Envelope) -> None:
        """Ack one delivered copy, dst -> src; acks ride the same faulty
        links (drop + jitter) but are never duplicated or retried."""
        plan = self.faults
        assert plan is not None and env.msg_id is not None
        assert env.fault_key is not None
        n = self._ack_seq.get(env.msg_id, 0) + 1
        self._ack_seq[env.msg_id] = n
        ack_key = env.fault_key + (n,)
        self.acks += 1
        if obs.ENABLED:
            obs.counter("transport.acks").inc()
        if plan.roll_drop(key=ack_key + (_ROLL_ACK_DROP,)):
            self.dropped += 1
            if self.causal is not None and env.trace is not None:
                self.causal.event(
                    "ack_drop", at=self.sim.now, parent=env.trace, site=env.dst
                )
            if obs.ENABLED:
                obs.counter("transport.dropped", reason="drop").inc()
            return
        msg_id = env.msg_id
        self.sim.schedule_after(
            self.latency + plan.roll_jitter(key=ack_key + (_ROLL_ACK_JITTER,)),
            lambda: self._ack_received(msg_id),
            label="transport.ack",
            ctx=env.trace,
        )

    def _ack_received(self, msg_id: int) -> None:
        if shake_mod.DETECTOR is not None:
            shake_mod.note_write("transport", "_pending", msg_id)
        pending = self._pending.pop(msg_id, None)
        if pending is None:
            return  # already acked (earlier copy) or already declared failed
        self._causal_event(pending.span, "ack")
        self._untrack(pending.env)

    def _on_timeout(self, msg_id: int, expected_attempts: int) -> None:
        if shake_mod.DETECTOR is not None:
            shake_mod.note_read("transport", "_pending", msg_id)
        pending = self._pending.get(msg_id)
        if pending is None or pending.attempts != expected_attempts:
            return  # acked meanwhile, or a newer transmission owns the timer
        env = pending.env
        if pending.attempts > self.max_retries:
            del self._pending[msg_id]
            self._untrack(env)
            self.failed += 1
            self._causal_event(pending.span, "give_up", attempts=pending.attempts)
            if pending.span is not None and not pending.span.finished:
                pending.span.finish(self.sim.now, status="failed")
            if obs.ENABLED:
                obs.counter("transport.failed").inc()
            if pending.on_failed is not None:
                pending.on_failed(env)
            return
        self.retries += 1
        if obs.ENABLED:
            obs.counter("transport.retries").inc()
        self._causal_event(pending.span, "retry", attempt=pending.attempts + 1)
        self._transmit(pending)

    # ---------------------------------------------------------------- drain

    @property
    def in_flight(self) -> int:
        """Logical messages sent but not yet delivered (perfect network) or
        not yet acked/failed (reliable mode)."""
        return self._in_flight

    def in_flight_kinds(self) -> Dict[str, int]:
        """Per-kind breakdown of :attr:`in_flight` (diagnostics); keys are
        sorted so reports are stable regardless of send order."""
        return {kind: self._in_flight_kinds[kind]
                for kind in sorted(self._in_flight_kinds)
                if self._in_flight_kinds[kind] > 0}

    def fault_counters(self) -> Dict[str, int]:
        """Snapshot of the reliability counters (all zero on a fault-free run)."""
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "retries": self.retries,
            "failed": self.failed,
            "dedup_hits": self.dedup_hits,
            "acks": self.acks,
        }

    def drain(self, max_steps: Optional[int] = None) -> None:
        """Step the simulator (in time order) until no envelopes are in flight.

        Events that happen to be scheduled before the last delivery — e.g.
        cascaded sends — run as part of the drain; callers interleaving other
        periodic tasks should keep per-hop latency below their task periods.

        ``max_steps`` (default :attr:`drain_max_steps`) bounds the number of
        simulator steps: two handlers that re-send on every delivery would
        otherwise loop forever.  Exceeding the budget raises
        :exc:`TransportDrainError` naming the in-flight message kinds.
        """
        budget = self.drain_max_steps if max_steps is None else max_steps
        if budget < 1:
            raise ValueError("max_steps must be positive")
        steps = 0
        while self._in_flight > 0:
            if steps >= budget:
                raise TransportDrainError(
                    f"drain exceeded {budget} step(s) with {self._in_flight} "
                    f"message(s) still in flight {self.in_flight_kinds()}; "
                    "likely a handler livelock (handlers re-sending on every "
                    "delivery) — pass a larger max_steps only if the traffic "
                    "is legitimate"
                )
            if not self.sim.step():
                break
            steps += 1

    def fresh_id(self) -> int:
        """Unique id for request/response correlation and reliable delivery."""
        return next(self._ids)
