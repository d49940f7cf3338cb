"""A small deterministic discrete-event simulator.

The paper's experiments run in "a discrete event simulator of an environment
with a single data stream" (Section 2.7) with periodic data arrivals (period
``T_d``) and query arrivals (period ``T_q``), and — for the replication study
— phase boundaries.  This simulator provides exactly that: a virtual clock, a
priority queue of timestamped callbacks, and deterministic FIFO ordering for
simultaneous events.

Causal tracing rides on the events: an event scheduled with a ``ctx`` runs
with that context as :attr:`Simulator.current_context`, so work it causes
attaches to the right span (see :mod:`repro.obs.causal`).

Determinism sanitizer hooks (see :mod:`repro.simulate.shake` and
``docs/static-analysis.md``, "Determinism sanitizer"):

* ``tiebreak`` — an optional seeded ``() -> float`` callable that replaces
  the constant secondary sort key of same-timestamp events, deterministically
  *permuting* their execution order.  Code whose outcome is independent of
  same-timestamp tie-breaking produces bit-identical results under any
  tiebreak; ``repro shake`` asserts exactly that.
* ``probe`` — an optional :class:`EventProbe` notified around every executed
  event with the event's id, its scheduling parent's id, the virtual fire
  time, and the label.  The runtime race detector uses this to attribute
  shared-state accesses to events and to excuse causally-ordered pairs.

Both default to ``None`` and cost one attribute check per event when unset.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Protocol, Tuple

from ..obs.causal import TraceContext

__all__ = ["EventProbe", "Simulator"]

Action = Callable[[], None]

# (due time, tie-break key, FIFO sequence / event id, action, probe label,
#  causal trace context, scheduling parent's event id)
_QueueEntry = Tuple[
    float, float, int, Action, Optional[str], Optional[TraceContext], Optional[int],
]


class EventProbe(Protocol):
    """Observer notified around every executed simulator event."""

    def begin_event(
        self, event_id: int, parent_id: Optional[int], when: float, label: str
    ) -> None:
        """The event is about to run; ``parent_id`` is the event during whose
        execution it was scheduled (``None`` for driver-scheduled events)."""
        ...

    def end_event(self) -> None:
        """The event's action returned (or raised)."""
        ...


def _label_of(action: Action) -> str:
    """Best-effort action label for probes (qualified name where available)."""
    return getattr(action, "__qualname__", None) or repr(action)


class Simulator:
    """Virtual-time event loop.

    Events scheduled for the same instant execute in scheduling order, which
    keeps runs reproducible.  Time is a float in seconds of virtual time.

    ``tiebreak``, when given, supplies a secondary sort key per scheduled
    event (drawn once at schedule time), deterministically permuting the
    order of same-timestamp events — the schedule-perturbation mode of
    ``repro shake``.  Distinct timestamps are never reordered.
    """

    def __init__(self, tiebreak: Optional[Callable[[], float]] = None) -> None:
        self._now = 0.0
        self._queue: List[_QueueEntry] = []
        self._counter = itertools.count()
        self._events_run = 0
        #: Optional race-detector hook; ``None`` disables event attribution.
        self.probe: Optional[EventProbe] = None
        self._tiebreak = tiebreak
        self._current_ctx: Optional[TraceContext] = None
        self._current_event: Optional[int] = None

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_run(self) -> int:
        """Number of events executed so far."""
        return self._events_run

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def current_context(self) -> Optional[TraceContext]:
        """Causal trace context of the event currently executing.

        Set for the duration of :meth:`step` when the event was scheduled
        with a ``ctx``; code running inside the action (e.g.
        :meth:`repro.network.transport.Transport.send`) reads it to attach
        child spans to the work that caused the event.  ``None`` between
        events and for context-free events.
        """
        return self._current_ctx

    @property
    def current_event(self) -> Optional[int]:
        """Id of the event currently executing (``None`` between events)."""
        return self._current_event

    def schedule_at(
        self,
        when: float,
        action: Action,
        label: Optional[str] = None,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """Schedule ``action`` at absolute virtual time ``when``.

        ``label`` names the event to the :attr:`probe`; it defaults to the
        action's qualified name.  ``ctx`` is the causal trace context the
        action runs under (exposed as :attr:`current_context` while it
        fires); ``None`` propagates nothing.
        """
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        tb = 0.0 if self._tiebreak is None else self._tiebreak()
        heapq.heappush(
            self._queue,
            (when, tb, next(self._counter), action, label, ctx, self._current_event),
        )

    def schedule_after(
        self,
        delay: float,
        action: Action,
        label: Optional[str] = None,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """Schedule ``action`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        # The entry schedule_at would push; a non-negative delay can never
        # land in the past, so its check is already satisfied.  Every
        # transport delivery comes through here.
        tb = 0.0 if self._tiebreak is None else self._tiebreak()
        heapq.heappush(
            self._queue,
            (self._now + delay, tb, next(self._counter), action, label, ctx,
             self._current_event),
        )

    def step(self) -> bool:
        """Execute the next event; return False if the queue is empty."""
        if not self._queue:
            return False
        when, _tb, seq, action, label, ctx, parent = heapq.heappop(self._queue)
        self._now = when
        self._events_run += 1
        self._current_ctx = ctx
        self._current_event = seq
        probe = self.probe
        if probe is None:
            try:
                action()
            finally:
                self._current_ctx = None
                self._current_event = None
            return True
        probe.begin_event(seq, parent, when, label or _label_of(action))
        try:
            action()
        finally:
            self._current_ctx = None
            self._current_event = None
            probe.end_event()
        return True

    def run_until(self, deadline: float) -> None:
        """Run events with timestamp <= ``deadline``; leave ``now == deadline``."""
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
        self._now = max(self._now, deadline)

    def run(self, max_events: Optional[int] = None) -> None:
        """Drain the event queue (optionally capped at ``max_events`` events)."""
        remaining = float("inf") if max_events is None else max_events
        while remaining > 0 and self.step():
            remaining -= 1
