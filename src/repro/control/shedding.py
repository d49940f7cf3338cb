"""Load shedding: ingest backpressure and query admission control.

Overload handling for a governed ensemble, in the same spirit as the
existing degraded-query machinery of the replication layer: when the system
cannot do full-fidelity work it does *predictable, cheaper* work instead of
falling behind.

* :class:`ArrivalQueue` — a bounded queue of synchronized ticks with a
  deterministic **drop-newest** overflow policy (the retained prefix of an
  offered block is always the same for the same offered sequence, so shed
  runs are replayable) and ``shed.*`` counters.
* :class:`QueryAdmission` — a per-phase query admission budget.  Over
  budget, queries either degrade to widened-interval answers
  (:func:`degraded_answer`) or raise :exc:`AdmissionError`, per
  configuration.
* :func:`degraded_answer` — answers a query from the coarsest available
  approximation only: every index is served by the tree's widest filled
  segment average, ``n_extrapolated`` marks all indices, and the error
  bound is infinite (no certificate).  Maximally cheap, never wrong about
  being imprecise.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.node import SwatNode
from ..core.queries import InnerProductQuery
from ..core.swat import QueryAnswer, Swat
from ..obs import metrics as obs

__all__ = ["AdmissionError", "ArrivalQueue", "QueryAdmission", "degraded_answer"]


class AdmissionError(RuntimeError):
    """A query batch was refused by admission control (no degradation)."""


class ArrivalQueue:
    """Bounded buffer of synchronized ticks with deterministic drop-newest.

    ``offer`` accepts up to the remaining capacity from the front of the
    offered block and *drops the tail* — newest-first shedding, so what the
    summaries eventually ingest is always a prefix of what arrived, in
    order.  ``drain`` hands back the pending column blocks for ingestion.
    Plain-int counters are always maintained; ``shed.*`` metrics are also
    published when the obs registry is enabled.
    """

    def __init__(self, capacity_ticks: int) -> None:
        if capacity_ticks < 1:
            raise ValueError("capacity_ticks must be >= 1")
        self.capacity_ticks = int(capacity_ticks)
        self._blocks: List[Dict[str, np.ndarray]] = []
        self._pending = 0
        self.ticks_offered = 0
        self.ticks_accepted = 0
        self.ticks_dropped = 0

    @property
    def pending(self) -> int:
        """Ticks currently queued and not yet drained."""
        return self._pending

    def offer(self, columns: Mapping[str, Sequence[float]]) -> int:
        """Enqueue a column block; returns how many ticks were accepted.

        The block must map every stream to an equal-length column (the same
        shape :meth:`StreamEnsemble.extend_columns` takes).  Ticks beyond
        the queue's free space are dropped and counted.
        """
        blocks = {
            name: np.asarray(col, dtype=np.float64).reshape(-1)
            for name, col in columns.items()
        }
        if not blocks:
            return 0
        lengths = {b.size for b in blocks.values()}
        if len(lengths) > 1:
            raise ValueError(
                "column lengths differ — synchronized streams need one value "
                "per tick for every stream"
            )
        n = lengths.pop()
        self.ticks_offered += n
        room = self.capacity_ticks - self._pending
        accepted = min(n, max(0, room))
        dropped = n - accepted
        if accepted:
            self._blocks.append({name: b[:accepted] for name, b in blocks.items()})
            self._pending += accepted
            self.ticks_accepted += accepted
        if dropped:
            self.ticks_dropped += dropped
        if obs.ENABLED:
            obs.counter("shed.ticks_offered").inc(n)
            if accepted:
                obs.counter("shed.ticks_accepted").inc(accepted)
            if dropped:
                obs.counter("shed.ticks_dropped").inc(dropped)
        return accepted

    def drain(self) -> List[Dict[str, np.ndarray]]:
        """Remove and return all pending column blocks, oldest first."""
        out, self._blocks = self._blocks, []
        self._pending = 0
        return out

    def __repr__(self) -> str:
        return (
            f"ArrivalQueue(pending={self._pending}/{self.capacity_ticks}, "
            f"dropped={self.ticks_dropped})"
        )


class QueryAdmission:
    """Per-phase query admission budget.

    At most ``max_queries_per_phase`` queries are served at full fidelity
    between two phase boundaries; the rest are shed.  ``degrade=True``
    (default) sheds by answering through :func:`degraded_answer`;
    ``degrade=False`` sheds by raising :exc:`AdmissionError` so the caller
    can retry after the next boundary.
    """

    def __init__(self, max_queries_per_phase: int, *, degrade: bool = True) -> None:
        if max_queries_per_phase < 1:
            raise ValueError("max_queries_per_phase must be >= 1")
        self.max_queries_per_phase = int(max_queries_per_phase)
        self.degrade = bool(degrade)
        self._used = 0
        self.queries_admitted = 0
        self.queries_shed = 0

    def on_phase(self) -> None:
        """Reset the per-phase budget (called at every phase boundary)."""
        self._used = 0

    def try_admit(self, n_queries: int) -> bool:
        """Admit a batch of ``n_queries`` if budget remains; count either way.

        Admission is all-or-nothing per batch so an ensemble serve never
        mixes full and degraded answers within one call.
        """
        if self._used + n_queries <= self.max_queries_per_phase:
            self._used += n_queries
            self.queries_admitted += n_queries
            if obs.ENABLED:
                obs.counter("shed.queries_admitted").inc(n_queries)
            return True
        self.queries_shed += n_queries
        if obs.ENABLED:
            obs.counter("shed.queries_shed").inc(n_queries)
        return False


def degraded_answer(tree: Swat, query: InnerProductQuery) -> QueryAnswer:
    """Widened-interval answer from the coarsest available approximation.

    Every query index is estimated by the segment average of the tree's
    coarsest filled node (falling back to the raw ring buffer, then 0.0 on
    a completely cold tree).  All indices are reported as extrapolated and
    the certified ``error_bound`` is infinite: the answer is honest about
    being a shed-path approximation.
    """
    avg = 0.0
    coarsest: Optional[SwatNode] = None
    for node in reversed(tree.nodes()):  # nodes() is level-ascending
        if node.is_filled:
            avg = node.average()
            coarsest = node
            break
    if coarsest is None and len(tree._buffer):
        avg = float(sum(tree._buffer) / len(tree._buffer))
    indices = list(query.indices)
    estimates = np.full(len(indices), avg, dtype=np.float64)
    weights = np.asarray(query.weights, dtype=np.float64)
    value = float(np.dot(weights, estimates))
    nodes_used: List[SwatNode] = [coarsest] if coarsest is not None else []
    return QueryAnswer(
        value,
        estimates,
        nodes_used,
        n_extrapolated=len(indices),
        error_bound=float("inf"),
    )
