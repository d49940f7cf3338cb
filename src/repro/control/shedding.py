"""Ingest backpressure: a bounded arrival queue that sheds load predictably.

When arrivals outrun ingestion, :class:`ArrivalQueue` keeps a prefix of
each offered block and drops the newest overflow ticks.  The retained prefix
is always the same for the same offered sequence, so shed runs are
replayable, and ``shed.*`` counters record what was dropped.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from ..obs import metrics as obs

__all__ = ["ArrivalQueue"]


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
