"""Resource governor: one byte-budget plan, computed when it attaches.

Section 2.5 gives SWAT two space knobs, ``k`` coefficients per node and the
coarsest maintained level ``min_level``; Section 2.6 gives the error each
one costs.  The paper picks both once per experiment and never retunes them
while a stream runs.  :class:`ResourceGovernor` does the same for a
:class:`~repro.core.multi.StreamEnsemble` under a global byte budget: when
it attaches, :meth:`ResourceGovernor.plan` shrinks the streams until the sum
of their configured ceilings (:func:`~repro.control.accounting.config_nbytes`)
fits the budget.  A live tree never exceeds its ceiling, so from then on the
ledger stays within the budget at every arrival, with nothing left to
revisit.

:class:`ReplicaGovernor` applies a budget to the replication layer: a cap on
cached directory rows per client site, enforced by evicting the least-read
unpinned rows at phase end through the existing unsubscribe machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from .accounting import config_nbytes

if TYPE_CHECKING:  # avoid a runtime cycle: multi imports repro.control
    from ..core.multi import StreamEnsemble

__all__ = ["ResourceGovernor", "ReplicaGovernor"]

Shape = Tuple[int, int]


class ResourceGovernor:
    """Fits an ensemble's streams under a global byte budget, once.

    ``budget_bytes`` bounds the sum of the streams' configured ceilings;
    ``None`` plans no change.  Each tree's shape at attach time is its
    ceiling, and ``k = 1`` is the floor.
    :meth:`~repro.core.multi.StreamEnsemble.attach_governor` applies the
    plan.
    """

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        if budget_bytes is not None and budget_bytes < 1:
            raise ValueError("budget_bytes must be >= 1 (or None)")
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)

    def plan(self, ensemble: "StreamEnsemble") -> Dict[str, Shape]:
        """The ``(k, min_level)`` of every stream whose shape must change.

        Greedy and deterministic: while the ceilings exceed the budget, the
        stream with the largest ceiling (the name breaks ties) gives up one
        step.  It halves ``k`` down to 1, then raises ``min_level``, but
        only while that lowers its ceiling: the raw ring buffer holds
        ``2^(min_level+1)`` values, so past the ceiling's minimum a coarser
        tree costs more bytes, not fewer.  Raises :exc:`ValueError`, naming
        the floor, when every stream is at its floor and the ceilings still
        exceed the budget.  Changes nothing itself.
        """
        if self.budget_bytes is None:
            return {}
        window = ensemble.window_size
        n_levels = window.bit_length() - 1
        start = {n: (ensemble.tree(n).k, ensemble.tree(n).min_level) for n in ensemble.streams}
        shape = dict(start)
        ceiling = {n: config_nbytes(window, *s) for n, s in shape.items()}

        def degraded(name: str) -> Shape:
            """One step down from the stream's shape; the shape itself at its floor."""
            k, m = shape[name]
            if k > 1:
                return (k // 2, m)
            if m + 1 < n_levels and config_nbytes(window, 1, m + 1) < ceiling[name]:
                return (1, m + 1)
            return (k, m)

        while sum(ceiling.values()) > self.budget_bytes:
            steps = {n: degraded(n) for n in shape}
            victims = [n for n in shape if steps[n] != shape[n]]
            if not victims:
                raise ValueError(
                    f"budget of {self.budget_bytes} bytes is below the "
                    f"{sum(ceiling.values())}-byte floor of {len(shape)} "
                    f"stream(s) at window {window}"
                )
            victim = max(victims, key=lambda n: (ceiling[n], n))
            shape[victim] = steps[victim]
            ceiling[victim] = config_nbytes(window, *shape[victim])
        return {n: s for n, s in shape.items() if s != start[n]}


# ---------------------------------------------------------------- replication


class ReplicaGovernor:
    """Cache-row budget for replicated sites (:class:`AsyncSwatAsr`).

    Caps the number of cached directory rows a client site may hold.  At
    phase end — after the protocol's own client-contraction pass — the site
    evicts its least-useful unpinned rows (fewest ``local_reads``, directory
    order as the tie-break) through the ordinary unsubscribe path, so the
    parent's bookkeeping and any interior subscribers stay consistent and
    the site simply re-negotiates precision later if interest returns.
    Rows with subscribed children are pinned: evicting them would break the
    Section 3 precision chain.  ``governor=None`` on the ASR keeps today's
    behavior bit-identically.
    """

    def __init__(self, max_cached_rows: int) -> None:
        if max_cached_rows < 0:
            raise ValueError("max_cached_rows must be >= 0")
        self.max_cached_rows = int(max_cached_rows)
        self.rows_evicted = 0

    def select_evictions(
        self, rows: Sequence[Tuple[Any, int, bool]]
    ) -> List[Any]:
        """Segments to evict from one site's ``(segment, reads, pinned)`` rows.

        Deterministic: evicts the fewest-read unpinned rows first, breaking
        ties by the order the rows were given (the directory's segment
        order).  Never returns pinned rows, even if that leaves the site
        over budget.
        """
        over = len(rows) - self.max_cached_rows
        if over <= 0:
            return []
        candidates = [
            (reads, idx, seg)
            for idx, (seg, reads, pinned) in enumerate(rows)
            if not pinned
        ]
        candidates.sort(key=lambda c: (c[0], c[1]))
        return [seg for _reads, _idx, seg in candidates[:over]]
