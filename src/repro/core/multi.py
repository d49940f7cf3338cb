"""Multiple streams: the Section 6 future-work direction.

"Our future work will explore possible variations of the proposed technique
in case of multiple streams.  We plan to develop efficient techniques to
find correlations over multiple data streams."

:class:`StreamEnsemble` maintains one SWAT per stream and estimates pairwise
Pearson correlation **from the summaries alone** (reconstructed windows), so
correlation monitoring costs ``O(k log N)`` memory per stream instead of
``O(N)``.

Serving goes through one lazily created
:class:`~repro.core.engine.QueryEngine` per stream (plan-cached reads):
:meth:`StreamEnsemble.answer_batch` serves the streams one after another in
name order.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..control.accounting import MemoryLedger
from ..control.shedding import ArrivalQueue
from ..obs import causal as causal_mod
from ..obs import metrics as obs
from .engine import QueryEngine
from .queries import InnerProductQuery
from .swat import QueryAnswer, Swat

if TYPE_CHECKING:
    from ..control.governor import ResourceGovernor

__all__ = ["StreamEnsemble"]


class StreamEnsemble:
    """A set of synchronized streams summarized by per-stream SWATs.

    Parameters
    ----------
    window_size:
        Sliding window size shared by all streams.
    k:
        Coefficients per node for each summary (more coefficients give
        sharper correlation estimates).
    serve_shards:
        Must be 1: serving is serial.
    """

    def __init__(self, window_size: int, k: int = 4, *, serve_shards: int = 1) -> None:
        # Kept only because perfbench/workloads.py constructs the ensemble
        # with serve_shards=1 and reports ens.serve_shards.
        if serve_shards != 1:
            raise ValueError("serve_shards must be 1: ensemble serving is serial")
        self.window_size = window_size
        self.k = k
        self.serve_shards = 1
        self._trees: Dict[str, Swat] = {}
        self._engines: Dict[str, QueryEngine] = {}
        self.causal = causal_mod.current_causal()
        # Resource-control plumbing (repro.control): the ledger tracks
        # per-stream summary bytes (refreshed on block ingest and at phase
        # boundaries — never per arrival); the queue stays None unless
        # attached, and a None value is free on the hot paths.
        self.ledger = MemoryLedger()
        self._arrival_queue: Optional[ArrivalQueue] = None
        self._ticks = 0

    # ------------------------------------------------------------ management

    def add_stream(self, name: str) -> Swat:
        """Register a new stream; returns its summary tree."""
        if name in self._trees:
            raise ValueError(f"stream {name!r} already registered")
        tree = Swat(self.window_size, k=self.k)
        self._trees[name] = tree
        self.ledger.set(name, tree.nbytes)
        return tree

    # ------------------------------------------------------ resource control

    def attach_governor(self, governor: "ResourceGovernor") -> Dict[str, Tuple[int, int]]:
        """Fit the streams under the governor's byte budget, once.

        The governor plans every stream's ``(k, min_level)`` before any
        tree is reconfigured, so a budget below the floor raises
        :exc:`ValueError` with every tree unchanged.  Attach before data
        arrives: a live tree never exceeds its configured ceiling, so the
        budget then holds at every arrival of the run and nothing is
        revisited at phase boundaries.  Returns the new shape of each
        stream the plan reconfigured.
        """
        changes = governor.plan(self)
        for name, (k, min_level) in changes.items():
            self._trees[name].reconfigure(k=k, min_level=min_level)
        self.refresh_ledger()
        return changes

    def attach_shedding(self, queue_capacity_ticks: int) -> None:
        """Enable load shedding through a bounded arrival queue.

        Producers then call :meth:`offer_columns` / :meth:`ingest_pending`
        instead of :meth:`extend_columns`; overflow ticks are dropped
        deterministically (newest first) and counted under ``shed.*``.
        """
        self._arrival_queue = ArrivalQueue(queue_capacity_ticks)

    @property
    def arrival_queue(self) -> Optional[ArrivalQueue]:
        """The bounded ingest queue, when shedding is attached."""
        return self._arrival_queue

    @property
    def ticks(self) -> int:
        """Synchronized ticks ingested so far (the ensemble arrival clock)."""
        return self._ticks

    def refresh_ledger(self) -> None:
        """Re-read every stream's exact byte count into the ledger.

        One walk per stream — called at phase boundaries and after the
        governor's plan, never per arrival.
        """
        for name, tree in self._trees.items():
            self.ledger.set(name, tree.nbytes)

    def offer_columns(self, columns: Mapping[str, Sequence[float]]) -> int:
        """Offer a column block to the bounded arrival queue (shedding mode).

        Returns how many ticks were accepted; the rest were shed.  Call
        :meth:`ingest_pending` to drain accepted ticks into the summaries.
        """
        if self._arrival_queue is None:
            raise RuntimeError(
                "no arrival queue attached (use attach_shedding(queue_capacity_ticks=...))"
            )
        missing = set(self._trees) - set(columns)
        if missing:
            raise ValueError(f"missing values for streams {sorted(missing)}")
        unknown = set(columns) - set(self._trees)
        if unknown:
            raise KeyError(f"unknown streams {sorted(unknown)}")
        return self._arrival_queue.offer(columns)

    def ingest_pending(self) -> int:
        """Drain the arrival queue into the summaries; returns ticks ingested."""
        if self._arrival_queue is None:
            return 0
        total = 0
        for block in self._arrival_queue.drain():
            if not block:
                continue
            n = int(next(iter(block.values())).size)
            self.extend_columns(block)
            total += n
        return total

    def _after_ingest(self, before: int, after: int) -> None:
        """Refresh the ledger and stream gauges when the ingest crossed a
        phase boundary (every N/2 ticks)."""
        half = self.window_size >> 1
        if half > 0 and (after // half) != (before // half):
            self.refresh_ledger()
            self._publish_stream_gauges()

    def _publish_stream_gauges(self) -> None:
        """Per-stream shape/size gauges for ``repro stats`` (phase-boundary)."""
        if obs.ENABLED:
            for name, tree in self._trees.items():
                obs.gauge("ensemble.stream.nbytes", stream=name).set(
                    float(self.ledger.get(name))
                )
                obs.gauge("ensemble.stream.k", stream=name).set(float(tree.k))
                obs.gauge("ensemble.stream.min_level", stream=name).set(
                    float(tree.min_level)
                )

    @property
    def streams(self) -> List[str]:
        return sorted(self._trees)

    def tree(self, name: str) -> Swat:
        return self._trees[name]

    def __len__(self) -> int:
        return len(self._trees)

    @property
    def memory_coefficients(self) -> int:
        """Total coefficients across all summaries."""
        return sum(t.memory_coefficients for t in self._trees.values())

    # --------------------------------------------------------------- updates

    def update(self, values: Mapping[str, float]) -> None:
        """Ingest one synchronized tick: ``{stream_name: value}``.

        Every registered stream must receive a value each tick so windows
        stay aligned (correlation needs index-aligned reconstructions).
        """
        missing = set(self._trees) - set(values)
        if missing:
            raise ValueError(f"missing values for streams {sorted(missing)}")
        unknown = set(values) - set(self._trees)
        if unknown:
            raise KeyError(f"unknown streams {sorted(unknown)}")
        for name, value in values.items():
            self._trees[name].update(float(value))
        self._ticks += 1
        self._after_ingest(self._ticks - 1, self._ticks)

    def extend_columns(self, columns: Mapping[str, Sequence[float]]) -> None:
        """Ingest a block of synchronized ticks given column-wise.

        ``columns`` maps every registered stream to an equal-length block of
        values (tick ``i`` of each block is one synchronized row).  The trees
        are independent, so each column goes straight through the batched
        :meth:`Swat.extend` — the natural layout for bulk replay from
        columnar sources.
        """
        missing = set(self._trees) - set(columns)
        if missing:
            raise ValueError(f"missing values for streams {sorted(missing)}")
        unknown = set(columns) - set(self._trees)
        if unknown:
            raise KeyError(f"unknown streams {sorted(unknown)}")
        blocks = {
            name: np.asarray(col, dtype=np.float64).reshape(-1)
            for name, col in columns.items()
        }
        lengths = {b.size for b in blocks.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"column lengths differ: {sorted(len(blocks[n]) for n in sorted(blocks))} "
                "— synchronized streams need one value per tick for every stream"
            )
        n_ticks = int(next(iter(blocks.values())).size) if blocks else 0
        for name, block in blocks.items():
            tree = self._trees[name]
            tree.extend(block)
            self.ledger.set(name, tree.nbytes)
        before = self._ticks
        self._ticks += n_ticks
        self._after_ingest(before, self._ticks)

    # --------------------------------------------------------------- serving

    def engine(self, name: str) -> QueryEngine:
        """The stream's plan-cached query engine (created lazily)."""
        eng = self._engines.get(name)
        if eng is None:
            eng = QueryEngine(self._trees[name])
            self._engines[name] = eng
        return eng

    def answer_batch(
        self, queries_by_stream: Mapping[str, Sequence[InnerProductQuery]]
    ) -> Dict[str, List[QueryAnswer]]:
        """Answer per-stream query batches, in stream-name order.

        ``queries_by_stream`` maps stream names to their query lists; streams
        not mentioned are not served.  Within each stream the answers come
        from :meth:`QueryEngine.answer_batch`, so they are bit-identical to
        sequential :meth:`Swat.answer` calls.
        """
        if not queries_by_stream:
            return {}
        names = sorted(queries_by_stream)
        unknown = set(names) - set(self._trees)
        if unknown:
            raise KeyError(f"unknown streams {sorted(unknown)}")
        total = sum(len(queries_by_stream[n]) for n in names)
        root = (
            self.causal.start_span(
                "ensemble.answer_batch",
                at=time.perf_counter(),
                site="ensemble",
                streams=len(names),
                queries=total,
            )
            if self.causal is not None
            else None
        )
        results = {n: self.engine(n).answer_batch(queries_by_stream[n]) for n in names}
        if obs.ENABLED:
            obs.histogram(
                "ensemble.batch_size", buckets=obs.BATCH_BUCKETS
            ).observe(total)
        if root is not None:
            root.finish(time.perf_counter())
        return results

    # ----------------------------------------------------------- correlation

    def correlation(self, a: str, b: str, length: Optional[int] = None) -> float:
        """Pearson correlation of streams ``a`` and ``b`` from their summaries.

        ``length`` restricts the estimate to the most recent ``length``
        indices (defaults to the full window) — recent correlation is exactly
        the recency-biased question the summaries are good at.
        """
        ta, tb = self._trees[a], self._trees[b]
        n = min(ta.size, tb.size)
        if length is not None:
            if length < 2:
                raise ValueError("length must be >= 2")
            n = min(n, length)
        if n < 2:
            raise ValueError("not enough data for a correlation estimate")
        idx = list(range(n))
        # Engine estimates are bit-identical to tree.estimates and plan-cache
        # the fixed prefix shape across correlation_matrix's O(S^2) pairs.
        xa = self.engine(a).estimates(idx)
        xb = self.engine(b).estimates(idx)
        sa, sb = xa.std(), xb.std()
        # Reconstruction of a constant stream carries ~1e-15 float noise;
        # treat (relatively) negligible variance as "no signal".
        if sa <= 1e-9 * (1.0 + abs(float(xa.mean()))) or sb <= 1e-9 * (
            1.0 + abs(float(xb.mean()))
        ):
            return 0.0
        return float(np.corrcoef(xa, xb)[0, 1])

    def correlation_matrix(self, length: Optional[int] = None) -> Tuple[List[str], np.ndarray]:
        """All pairwise correlations; returns (names, matrix)."""
        names = self.streams
        m = np.eye(len(names))
        for i, a in enumerate(names):
            for j in range(i + 1, len(names)):
                m[i, j] = m[j, i] = self.correlation(a, names[j], length=length)
        return names, m

    def most_correlated(self, name: str, length: Optional[int] = None) -> Tuple[str, float]:
        """The stream most correlated with ``name`` (absolute value)."""
        others = [s for s in self.streams if s != name]
        if not others:
            raise ValueError("need at least two streams")
        best = max(others, key=lambda o: abs(self.correlation(name, o, length=length)))
        return best, self.correlation(name, best, length=length)
