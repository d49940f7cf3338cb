"""Query engine: plan-cached, batch-vectorized serving over one SWAT.

Every SWAT query is a compiled :class:`~repro.core.plan.QueryPlan`;
:meth:`Swat.answer <repro.core.swat.Swat.answer>` compiles one per call.
:class:`QueryEngine` amortizes the compile — the greedy cover search and the
index→position arithmetic — across queries:

* **Plan cache**: the cover structure for a fixed index set repeats every
  ``2^{L-1}`` arrivals, so plans are compiled once per ``(indices, phase)``
  and revalidated with a handful of integer comparisons.  A cache hit turns
  a query into pure NumPy gathers.  A cold (not yet warm) tree's cover is
  not a function of the phase, so its plans are compiled uncached.
* **Shared reconstructions**: gathers read ``SwatNode.reconstruct()``, whose
  memo is keyed by the node's ``version`` counter — each touched node is
  inverse-transformed at most once per refresh no matter how many queries
  (or engines) touch it between ticks.
* **Batched evaluation**: :meth:`answer_batch` groups queries by index set,
  materializes each group's estimate vector once, and reduces every query's
  inner product against that shared vector with the same
  ``np.dot(weights, est)`` as :meth:`Swat.answer`, so batch answers are
  **bit-identical** to sequential ``Swat.answer`` calls — enforced by
  ``tests/test_query_engine.py``.

Engines are cheap (a dict of plans); :class:`~repro.core.multi.StreamEnsemble`
keeps one per stream.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import causal as causal_mod
from ..obs import metrics as obs
from ..obs.causal import TraceContext
from .plan import QueryPlan, compile_plan
from .queries import InnerProductQuery
from .swat import QueryAnswer, Swat

__all__ = ["QueryEngine"]

#: Default plan-cache capacity.  One plan for 512 indices is ~10 KB of
#: int64 arrays; 512 plans bound the cache at a few MB even under hostile
#: query diversity.
DEFAULT_MAX_PLANS = 512


class QueryEngine:
    """Plan-cached query evaluation over one :class:`~repro.core.swat.Swat`.

    Parameters
    ----------
    tree:
        The summary to serve from.  The engine holds a reference, not a
        copy: interleaving ``tree.extend`` with engine queries is the
        intended usage, and plan/reconstruction invalidation keeps answers
        bit-identical to :meth:`Swat.answer` throughout.
    max_plans:
        Plan-cache capacity; least-recently-used plans are evicted beyond
        it.

    Attributes
    ----------
    hits / misses:
        Plan-cache counters (mirrored into ``query.plan_cache.{hit,miss}``
        when :mod:`repro.obs` is enabled).
    fallbacks:
        Plans compiled uncached because the tree was not yet warm.
    """

    def __init__(self, tree: Swat, max_plans: int = DEFAULT_MAX_PLANS) -> None:
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        self.tree = tree
        self.max_plans = int(max_plans)
        self._plans: "OrderedDict[Tuple[Hashable, int], QueryPlan]" = OrderedDict()
        # Warmth is monotonic (nodes never unfill), so one successful check
        # amortizes to an attribute read.
        self._warm = False
        # Identity + epoch of the tree the caches were built against; a
        # restore (epoch bump) or a tree swap restarts node version counters,
        # so every plan and the warmth gate must be dropped (see _sync_tree).
        self._seen_tree: Swat = tree
        self._seen_epoch: int = tree.epoch
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0
        self.causal = causal_mod.current_causal()

    # ------------------------------------------------------------- plan cache

    @property
    def plan_cache_size(self) -> int:
        return len(self._plans)

    @property
    def hit_rate(self) -> float:
        """Plan-cache hit fraction over the engine's lifetime (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every compiled plan (they recompile on demand)."""
        self._plans.clear()

    def _sync_tree(self) -> None:
        """Invalidate everything if the tree was restored or swapped.

        ``Swat.restore_state`` bumps :attr:`Swat.epoch` in place; assigning a
        new tree to :attr:`tree` changes identity.  Either way the new nodes
        restart their version counters, so plans compiled pre-restore (and
        the monotonic warmth gate — the restored tree may be cold) would
        serve stale data if kept.
        """
        tree = self.tree
        if tree is not self._seen_tree or tree.epoch != self._seen_epoch:
            self._seen_tree = tree
            self._seen_epoch = tree.epoch
            self._plans.clear()
            self._warm = False

    def _plan_for(
        self,
        shape_key: Hashable,
        indices: Sequence[int],
        parent: Optional[TraceContext] = None,
    ) -> QueryPlan:
        """Cached-or-compiled plan for ``indices``; compiled uncached (and
        counted in :attr:`fallbacks`) while the tree is cold.

        ``shape_key`` is any hashable that uniquely identifies the index
        sequence — the tuple itself for queries, ``(dtype, bytes)`` for
        integer ndarrays (tupling 512 numpy ints per call would dominate a
        cache hit).
        """
        tree = self.tree
        if not self._warm:
            if not tree.is_warm:
                self.fallbacks += 1
                return compile_plan(tree, indices)
            self._warm = True
        key = (shape_key, tree.phase)
        plan = self._plans.get(key)
        if plan is not None and plan.matches(tree):
            self._plans.move_to_end(key)
            self.hits += 1
            if obs.ENABLED:
                obs.counter("query.plan_cache.hit").inc()
            return plan
        _t0 = (
            time.perf_counter()
            if obs.ENABLED or self.causal is not None
            else None
        )
        plan = compile_plan(tree, indices)
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.max_plans:
            self._plans.popitem(last=False)
        self.misses += 1
        if obs.ENABLED and _t0 is not None:
            obs.counter("query.plan_cache.miss").inc()
            obs.histogram("query.plan_compile.latency").observe(
                time.perf_counter() - _t0
            )
        if self.causal is not None and _t0 is not None:
            self.causal.start_span(
                "engine.plan_compile", at=_t0, site="engine", parent=parent
            ).finish(time.perf_counter(), indices=len(indices), phase=plan.phase)
        return plan

    # -------------------------------------------------------------- evaluation

    def estimates(self, indices: Sequence[int]) -> np.ndarray:
        """Approximate values for window indices (plan-cached twin of
        :meth:`Swat.estimates`; duplicates fan out to every slot)."""
        self._sync_tree()
        key: Hashable
        if isinstance(indices, np.ndarray) and indices.dtype.kind in "iu":
            key = (indices.dtype.str, indices.tobytes())
        else:
            key = tuple(int(i) for i in indices)
        return self._plan_for(key, indices).evaluate(self.tree)

    def answer(self, query: InnerProductQuery) -> QueryAnswer:
        """Plan-cached twin of :meth:`Swat.answer` — bit-identical answers."""
        self._sync_tree()
        tree = self.tree
        plan = self._plan_for(query.indices, query.indices)
        if obs.ENABLED:
            obs.counter("swat.queries").inc()
        return QueryAnswer.from_plan(tree, plan, query.weights, plan.evaluate(tree))

    def answer_batch(
        self, queries: Iterable[InnerProductQuery]
    ) -> List[QueryAnswer]:
        """Answer many queries, amortizing plans and reconstructions.

        Queries are grouped by index set; each group's estimate vector is
        materialized once and every member reduces its inner product against
        it with :meth:`Swat.answer`'s own ``np.dot`` — answers are
        bit-identical to calling :meth:`answer` (and :meth:`Swat.answer`)
        sequentially.  ``QueryAnswer.estimates`` arrays are shared within a
        group; copy before mutating.
        """
        self._sync_tree()
        tree = self.tree
        batch = list(queries)
        _t0 = (
            time.perf_counter()
            if obs.ENABLED or self.causal is not None
            else None
        )
        root = (
            self.causal.start_span(
                "engine.answer_batch", at=_t0, site="engine", queries=len(batch)
            )
            if self.causal is not None and _t0 is not None
            else None
        )
        ctx = root.context if root is not None else None
        # Group by index set, preserving first-seen order; one plan + one
        # estimate vector per group no matter how many weightings ride on it.
        groups: "OrderedDict[Tuple[int, ...], List[int]]" = OrderedDict()
        for qi, query in enumerate(batch):
            groups.setdefault(query.indices, []).append(qi)
        answers_out: List[Optional[QueryAnswer]] = [None] * len(batch)
        _te = time.perf_counter() if self.causal is not None and _t0 is not None else None
        for indices, members in groups.items():
            plan = self._plan_for(indices, indices, parent=ctx)
            est = plan.evaluate(tree)
            nodes = plan.nodes_used(tree)
            for qi in members:
                answers_out[qi] = QueryAnswer.from_plan(
                    tree, plan, batch[qi].weights, est, nodes
                )
        if self.causal is not None and _te is not None:
            self.causal.start_span(
                "engine.evaluate", at=_te, site="engine", parent=ctx
            ).finish(time.perf_counter(), groups=len(groups))
        if obs.ENABLED:
            obs.counter("swat.queries").inc(len(batch))
        self._finish_batch(root, _t0, len(batch))
        # Every slot is filled: each query index lands in exactly one group.
        return [a for a in answers_out if a is not None]

    def _finish_batch(
        self,
        root: Optional[causal_mod.Span],
        t0: Optional[float],
        size: int,
    ) -> None:
        if obs.ENABLED and t0 is not None:
            obs.histogram("query.batch_size", buckets=obs.BATCH_BUCKETS).observe(size)
            obs.histogram("query.batch.latency").observe(time.perf_counter() - t0)
        if root is not None:
            root.finish(time.perf_counter())

    def __repr__(self) -> str:
        return (
            f"QueryEngine(tree={self.tree!r}, plans={len(self._plans)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
