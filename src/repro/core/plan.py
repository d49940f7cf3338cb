"""Compiled query plans: the one implementation of Figure 3(b)'s query.

Every SWAT answer is a plan.  :func:`compile_plan` asks
:func:`~repro.core.coverage.locate` which node and position answer each
query index and freezes the outcome as a :class:`QueryPlan`: which output
slots are served by the raw leaves ``d_0``/``d_1``, and for every cover node
the positions to gather from its reconstructed segment plus the output
slots they land in.  :meth:`QueryPlan.evaluate` is then pure gathers from
per-node reconstructions that are themselves memoized by
:attr:`~repro.core.node.SwatNode.version`.  :meth:`Swat.estimates
<repro.core.swat.Swat.estimates>` and :meth:`Swat.answer
<repro.core.swat.Swat.answer>` compile and evaluate on every call;
:class:`~repro.core.engine.QueryEngine` adds an LRU of plans.

Caching is sound because, for a *warm* tree that is not settling after a
:meth:`~repro.core.swat.Swat.reconfigure`, the cover is a pure function of
the tree's **phase** — the arrival clock modulo ``2^{L-1}`` (the refresh
period of the coarsest maintained level).  Level ``l``'s ``R`` node always
ends at the most recent multiple of ``2^l``, so every node's window-relative
segment, and therefore the ``(level, role)`` pairs the scan picks for a
fixed index set, repeats exactly every ``2^{L-1}`` arrivals.

Two layers of invalidation keep cached plans sound:

* **structure** — :meth:`QueryPlan.matches` re-checks, per referenced node,
  that the node is filled and sits at the window offset recorded at compile
  time.  At a recurring phase of a warm tree this always holds.  It cannot
  see an index that a refilled node has taken over since the compile,
  so the plans of a cold or settling tree, whose cover is not a function of
  the phase, are never cached.
* **contents** — the plan never caches values.  Reconstructions come from
  ``SwatNode.reconstruct()``, whose memo is keyed by the node's ``version``
  counter (bumped on every ``set_contents``/``copy_from``), so a refresh
  between two evaluations of the same plan is picked up automatically.

The Hypothesis suites check plans against the textbook per-index walk in
``tests/reference.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .coverage import locate
from .node import SwatNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (Swat imports plan)
    from .swat import Swat

__all__ = ["PlanStep", "QueryPlan", "compile_plan", "window_indices"]


class PlanStep:
    """One cover node's share of a compiled plan.

    ``(level, role)`` identify the node (roles shift but the *slot* a phase
    picks is stable); ``offset`` is the window index of the node's newest
    value at compile time (``now - end_time``), re-checked on reuse;
    ``positions`` index the node's oldest-first reconstruction; ``out``
    are the query-output slots those gathered values land in.
    """

    __slots__ = ("level", "role", "offset", "positions", "out")

    def __init__(
        self,
        level: int,
        role: str,
        offset: int,
        positions: np.ndarray,
        out: np.ndarray,
    ) -> None:
        self.level = level
        self.role = role
        self.offset = offset
        self.positions = positions
        self.out = out

    def __repr__(self) -> str:
        return (
            f"PlanStep({self.role}{self.level}, offset={self.offset}, "
            f"n={self.positions.size})"
        )


class QueryPlan:
    """A compiled cover for one index set at one tree phase.

    Attributes
    ----------
    indices:
        The window indices the plan answers, in query order (duplicates
        allowed — each occurrence has its own output slot).
    phase:
        The tree phase (``time mod 2^{L-1}``) the structure was compiled at.
    steps:
        Per-node gather/scatter instructions, in cover scan order.
    raw_out / raw_which:
        Output slots served exactly from the raw leaves, and which leaf
        (0 = ``d_0`` = newest, 1 = ``d_1``) serves each.
    n_extrapolated:
        How many indices a reduced-level tree answers by clamping (mirrors
        :attr:`~repro.core.coverage.Cover.extrapolated`).
    """

    __slots__ = ("indices", "phase", "steps", "raw_out", "raw_which", "n_extrapolated")

    def __init__(
        self,
        indices: Tuple[int, ...],
        phase: int,
        steps: Tuple[PlanStep, ...],
        raw_out: np.ndarray,
        raw_which: np.ndarray,
        n_extrapolated: int,
    ) -> None:
        self.indices = indices
        self.phase = phase
        self.steps = steps
        self.raw_out = raw_out
        self.raw_which = raw_which
        self.n_extrapolated = n_extrapolated

    def matches(self, tree: "Swat") -> bool:
        """Structure check: every referenced node is filled at the compiled
        window offset.  Content freshness is *not* checked here — that is
        the reconstruction memo's job (keyed by ``SwatNode.version``)."""
        now = tree.time
        for step in self.steps:
            node = tree.node(step.level, step.role)
            if node.coeffs is None or now - node.end_time != step.offset:
                return False
        return True

    def nodes_used(self, tree: "Swat") -> List[SwatNode]:
        """The live cover nodes, in scan order (for ``QueryAnswer`` diagnostics)."""
        return [tree.node(step.level, step.role) for step in self.steps]

    def evaluate(self, tree: "Swat") -> np.ndarray:
        """Estimates for the plan's indices — pure gathers, no cover work."""
        out = np.empty(len(self.indices), dtype=np.float64)
        if self.raw_out.size:
            # Window indices 0/1 are the raw leaves d_0 / d_1 of Figure 3(a).
            d0 = tree.raw_leaf(0)
            d1 = tree.raw_leaf(1) if tree.raw_leaf_count() > 1 else 0.0
            out[self.raw_out] = np.where(self.raw_which == 0, d0, d1)
        wavelet = tree.wavelet
        for step in self.steps:
            signal = tree.node(step.level, step.role).reconstruct(wavelet)
            out[step.out] = signal[step.positions]
        return out

    def error_bound(self, tree: "Swat", weights: np.ndarray) -> Optional[float]:
        """Certified bound on ``|true - weights . estimates|``, or None when
        the tree does not track deviations.

        Each cover node's ``deviation`` bounds every point error in its
        segment, so the bound is ``sum |w| * deviation`` over the cover
        slots (raw-leaf slots are exact).  It is infinite when any index was
        extrapolated or a cover node carries no deviation.
        """
        if not tree.track_deviation:
            return None
        if self.n_extrapolated:
            return float("inf")
        abs_w = np.abs(weights)
        bound = 0.0
        for step in self.steps:
            deviation = tree.node(step.level, step.role).deviation
            if deviation is None:
                return float("inf")
            bound += deviation * float(abs_w[step.out].sum())
        return bound

    def __repr__(self) -> str:
        return (
            f"QueryPlan(n_indices={len(self.indices)}, phase={self.phase}, "
            f"steps={len(self.steps)})"
        )


def window_indices(tree: "Swat", indices: Iterable[int]) -> np.ndarray:
    """``indices`` as an int64 array, checked to lie inside the tree's window."""
    if not isinstance(indices, np.ndarray):
        indices = list(indices)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    bad = idx[(idx < 0) | (idx >= tree.size)]
    if bad.size:
        raise IndexError(
            f"window indices {bad.tolist()} out of range [0, {tree.size - 1}] "
            f"(stream has seen {tree.time} values)"
        )
    return idx


def compile_plan(tree: "Swat", indices: Sequence[int]) -> QueryPlan:
    """Compile the plan for ``indices`` against the tree's current state.

    Indices below :meth:`~repro.core.swat.Swat.raw_leaf_count` are served
    by the raw leaves.  :func:`~repro.core.coverage.locate` places each
    distinct remaining index in a node and a segment position (clamped to
    the nearest segment end when a reduced or settling tree extrapolates),
    and that placement fans back out to every query slot that asked for it.
    """
    idx = window_indices(tree, indices)
    now = tree.time
    slots = np.arange(idx.size, dtype=np.int64)
    raw_mask = idx < tree.raw_leaf_count()
    steps: List[PlanStep] = []
    n_extrapolated = 0
    rest_slots = slots[~raw_mask]
    if rest_slots.size:
        uniq, inv = np.unique(idx[rest_slots], return_inverse=True)
        filled, node_of, position, extrapolated = locate(
            tree.nodes(), uniq, now, tree.may_extrapolate
        )
        occ_node = node_of[inv]
        occ_pos = position[inv]
        # Group the slots by node, in scan order (query order within a
        # node), so evaluation is one gather + scatter per node.
        order = np.argsort(occ_node, kind="stable")
        start = 0
        for node, count in zip(filled, np.bincount(occ_node, minlength=len(filled)).tolist()):
            if count:
                occ = order[start : start + count]
                steps.append(
                    PlanStep(
                        node.level,
                        node.role,
                        now - node.end_time,
                        occ_pos[occ],
                        rest_slots[occ],
                    )
                )
                start += count
        n_extrapolated = int(extrapolated.sum())
    return QueryPlan(
        tuple(idx.tolist()),
        tree.phase,
        tuple(steps),
        slots[raw_mask],
        idx[raw_mask],
        n_extrapolated,
    )
