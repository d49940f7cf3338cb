"""SWAT — Stream summarization using a Wavelet-based Approximation Tree.

This is the paper's primary contribution (Section 2).  A :class:`Swat` over a
sliding window of ``N = 2^n`` values keeps ``n`` levels of approximations;
level ``l`` has up to three nodes (*Right*, *Shift*, *Left*) of ``k`` wavelet
coefficients each, except the topmost level which needs only *Right* — giving
the paper's ``3 log N - 2`` node count.  Level ``l`` refreshes every ``2^l``
arrivals by the shift pipeline of Figure 3(a)::

    contents(L_l) := contents(S_l)
    contents(S_l) := contents(R_l)
    contents(R_l) := DWT(R_{l-1}, L_{l-1})

so the amortized per-arrival maintenance cost is ``O(k)`` and the space is
``O(k log N)``.

Usage::

    tree = Swat(window_size=256)
    for value in stream:
        tree.update(value)
    ans = tree.answer(exponential_query(length=16))
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import contracts
from ..obs import causal as causal_mod
from ..obs import metrics as obs
from ..wavelets.haar import (
    batch_combine_haar,
    batch_haar_decompose,
    batch_leaf_coeffs,
    combine_haar,
    haar_average,
    largest_coefficients,
    leaf_coeffs,
    sparse_combine,
)
from ..wavelets.transform import full_decompose, is_power_of_two, truncate
from .coverage import Cover, build_cover
from .errors import require_finite
from .node import Role, SwatNode
from .plan import QueryPlan, compile_plan, window_indices
from .queries import InnerProductQuery, RangeQuery

__all__ = ["Swat", "QueryAnswer", "extend_trees"]


class QueryAnswer:
    """Result of an inner-product query against a :class:`Swat`.

    Attributes
    ----------
    value:
        The approximate inner product.
    estimates:
        Per-query-index approximations, aligned with the query's ``indices``.
    nodes_used:
        The cover set ``V`` (for diagnostics / the paper's complexity claims).
    n_extrapolated:
        How many indices had to be answered by clamping to the nearest
        segment of a reduced-level tree (0 for a full tree).
    """

    __slots__ = ("value", "estimates", "nodes_used", "n_extrapolated", "error_bound")

    def __init__(
        self,
        value: float,
        estimates: np.ndarray,
        nodes_used: List[SwatNode],
        n_extrapolated: int,
        error_bound: Optional[float] = None,
    ) -> None:
        self.value = value
        self.estimates = estimates
        self.nodes_used = nodes_used
        self.n_extrapolated = n_extrapolated
        # Certified bound on |true - value| (only when the tree tracks
        # per-node deviations); None when not tracked.
        self.error_bound = error_bound

    @classmethod
    def from_plan(
        cls,
        tree: "Swat",
        plan: QueryPlan,
        weights: Sequence[float],
        est: np.ndarray,
        nodes: Optional[List[SwatNode]] = None,
    ) -> "QueryAnswer":
        """The answer ``plan`` gives for ``weights``, given its evaluated
        estimates ``est`` (and, optionally, its already-resolved nodes)."""
        w = np.asarray(weights, dtype=np.float64)
        return cls(
            float(np.dot(w, est)),
            est,
            plan.nodes_used(tree) if nodes is None else nodes,
            plan.n_extrapolated,
            plan.error_bound(tree, w),
        )

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"QueryAnswer(value={self.value!r}, nodes={len(self.nodes_used)})"


class Swat:
    """Multi-resolution sliding-window summary of a data stream.

    Parameters
    ----------
    window_size:
        Sliding window length ``N``; must be a power of two, at least 4.
    k:
        Wavelet coefficients retained per node (``k = 1`` keeps the segment
        average — the configuration of every experiment in the paper).
    wavelet:
        Basis name (see :func:`repro.wavelets.available_wavelets`).  Haar
        nodes combine in ``O(k)``; other bases use the generic
        reconstruct-and-retransform combine described in Section 2.2.
    min_level:
        Coarsest-resolution mode of Section 2.5: maintain only levels
        ``min_level .. log2(N) - 1``.  Queries about values newer than the
        coarsest maintained segment are answered by clamped extrapolation and
        carry correspondingly larger error.
    use_raw_leaves:
        The paper's Figure 3(a) footnote makes the raw values ``d_0`` and
        ``d_1`` part of the tree (as ``R_{-1}`` and ``L_{-1}``): they are
        required update state, so queries serve window indices 0 and 1 from
        them exactly.  This is what makes exponentially weighted queries over
        the most recent values so accurate in the paper's experiments.  Set
        False to answer purely from level >= 0 approximations (the
        illustrative cover of Section 2.4).  Ignored (off) when
        ``min_level > 0``, where the paper's reduced tree is the whole story.
    track_deviation:
        Maintain a certified per-node bound on max |true - reconstruction|
        (Section 3's "range denoting the maximum deviation").  Answers then
        carry an ``error_bound`` to compare with a query's precision
        requirement.  Defined for 1-coefficient Haar trees.
    selection:
        Which ``k`` coefficients a node retains: ``"first"`` (the coarsest
        ``k``, the paper's default reading) or ``"largest"`` (the top-``k``
        by magnitude — the classical Gilbert et al. choice; better on bursty
        data, needs position bookkeeping).  Haar only for ``"largest"``.
    check_invariants:
        Run :func:`repro.contracts.check_swat` after every update.  ``None``
        (the default) defers to the ``REPRO_CHECK_INVARIANTS`` environment
        switch; a disabled tree pays one attribute read per update.
    """

    def __init__(
        self,
        window_size: int,
        k: int = 1,
        wavelet: str = "haar",
        min_level: int = 0,
        use_raw_leaves: bool = True,
        track_deviation: bool = False,
        selection: str = "first",
        check_invariants: Optional[bool] = None,
    ) -> None:
        if not is_power_of_two(window_size) or window_size < 4:
            raise ValueError(f"window_size must be a power of two >= 4, got {window_size}")
        n_levels = int(math.log2(window_size))
        if not 0 <= min_level < n_levels:
            raise ValueError(f"min_level must be in [0, {n_levels - 1}], got {min_level}")
        if k < 1:
            raise ValueError("k must be >= 1")
        if track_deviation and (k != 1 or wavelet not in ("haar", "db1")):
            raise ValueError(
                "deviation tracking is defined for 1-coefficient Haar trees "
                "(the Section 3 setting)"
            )
        if selection not in ("first", "largest"):
            raise ValueError(f"selection must be 'first' or 'largest', got {selection!r}")
        if selection == "largest" and wavelet not in ("haar", "db1"):
            raise ValueError("largest-k selection is implemented for the Haar basis")
        if selection == "largest" and track_deviation:
            raise ValueError(
                "deviation tracking uses the first-k (k=1) layout; largest-k "
                "with k=1 is identical to it anyway"
            )
        self.selection = selection
        self.track_deviation = bool(track_deviation)
        self.window_size = window_size
        self.k = int(k)
        self.wavelet = wavelet
        self.min_level = int(min_level)
        # Remember what the caller asked for: a later reconfigure() back to
        # min_level == 0 restores raw-leaf serving.
        self._raw_leaves_requested = bool(use_raw_leaves)
        self.use_raw_leaves = self._raw_leaves_requested and min_level == 0
        self.n_levels = n_levels
        self._is_haar = wavelet in ("haar", "db1")
        self._check_invariants = contracts.resolve_check_flag(check_invariants)
        # Ambient causal tracer (None when tracing is off); maintenance and
        # query spans run on the perf_counter clock.
        self.causal = causal_mod.current_causal()
        self._time = 0
        # Restore epoch: bumped by restore_state so caches holding a
        # reference to this tree (compiled query plans, warmth gates) can
        # detect that the contents were swapped out beneath them.
        self.epoch = 0
        # Raw ring buffer feeding the coarsest maintained level; for
        # min_level == 0 it is just the last two values (the paper's
        # "R_{-1} and L_{-1} are data values d_0 and d_1").
        self._buffer: Deque[float] = deque(maxlen=1 << (min_level + 1))
        # levels[l] maps role -> node; the top level only has R.
        self._levels: List[Dict[str, SwatNode]] = []
        for level in range(n_levels):
            roles = (Role.RIGHT,) if level == n_levels - 1 else Role.SCAN_ORDER
            self._levels.append({role: SwatNode(level, role) for role in roles})
        # Live-reconfiguration state (:meth:`reconfigure`).  A tree is
        # *settling* from the moment a min_level change disturbs the shift
        # pipeline until every maintained node is back on the Figure 3(a)
        # refresh cadence; while settling, ingestion takes the scalar path
        # and queries may extrapolate across the not-yet-refilled levels.
        self._settling = False

    # ------------------------------------------------------------------ state

    @property
    def time(self) -> int:
        """Total number of arrivals observed."""
        return self._time

    @property
    def size(self) -> int:
        """Number of window indices currently valid (min(time, N))."""
        return min(self._time, self.window_size)

    @property
    def num_nodes(self) -> int:
        """Total node count: the paper's ``3 log N - 2``."""
        return sum(len(lv) for lv in self._levels[self.min_level :])

    @property
    def phase(self) -> int:
        """Arrival clock modulo the coarsest refresh period (``2^{L-1}``).

        For a warm tree that is not :attr:`settling`, every node's
        window-relative segment — and hence the cover structure of any fixed
        index set — is a pure function of this phase; compiled query plans
        (:mod:`repro.core.plan`) are keyed by it.  While the tree settles
        after a :meth:`reconfigure`, refilled levels can take indices over
        at any arrival, so the cover is not a function of the phase.
        """
        return self._time & ((self.window_size >> 1) - 1)

    @property
    def settling(self) -> bool:
        """True from a ``min_level`` :meth:`reconfigure` until every
        maintained node is back on the Figure 3(a) refresh cadence."""
        return self._settling

    @property
    def may_extrapolate(self) -> bool:
        """True when a query may clamp an index no filled segment holds to
        the nearest one: reduced trees always extrapolate below
        ``min_level``; a settling tree also extrapolates across the levels
        :meth:`reconfigure` emptied until the shift pipeline refills them."""
        return self.min_level > 0 or self._settling

    def raw_leaf_count(self) -> int:
        """Window indices servable exactly from the raw leaves ``d_0``/``d_1``."""
        if not self.use_raw_leaves:
            return 0
        return min(len(self._buffer), 2, self.size)

    def raw_leaf(self, which: int) -> float:
        """The raw leaf at window index ``which`` (0 = newest)."""
        return self._buffer[-1 - which]

    @property
    def memory_coefficients(self) -> int:
        """Stored coefficients across maintained, filled nodes (space metric)."""
        return sum(
            node.coeffs.size
            for lv in self._levels[self.min_level :]
            for node in lv.values()
            if node.coeffs is not None
        )

    @property
    def nbytes(self) -> int:
        """Exact array bytes held by the summary (analytic, no ``getsizeof``).

        Counts every maintained node's coefficient/position arrays plus the
        raw ring buffer (8 bytes per retained float): the state that scales
        with ``k`` and ``min_level``.  The ensemble's ledger sums it, and it
        never exceeds :func:`~repro.control.accounting.config_nbytes`, the
        ceiling the resource governor's budget plan is computed on.
        Container overheads (dicts, the node objects themselves) are
        configuration-independent bookkeeping and excluded.
        """
        total = 8 * len(self._buffer)
        for lv in self._levels[self.min_level :]:
            for node in lv.values():
                total += node.nbytes
        return total

    def node(self, level: int, role: str) -> SwatNode:
        """Access a node by level and role (``"R"``, ``"S"``, ``"L"``)."""
        return self._levels[level][role]

    def nodes(self) -> List[SwatNode]:
        """Maintained nodes in the paper's scan order (level asc, R, S, L)."""
        out: List[SwatNode] = []
        for level in range(self.min_level, self.n_levels):
            lv = self._levels[level]
            out.extend(lv[role] for role in Role.SCAN_ORDER if role in lv)
        return out

    @property
    def is_warm(self) -> bool:
        """True once every maintained node holds an approximation."""
        return all(node.is_filled for node in self.nodes())

    # ---------------------------------------------------------------- updates

    def update(self, value: float) -> None:
        """Ingest one stream value (the Update_Tree procedure of Figure 3(a))."""
        # Instrumentation (repro.obs) is guarded so a metrics-off process
        # pays only the module-attribute checks on this hot path.
        _t0 = (
            time.perf_counter()
            if obs.ENABLED or self.causal is not None
            else None
        )
        value = float(value)
        require_finite(value)
        self._time += 1
        t = self._time
        self._buffer.append(value)
        max_level = min(_trailing_zeros(t), self.n_levels - 1)
        for level in range(self.min_level, max_level + 1):
            lv = self._levels[level]
            if Role.SHIFT in lv:  # all but the top level
                lv[Role.LEFT].copy_from(lv[Role.SHIFT])
                lv[Role.SHIFT].copy_from(lv[Role.RIGHT])
            fresh = self._fresh_right(level, t)
            if fresh is not None:
                coeffs, deviation, positions = fresh
                lv[Role.RIGHT].set_contents(coeffs, t, deviation, positions)
        if self._settling and self._is_on_cadence():
            self._settling = False
        if self._check_invariants:
            contracts.check_swat(self)
        if obs.ENABLED and _t0 is not None:
            obs.counter("swat.arrivals").inc()
            shifted = max_level + 1 - self.min_level
            if shifted > 0:
                obs.counter("swat.levels_shifted").inc(shifted)
            obs.histogram("swat.maintenance.latency").observe(time.perf_counter() - _t0)
        if self.causal is not None and _t0 is not None:
            # In-process spans run on the perf_counter clock (never mixed
            # with virtual-time spans inside one trace).
            self.causal.start_span("swat.update", at=_t0, site="swat").finish(
                time.perf_counter(), levels=max_level + 1 - self.min_level
            )

    def extend(self, values: Iterable[float]) -> None:
        """Ingest many values in arrival order.

        This is :func:`extend_trees` with a group of one tree: the block is
        checked finite before the tree changes, then a Haar tree with
        first-``k`` selection takes the vectorized block cascade —
        ``O(B log N)`` NumPy work for a block of ``B`` arrivals,
        bit-identical to replaying :meth:`update` value by value.  Generic
        wavelets and largest-``k`` trees replay the block through
        :meth:`update`, as does a tree still settling after a
        :meth:`reconfigure` (the cascade's inter-block carry assumes an
        undisturbed shift pipeline).
        """
        if isinstance(values, np.ndarray):
            block = np.asarray(values, dtype=np.float64)
        else:
            block = np.asarray(list(values), dtype=np.float64)
        if block.ndim != 1:
            raise ValueError(
                f"extend expects a flat sequence of values, got shape {block.shape}"
            )
        extend_trees((self,), block[np.newaxis])

    def _replay(self, values: np.ndarray) -> None:
        """Scalar Update_Tree over an already validated block (the
        :func:`extend_trees` path for trees the cascade cannot take)."""
        for v in values.tolist():
            self.update(v)

    def _carry_contents(
        self, level: int, end_time: int
    ) -> Tuple[np.ndarray, Optional[float]]:
        """Coefficients and deviation of the pre-block ``level`` node whose
        segment ends at ``end_time``.

        The older half-segment of a block's first level-``l`` refresh
        predates the block by at most one level-``(l-1)`` shift period, so
        it is sitting in the level below's ``R`` or ``S`` node (matched by
        ``end_time``; ``L`` is checked only for defensiveness).
        """
        for node in self._levels[level].values():  # R, S, L
            coeffs = node.coeffs
            if coeffs is not None and node.end_time == end_time:
                return coeffs, node.deviation
        raise AssertionError(
            f"no level-{level} node ends at t={end_time}; tree state is inconsistent"
        )

    def _fresh_right(
        self, level: int, t: int
    ) -> Optional[Tuple[np.ndarray, Optional[float], Optional[np.ndarray]]]:
        """New contents of ``R_level``: ``(coeffs, deviation, positions)``.

        ``deviation`` is a certified bound on max |true - reconstruction|
        over the node's segment when ``track_deviation`` is on, else None;
        ``positions`` carries the retained flat positions for largest-k
        trees, else None.
        """
        if level == self.min_level:
            seg_len = 1 << (level + 1)
            if len(self._buffer) < seg_len:
                return None  # cold start: segment not fully observed yet
            if level == 0 and self._is_haar and self.selection == "first":
                # Hot path: level 0 refreshes on *every* arrival; avoid the
                # generic transform machinery for its two-point segment.
                newer, older = self._buffer[-1], self._buffer[-2]
                deviation = abs(newer - older) / 2.0 if self.track_deviation else None
                return leaf_coeffs(newer, older, self.k), deviation, None
            segment = np.fromiter(self._buffer, dtype=np.float64, count=seg_len)
            flat = full_decompose(segment, self.wavelet)
            deviation = None
            if self.track_deviation:
                deviation = float(np.abs(segment - segment.mean()).max())
            if self.selection == "largest":
                positions, coeffs = largest_coefficients(flat, self.k)
                return coeffs, deviation, positions
            return truncate(flat, self.k), deviation, None
        below = self._levels[level - 1]
        older, newer = below[Role.LEFT], below[Role.RIGHT]
        older_coeffs, newer_coeffs = older.coeffs, newer.coeffs
        if older_coeffs is None or newer_coeffs is None:
            return None
        if newer.end_time != t or older.end_time != t - (1 << level):
            # The children are not the two adjacent half-segments ending at
            # ``t``.  In undisturbed operation the shift cadence makes this
            # impossible once both children are filled; it arises only while
            # the tree settles after reconfigure() left lower levels stale.
            # Combining here would stamp old contents with a fresh end_time,
            # so skip the refresh until the children re-align.
            return None
        if self.selection == "largest":
            positions, coeffs = sparse_combine(
                older.positions, older_coeffs, newer.positions, newer_coeffs, self.k
            )
            return coeffs, None, positions
        if self._is_haar:
            coeffs = combine_haar(older_coeffs, newer_coeffs, self.k)
            seg_len = 1 << (level + 1)
            if coeffs.size > seg_len:
                # combine_haar zero-pads its output to k, but a segment of
                # 2^{l+1} values has only that many Haar coefficients — the
                # tail is identically zero.  Capping keeps reconstructions
                # bit-identical and the per-node footprint exactly
                # min(k, 2^{l+1}), which accounting.config_nbytes relies on.
                coeffs = coeffs[:seg_len].copy()
            deviation = None
            if self.track_deviation:
                # Sound k=1 bound: a point errs by at most its child's
                # deviation plus the child-vs-parent mean shift.
                assert older.deviation is not None and newer.deviation is not None
                parent_avg = haar_average(coeffs, 1 << (level + 1))
                deviation = max(
                    older.deviation + abs(older.average() - parent_avg),
                    newer.deviation + abs(newer.average() - parent_avg),
                )
            return coeffs, deviation, None
        joined = np.concatenate([older.reconstruct(self.wavelet), newer.reconstruct(self.wavelet)])
        return truncate(full_decompose(joined, self.wavelet), self.k), None, None

    # -------------------------------------------------------- reconfiguration

    def reconfigure(
        self, *, k: Optional[int] = None, min_level: Optional[int] = None
    ) -> bool:
        """Resize the summary in place: the Section 2.5/2.6 knobs, live.

        ``k`` truncates (or allows future growth of) every node's coefficient
        vector; ``min_level`` switches between the full and reduced-level
        trees.  Returns True when anything actually changed.  The resource
        governor (:mod:`repro.control`) calls it once, when it attaches,
        normally before any data; it is safe at any arrival.

        Semantics:

        * Lowering ``k`` truncates each filled node to its first ``k``
          coefficients.  First-``k`` prefixes are exact, so the resulting
          state is *identical* to a tree that ran with the smaller ``k`` all
          along; no settling is needed, and answers shrink in accuracy
          exactly as Section 2.6 predicts.
        * Raising ``k`` changes future refreshes only; existing nodes keep
          their shorter vectors (always a legal state — combine zero-pads)
          and grow as the shift pipeline refreshes them.
        * Changing ``min_level`` empties the levels below the new coarsest
          level (raising) or starts maintaining them from scratch (lowering)
          and re-seeds the raw ring buffer from the retained tail.  The tree
          then *settles*: ingestion takes the scalar path, upper levels skip
          refreshes whose children are still stale (see
          :meth:`_fresh_right`), queries may extrapolate across the
          disturbed levels, and :func:`repro.contracts.check_swat` excuses
          the refresh cadence — until every maintained node is back on
          cadence (a few window-halves of arrivals at most).

        Bumps :attr:`epoch` on any change so compiled query plans and warmth
        gates can never serve the resized tree from stale caches.
        """
        changed = False
        if k is not None:
            new_k = int(k)
            if new_k < 1:
                raise ValueError("k must be >= 1")
            if self.track_deviation and new_k != 1:
                raise ValueError(
                    "deviation tracking is defined for k=1 trees; cannot "
                    f"reconfigure to k={new_k}"
                )
            if new_k != self.k:
                if new_k < self.k and self.selection == "largest":
                    raise ValueError(
                        "cannot truncate a largest-k tree: retained "
                        "coefficients are not prefix-nested"
                    )
                if new_k < self.k:
                    for lv in self._levels:
                        for node in lv.values():
                            coeffs = node.coeffs
                            if coeffs is not None and coeffs.size > new_k:
                                node.set_contents(
                                    coeffs[:new_k].copy(),
                                    node.end_time,
                                    node.deviation,
                                    None,
                                )
                self.k = new_k
                changed = True
        if min_level is not None:
            new_m = int(min_level)
            if not 0 <= new_m < self.n_levels:
                raise ValueError(
                    f"min_level must be in [0, {self.n_levels - 1}], got {new_m}"
                )
            if new_m != self.min_level:
                old_m = self.min_level
                if new_m > old_m:
                    # The abandoned fine levels are no longer maintained;
                    # empty them so nothing stale can ever resurface if a
                    # later reconfigure lowers min_level again.
                    for level in range(old_m, new_m):
                        self._levels[level] = {
                            role: SwatNode(level, role) for role in Role.SCAN_ORDER
                        }
                self.min_level = new_m
                self.use_raw_leaves = self._raw_leaves_requested and new_m == 0
                # Re-seed the ring buffer feeding the new coarsest level from
                # the retained raw tail (deque keeps the newest values).
                self._buffer = deque(self._buffer, maxlen=1 << (new_m + 1))
                if self._time > 0:
                    self._settling = True
                changed = True
        if changed:
            self.epoch += 1
            if self._check_invariants:
                contracts.check_swat(self)
        return changed

    def _is_on_cadence(self) -> bool:
        """True when every maintained node is filled on the Figure 3(a) cadence.

        This is the settling-exit test after a :meth:`reconfigure`: a pure
        function of the tree state, so batch and scalar ingestion agree on
        when the flag clears.  It demands the full steady state (every
        maintained node filled at its exact refresh tick), which a fresh or
        disturbed tree reaches within ``2N`` arrivals.
        """
        if len(self._buffer) < (1 << (self.min_level + 1)):
            # An under-seeded ring buffer cannot sustain the coarsest level's
            # next refresh even if every node currently sits on cadence.
            return False
        t = self._time
        for level in range(self.min_level, self.n_levels):
            period = 1 << level
            refresh_tick = t - (t % period)
            for role, node in self._levels[level].items():
                lag = {"R": 0, "S": 1, "L": 2}[role]
                expected_end = refresh_tick - lag * period
                if node.coeffs is None or node.end_time != expected_end:
                    return False
        return True

    # ---------------------------------------------------------------- queries

    def cover(self, indices: Iterable[int]) -> Cover:
        """Cover set ``V`` for the given window indices (Figure 3(b), first loop)."""
        return build_cover(
            self.nodes(),
            window_indices(self, indices),
            self._time,
            allow_extrapolation=self.may_extrapolate,
        )

    def estimates(self, indices: Sequence[int]) -> np.ndarray:
        """Approximate values for the given window indices.

        Indices 0 and 1 are served exactly from the raw leaves ``R_{-1}`` and
        ``L_{-1}`` when ``use_raw_leaves`` is on; everything else comes from
        the cover set's inverse transforms (a compiled, uncached
        :class:`~repro.core.plan.QueryPlan`).
        """
        return compile_plan(self, indices).evaluate(self)

    def answer(self, query: InnerProductQuery) -> QueryAnswer:
        """Answer an inner-product (or point) query approximately.

        With ``track_deviation`` on, the result carries a certified
        ``error_bound`` to compare with the query's precision requirement.
        """
        _t0 = (
            time.perf_counter()
            if obs.ENABLED or self.causal is not None
            else None
        )
        plan = compile_plan(self, query.indices)
        answer = QueryAnswer.from_plan(self, plan, query.weights, plan.evaluate(self))
        if obs.ENABLED and _t0 is not None:
            obs.counter("swat.queries").inc()
            obs.histogram("swat.query.cover_size", buckets=obs.COUNT_BUCKETS).observe(
                len(answer.nodes_used)
            )
            if answer.n_extrapolated:
                obs.counter("swat.extrapolations").inc(answer.n_extrapolated)
            obs.histogram("swat.query.latency").observe(time.perf_counter() - _t0)
        if self.causal is not None and _t0 is not None:
            self.causal.start_span("swat.answer", at=_t0, site="swat").finish(
                time.perf_counter(), cover=len(answer.nodes_used)
            )
        return answer

    def answer_range(self, query: RangeQuery) -> List[Tuple[int, float]]:
        """Answer a range query (Section 2.4).

        Returns ``(index, approx_value)`` pairs for window indices in
        ``[t_start, t_end]`` whose approximation falls inside the query's
        value band.  The approximation tree induces a step function in
        time-value space; this returns the points on the intersection of that
        step function with the query rectangle.
        """
        hi = min(query.t_end, self.size - 1)
        if hi < query.t_start:
            return []
        indices = list(range(query.t_start, hi + 1))
        est = self.estimates(indices)
        return [(i, float(v)) for i, v in zip(indices, est) if query.matches(v)]

    def reconstruct_window(self) -> np.ndarray:
        """Approximation of the whole current window, newest-first."""
        if self.size == 0:
            return np.empty(0, dtype=np.float64)
        return self.estimates(list(range(self.size)))

    # ----------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Checkpoint the summary as a JSON-serializable dict.

        Captures everything :meth:`from_state` needs to resume the stream
        mid-flight: configuration, the arrival clock, the raw ring buffer,
        and each filled node's coefficients and end time.  Every float is
        finiteness-gated through :func:`~repro.core.errors.require_finite`
        on the way out: a ``NaN`` or ``Infinity`` that slipped into a node
        would otherwise serialize as the non-standard ``NaN``/``Infinity``
        JSON tokens and poison strict consumers, so the checkpoint fails
        loudly here instead (``json.dumps(state, allow_nan=False)`` is then
        always safe).
        """
        nodes: List[Dict[str, object]] = []
        for level, lv in enumerate(self._levels):
            for role, node in lv.items():
                coeffs = node.coeffs
                if coeffs is not None:
                    require_finite(coeffs, f"node {role}{level} coefficients")
                    if node.deviation is not None:
                        require_finite(
                            node.deviation, f"node {role}{level} deviation"
                        )
                    nodes.append(
                        {
                            "level": level,
                            "role": role,
                            "end_time": node.end_time,
                            "coeffs": [float(c) for c in coeffs],
                            "deviation": node.deviation,
                            "positions": (
                                None
                                if node.positions is None
                                else [int(p) for p in node.positions]
                            ),
                        }
                    )
        buffer = [float(v) for v in self._buffer]
        if buffer:
            require_finite(np.asarray(buffer, dtype=np.float64), "ring buffer")
        return {
            "window_size": self.window_size,
            "k": self.k,
            "wavelet": self.wavelet,
            "min_level": self.min_level,
            "use_raw_leaves": self.use_raw_leaves,
            "track_deviation": self.track_deviation,
            "selection": self.selection,
            "time": self._time,
            "buffer": buffer,
            "nodes": nodes,
        }

    @classmethod
    def from_state(
        cls, state: dict, *, check_invariants: Optional[bool] = None
    ) -> "Swat":
        """Restore a summary checkpointed by :meth:`to_state`.

        The state is validated before it is trusted: node levels must fall in
        the maintained range, coefficient vectors may not exceed ``k``,
        ``end_time`` may not sit in the future of the restored arrival clock,
        and every float must be finite.  When invariant checking is enabled
        (explicit argument or ``REPRO_CHECK_INVARIANTS``) the full
        :func:`repro.contracts.check_swat` contract runs on the result.  Any
        violation raises :exc:`ValueError` — a corrupt checkpoint must fail
        the restore, not quietly produce wrong answers later.
        """
        try:
            tree = cls(
                state["window_size"],
                k=state["k"],
                wavelet=state["wavelet"],
                min_level=state["min_level"],
                use_raw_leaves=state["use_raw_leaves"],
                track_deviation=state.get("track_deviation", False),
                selection=state.get("selection", "first"),
                check_invariants=check_invariants,
            )
            now = int(state["time"])
            if now < 0:
                raise _malformed(f"negative arrival clock {now}")
            tree._time = now
            buffer = [float(v) for v in state["buffer"]]
            maxlen = tree._buffer.maxlen
            assert maxlen is not None  # always set in __init__
            if len(buffer) > maxlen:
                raise _malformed(
                    f"buffer holds {len(buffer)} values, ring capacity is {maxlen}"
                )
            if buffer and not bool(
                np.isfinite(np.asarray(buffer, dtype=np.float64)).all()
            ):
                raise _malformed("ring buffer contains non-finite values")
            tree._buffer.extend(buffer)
            for entry in state["nodes"]:
                level = int(entry["level"])
                role = entry["role"]
                if not tree.min_level <= level < tree.n_levels:
                    raise _malformed(
                        f"node level {level} outside the maintained range "
                        f"[{tree.min_level}, {tree.n_levels - 1}]"
                    )
                lv = tree._levels[level]
                if role not in lv:
                    raise _malformed(f"level {level} keeps no role {role!r}")
                coeffs = np.asarray(entry["coeffs"], dtype=np.float64)
                if coeffs.ndim != 1 or not 1 <= coeffs.size <= tree.k:
                    raise _malformed(
                        f"node {role}{level} carries {coeffs.size} coefficients "
                        f"(k={tree.k})"
                    )
                if not bool(np.isfinite(coeffs).all()):
                    raise _malformed(
                        f"node {role}{level} coefficients are non-finite"
                    )
                end_time = int(entry["end_time"])
                if end_time > now:
                    raise _malformed(
                        f"node {role}{level} ends at t={end_time}, in the "
                        f"future of the arrival clock t={now}"
                    )
                deviation = entry.get("deviation")
                if deviation is not None:
                    deviation = float(deviation)
                    if not math.isfinite(deviation):
                        raise _malformed(
                            f"node {role}{level} deviation is non-finite"
                        )
                positions = entry.get("positions")
                pos_arr: Optional[np.ndarray] = None
                if positions is not None:
                    pos_arr = np.asarray(positions, dtype=np.int64)
                    if pos_arr.shape != coeffs.shape:
                        raise _malformed(
                            f"node {role}{level} has {pos_arr.size} positions "
                            f"for {coeffs.size} coefficients"
                        )
                lv[role].set_contents(coeffs, end_time, deviation, pos_arr)
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed Swat state: {exc}") from exc
        if tree._check_invariants:
            try:
                contracts.check_swat(tree)
            except contracts.InvariantViolation as exc:
                raise _malformed(str(exc)) from exc
        return tree

    def restore_state(self, state: dict) -> None:
        """Swap this tree's contents for a checkpointed state, in place.

        Equivalent to :meth:`from_state` — including all of its validation —
        but preserves object identity so live references (replication sites,
        a :class:`~repro.core.engine.QueryEngine`) follow the restore.  Bumps
        :attr:`epoch`; caches keyed on the pre-restore node versions must
        treat the whole tree as new, because the fresh nodes restart their
        version counters.  The checkpoint must describe the same
        configuration this tree was built with.
        """
        tree = Swat.from_state(state, check_invariants=self._check_invariants)
        for attr in (
            "window_size",
            "k",
            "wavelet",
            "min_level",
            "use_raw_leaves",
            "track_deviation",
            "selection",
        ):
            if getattr(tree, attr) != getattr(self, attr):
                raise _malformed(
                    f"{attr}={getattr(tree, attr)!r} does not match the live "
                    f"tree's {getattr(self, attr)!r}"
                )
        self._time = tree._time
        self._buffer = tree._buffer
        self._levels = tree._levels
        self.epoch += 1

    def __repr__(self) -> str:
        return (
            f"Swat(N={self.window_size}, k={self.k}, wavelet={self.wavelet!r}, "
            f"levels={self.min_level}..{self.n_levels - 1}, t={self._time})"
        )


def _malformed(detail: str) -> ValueError:
    """A checkpoint-state validation failure (uniform, test-matched prefix)."""
    return ValueError(f"malformed Swat state: {detail}")


def _trailing_zeros(t: int) -> int:
    """Number of trailing zero bits of ``t >= 1`` (the update ruler sequence)."""
    return (t & -t).bit_length() - 1


def extend_trees(trees: Sequence[Swat], block: np.ndarray) -> None:
    """Ingest row ``i`` of an ``(S, B)`` block into ``trees[i]``, for every ``i``.

    The whole block is checked finite before any tree changes.  Haar trees
    with first-``k`` selection that are not settling are grouped by shape:
    window size, ``k``, ``min_level``, deviation tracking, arrival clock
    and ring-buffer fill.  Each group takes one vectorized cascade
    (:func:`_cascade`), so every level's refresh outputs for all the
    group's trees come from one batch Haar call.  The other trees (generic
    wavelets, largest-``k``, a tree settling after
    :meth:`Swat.reconfigure`) replay their row through :meth:`Swat.update`.
    Either way every tree ends bit-identical to a value-by-value
    :meth:`Swat.update` replay of its row.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != len(trees):
        raise ValueError(
            f"extend_trees expects a ({len(trees)}, B) block, got shape {block.shape}"
        )
    if len({id(tree) for tree in trees}) != len(trees):
        raise ValueError("extend_trees got the same tree more than once")
    require_finite(block)
    if block.shape[1] == 0:
        return
    groups: Dict[Tuple[int, int, int, bool, int, int], List[int]] = {}
    for i, tree in enumerate(trees):
        if tree._is_haar and tree.selection == "first" and not tree._settling:
            key = (
                tree.window_size,
                tree.k,
                tree.min_level,
                tree.track_deviation,
                tree._time,
                len(tree._buffer),
            )
            groups.setdefault(key, []).append(i)
        else:
            tree._replay(block[i])
    for rows in groups.values():
        if len(rows) == len(trees):
            _cascade(trees, block)
        else:
            _cascade([trees[i] for i in rows], block[rows])


def _cascade(trees: Sequence[Swat], block: np.ndarray) -> None:
    """Vectorized Update_Tree over a ``(G, B)`` block for ``G`` same-shape trees.

    One streaming Haar cascade per block: level ``l``'s refresh outputs for
    every tree are computed with a single vectorized butterfly over the
    level below's outputs, as a ``(G, count, width)`` array, and only each
    tree's last three are materialized into its ``L/S/R``.  The first
    refresh's *older* child may predate the block; it is read from each
    tree's pre-block ``R`` or ``S`` node of the level below
    (:meth:`Swat._carry_contents`) — each tree is its own inter-block carry
    state, so blocks of any size compose exactly.  Every float operation
    mirrors the scalar path op for op, so each tree's resulting state is
    bit-identical to a scalar replay.  The trees must agree on everything
    :func:`extend_trees` groups by.
    """
    head = trees[0]
    causal = head.causal
    _t0 = time.perf_counter() if obs.ENABLED or causal is not None else None
    g, b = block.shape
    t0 = head._time
    tend = t0 + b
    m = head.min_level
    k = head.k
    seg = 1 << (m + 1)
    track = head.track_deviation
    # Raw history reachable by in-block level-m refreshes: each tree's ring
    # buffer then its block row.  concat[:, i] arrived at t0 - n_prev + 1 + i.
    n_prev = len(head._buffer)
    if n_prev:
        concat = np.empty((g, n_prev + b), dtype=np.float64)
        concat[:, :n_prev] = [tree._buffer for tree in trees]
        concat[:, n_prev:] = block
    else:
        concat = block
    # (level, first refresh time, (G, count, width) coeff rows, (G, count)
    # deviations); a level's refresh at time t produces contents iff
    # t >= 2^{level+1} (its full segment has been observed) — earlier
    # refreshes only shift empty nodes, a content no-op the cascade skips.
    # Refresh times at a level step by 2^level, so each level's children
    # are every other output of the level below: strided views, no copies.
    outputs: List[Tuple[int, int, np.ndarray, Optional[np.ndarray]]] = []
    first_t = max(seg, ((t0 >> m) + 1) << m)
    if first_t <= tend:
        count = ((tend - first_t) >> m) + 1
        devs: Optional[np.ndarray] = None
        if m == 0:
            lo = first_t - t0 + n_prev - 1  # column of the first newer value
            newer = concat[:, lo : lo + count]
            older = concat[:, lo - 1 : lo - 1 + count]
            rows = batch_leaf_coeffs(newer, older, k)
            if track:
                devs = np.abs(newer - older) / 2.0
        else:
            lo = first_t - seg - t0 + n_prev  # first column of the first segment
            stop = lo + ((count - 1) << m) + 1
            windows = np.lib.stride_tricks.sliding_window_view(concat, seg, axis=1)
            # One contiguous (G * count, seg) matrix, rows in the order the
            # scalar path decomposes them.
            segs = windows[:, lo : stop : 1 << m].reshape(g * count, seg)
            rows = batch_haar_decompose(segs)[:, : min(k, seg)].reshape(g, count, -1)
            if track:
                devs = np.abs(segs - segs.mean(axis=1, keepdims=True)).max(axis=1)
                devs = devs.reshape(g, count)
        outputs.append((m, first_t, rows, devs))
        for level in range(m + 1, head.n_levels):
            lstep = 1 << level
            first = max(lstep << 1, ((t0 >> level) + 1) << level)
            if first > tend:
                break  # first-refresh times only grow with the level
            count = ((tend - first) >> level) + 1
            _, prev_first, prev_rows, prev_devs = outputs[-1]
            # Output index (level below) of the first refresh's newer child;
            # its older child sits two outputs earlier.
            lo = (first - prev_first) >> (level - 1)
            newer_rows = prev_rows[:, lo : lo + 2 * count - 1 : 2]
            carry_t = first - lstep
            older_devs: Optional[np.ndarray] = None
            if carry_t > t0:
                older_rows = prev_rows[:, lo - 2 : lo + 2 * count - 3 : 2]
                if track:
                    assert prev_devs is not None
                    older_devs = prev_devs[:, lo - 2 : lo + 2 * count - 3 : 2]
            else:
                cols = prev_rows.shape[2]  # coefficients per child row
                older_rows = np.zeros((g, count, cols), dtype=np.float64)
                older_rows[:, 1:] = prev_rows[:, lo : lo + 2 * count - 3 : 2]
                if track:
                    assert prev_devs is not None
                    older_devs = np.empty((g, count), dtype=np.float64)
                    older_devs[:, 1:] = prev_devs[:, lo : lo + 2 * count - 3 : 2]
                carries = [tree._carry_contents(level - 1, carry_t) for tree in trees]
                if all(coeffs.size == cols for coeffs, _ in carries):
                    older_rows[:, 0] = [coeffs for coeffs, _ in carries]
                else:  # nodes refreshed before reconfigure() raised k
                    for i, (coeffs, _) in enumerate(carries):
                        older_rows[i, 0, : min(coeffs.size, cols)] = coeffs[:cols]
                if older_devs is not None:
                    older_devs[:, 0] = [deviation for _, deviation in carries]
            rows = batch_combine_haar(older_rows, newer_rows, k)
            if rows.shape[2] > (1 << (level + 1)):
                # Mirror _fresh_right's cap: coefficients past the segment
                # length are identically zero.
                rows = rows[:, :, : 1 << (level + 1)]
            devs = None
            if track:
                assert prev_devs is not None and older_devs is not None
                newer_devs = prev_devs[:, lo : lo + 2 * count - 1 : 2]
                parent_avg = rows[:, :, 0] / math.sqrt(1 << (level + 1))
                child_scale = math.sqrt(1 << level)
                devs = np.maximum(
                    older_devs + np.abs(older_rows[:, :, 0] / child_scale - parent_avg),
                    newer_devs + np.abs(newer_rows[:, :, 0] / child_scale - parent_avg),
                )
            outputs.append((level, first, rows, devs))
    for i, tree in enumerate(trees):
        tree._time = tend
        # The ring buffer keeps only the newest 2^{m+1} = seg values.
        tree._buffer.extend(block[i, -seg:].tolist())
    for level, first, rows, devs in outputs:
        count = rows.shape[1]
        lstep = 1 << level
        right_t = first + (count - 1) * lstep
        # The last <= 3 outputs are all a level can hold: one copy for the
        # whole group, and each node keeps a row of it.
        tail = rows[:, max(count - 3, 0) :].copy()
        tail_devs: List[List[Optional[float]]] = (
            [[None] * tail.shape[1]] * g
            if devs is None
            else devs[:, max(count - 3, 0) :].tolist()
        )
        for lv, out, out_devs in zip(
            [tree._levels[level] for tree in trees], tail, tail_devs
        ):
            if Role.SHIFT in lv:
                # Replaying only the tail of the shift pipeline: with count
                # in-block refreshes the final L/S are the pre-block S/R
                # (count == 1), the pre-block R plus the first fresh output
                # (count == 2), or the third/second-newest fresh outputs.
                if count == 1:
                    lv[Role.LEFT].copy_from(lv[Role.SHIFT])
                    lv[Role.SHIFT].copy_from(lv[Role.RIGHT])
                elif count == 2:
                    lv[Role.LEFT].copy_from(lv[Role.RIGHT])
                    lv[Role.SHIFT].set_contents(out[0], right_t - lstep, out_devs[0])
                else:
                    lv[Role.LEFT].set_contents(out[0], right_t - 2 * lstep, out_devs[0])
                    lv[Role.SHIFT].set_contents(out[1], right_t - lstep, out_devs[1])
            lv[Role.RIGHT].set_contents(out[-1], right_t, out_devs[-1])
    for tree in trees:
        if tree._check_invariants:
            contracts.check_swat(tree)
    if obs.ENABLED and _t0 is not None:
        obs.counter("swat.arrivals").inc(g * b)
        shifted = 0
        for level in range(m, head.n_levels):
            shifted += (tend >> level) - (t0 >> level)
        if shifted:
            obs.counter("swat.levels_shifted").inc(g * shifted)
        obs.counter("swat.batches").inc()
        obs.histogram("swat.batch.latency").observe(time.perf_counter() - _t0)
    if causal is not None and _t0 is not None:
        causal.start_span("swat.extend", at=_t0, site="swat").finish(
            time.perf_counter(), values=g * b, trees=g
        )
