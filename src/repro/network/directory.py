"""The segment directory of Table 1.

SWAT-ASR partitions the sliding window into the canonical level-0
approximation partition: ``(0,1), (2,3), (4,7), (8,15), ..., (N/2, N-1)`` —
``log N`` rows, one per level except level 0 which contributes two (exactly
Table 1 for ``N = 16``).  Each row carries the window segment, the cached
range approximation, and the subscription list of children holding a replica.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..wavelets.transform import is_power_of_two

__all__ = [
    "Segment",
    "window_segments",
    "DirectoryRow",
    "Directory",
    "SegmentPlanCache",
]


@dataclass(frozen=True)
class Segment:
    """A window segment ``[newest, oldest]`` in newest-first window indices."""

    newest: int
    oldest: int
    # Every directory row lookup hashes its segment key, so the hash,
    # hash((newest, oldest)), is computed once at construction.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.newest <= self.oldest:
            raise ValueError(f"invalid segment ({self.newest}, {self.oldest})")
        object.__setattr__(self, "_hash", hash((self.newest, self.oldest)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def length(self) -> int:
        return self.oldest - self.newest + 1

    def indices(self) -> range:
        return range(self.newest, self.oldest + 1)

    def __contains__(self, index: int) -> bool:
        return self.newest <= index <= self.oldest

    def __str__(self) -> str:
        return f"({self.newest},{self.oldest})"


def window_segments(window_size: int) -> List[Segment]:
    """The canonical directory partition of a size-``N`` window.

    ``(0,1), (2,3)`` then doubling dyadic blocks up to ``(N/2, N-1)`` —
    ``log2(N)`` segments total, matching Table 1.
    """
    return list(_canonical_segments(window_size))


@functools.lru_cache(maxsize=None)
def _canonical_segments(window_size: int) -> Tuple[Segment, ...]:
    """The partition as one shared tuple per window size.

    Every :class:`Directory` of a size keys its rows by these very objects,
    so a lookup with another directory's segment (the shared
    :class:`SegmentPlanCache` groupings) matches by identity and never
    calls ``Segment.__eq__``.  A rejected size raises and caches nothing,
    so entries are the few power-of-two sizes a process actually uses.
    """
    if not is_power_of_two(window_size) or window_size < 4:
        raise ValueError(f"window_size must be a power of two >= 4, got {window_size}")
    segments = [Segment(0, 1), Segment(2, 3)]
    lo = 4
    while lo < window_size:
        segments.append(Segment(lo, 2 * lo - 1))
        lo *= 2
    assert len(segments) == int(math.log2(window_size))
    return tuple(segments)


@dataclass
class DirectoryRow:
    """One directory row: segment, cached range, subscriber bookkeeping.

    Besides Table 1's three columns, a row carries the per-phase counters the
    expansion/contraction tests of Figure 8(b) need: an *interested* list of
    children that queried but are not subscribed, per-child read counts, the
    local read count, and the (non-enclosed) write count.
    """

    segment: Segment
    approx: Optional[Tuple[float, float]] = None
    subscribed: Set[str] = field(default_factory=set)
    interested: Set[str] = field(default_factory=set)
    read_counts: Dict[str, int] = field(default_factory=dict)
    local_reads: int = 0
    write_count: int = 0

    @property
    def is_cached(self) -> bool:
        return self.approx is not None

    @property
    def width(self) -> float:
        """Precision offered for the segment (range width); inf if uncached."""
        if self.approx is None:
            return float("inf")
        return self.approx[1] - self.approx[0]

    @property
    def midpoint(self) -> float:
        if self.approx is None:
            raise ValueError(f"segment {self.segment} is not cached")
        return (self.approx[0] + self.approx[1]) / 2.0

    def encloses(self, new_range: Tuple[float, float]) -> bool:
        """True if the stored range encloses ``new_range`` (no propagation needed)."""
        if self.approx is None:
            return False
        return self.approx[0] <= new_range[0] and new_range[1] <= self.approx[1]

    def note_read(self, child: str) -> None:
        """Record a read from ``child`` (Figure 8(a)'s satisfied-query branch)."""
        if child not in self.subscribed and child not in self.interested:
            self.interested.add(child)
        self.read_counts[child] = self.read_counts.get(child, 0) + 1

    def reset_counts(self) -> None:
        """Phase boundary: clear read and write counters."""
        self.read_counts.clear()
        self.local_reads = 0
        self.write_count = 0

    # ----------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Checkpoint the row as a JSON-serializable dict.

        Collections are emitted in sorted order so identical directories
        always checkpoint to identical bytes (the same determinism rule the
        protocol's own iteration follows).
        """
        return {
            "segment": [self.segment.newest, self.segment.oldest],
            "approx": None if self.approx is None else list(self.approx),
            "subscribed": sorted(self.subscribed),
            "interested": sorted(self.interested),
            "read_counts": dict(sorted(self.read_counts.items())),
            "local_reads": self.local_reads,
            "write_count": self.write_count,
        }

    def load_state(self, state: dict) -> None:
        """Adopt a checkpointed row state (validated; segment must match)."""
        try:
            newest, oldest = (int(v) for v in state["segment"])
            approx = state["approx"]
            if approx is not None:
                lo, hi = (float(v) for v in approx)
                if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                    raise ValueError(
                        f"malformed DirectoryRow state: approx [{lo}, {hi}]"
                    )
                approx = (lo, hi)
            subscribed = {str(s) for s in state["subscribed"]}
            interested = {str(s) for s in state["interested"]}
            read_counts = {str(k): int(v) for k, v in state["read_counts"].items()}
            local_reads = int(state["local_reads"])
            write_count = int(state["write_count"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed DirectoryRow state: {exc}") from exc
        if (newest, oldest) != (self.segment.newest, self.segment.oldest):
            raise ValueError(
                f"malformed DirectoryRow state: segment ({newest},{oldest}) "
                f"does not match row {self.segment}"
            )
        self.approx = approx
        self.subscribed = subscribed
        self.interested = interested
        self.read_counts = read_counts
        self.local_reads = local_reads
        self.write_count = write_count


class Directory:
    """Per-site directory: one :class:`DirectoryRow` per window segment."""

    def __init__(self, window_size: int) -> None:
        self.window_size = window_size
        # Row order mirrors the dyadic partition: row i covers
        # [2^i, 2^{i+1}-1] for i >= 1 and rows 0/1 split [0, 3] — so the row
        # holding index j is just bit_length(j) - 1 (clamped at 0).
        self._segment_list: Tuple[Segment, ...] = _canonical_segments(window_size)
        self.rows: Dict[Segment, DirectoryRow] = {
            seg: DirectoryRow(seg) for seg in self._segment_list
        }

    @property
    def segments(self) -> List[Segment]:
        return list(self.rows)

    def row(self, segment: Segment) -> DirectoryRow:
        return self.rows[segment]

    def segment_of(self, index: int) -> Segment:
        """The directory segment containing window index ``index`` (O(1))."""
        if not 0 <= index < self.window_size:
            raise IndexError(
                f"window index {index} outside [0, {self.window_size - 1}]"
            )
        return self._segment_list[max(int(index).bit_length() - 1, 0)]

    def cached_count(self) -> int:
        """Number of cached approximations at this site (space metric, §5.1)."""
        return sum(1 for row in self.rows.values() if row.is_cached)

    # ----------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Checkpoint every row, in the canonical dyadic partition order."""
        return {
            "window_size": self.window_size,
            "rows": [self.rows[seg].to_state() for seg in self._segment_list],
        }

    def load_state(self, state: dict) -> None:
        """Adopt a checkpointed directory in place (validated).

        The state must describe the same window partition: one row per
        canonical segment, in order.  Raises :exc:`ValueError` otherwise.
        """
        try:
            window_size = int(state["window_size"])
            rows = list(state["rows"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed Directory state: {exc}") from exc
        if window_size != self.window_size:
            raise ValueError(
                f"malformed Directory state: window_size {window_size} does "
                f"not match the live directory's {self.window_size}"
            )
        if len(rows) != len(self._segment_list):
            raise ValueError(
                f"malformed Directory state: {len(rows)} rows for "
                f"{len(self._segment_list)} segments"
            )
        for seg, row_state in zip(self._segment_list, rows):
            self.rows[seg].load_state(row_state)

    def __repr__(self) -> str:
        cached = ", ".join(str(s) for s, r in self.rows.items() if r.is_cached)
        return f"Directory(N={self.window_size}, cached=[{cached}])"


class SegmentPlanCache:
    """Memoized index→segment grouping for recurring query shapes.

    The replication protocols split every query's window indices by
    directory segment before consulting caches or forwarding upstream.
    Serving workloads re-issue the same index sets (continuous queries,
    degraded answers, retries), so the grouping — a pure function of the
    index tuple for a fixed window size — is worth caching.  Entries are
    LRU-evicted past ``max_plans``.

    Callers must treat returned groupings as read-only (they are shared
    between hits); every call site in :mod:`repro.replication` only
    iterates.
    """

    def __init__(self, directory: Directory, max_plans: int = 256) -> None:
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        self.directory = directory
        self.max_plans = int(max_plans)
        self.hits = 0
        self.misses = 0
        self._groups: "OrderedDict[Tuple[int, ...], Dict[Segment, List[int]]]" = (
            OrderedDict()
        )

    def group(self, indices: Sequence[int]) -> Mapping[Segment, Sequence[int]]:
        """Indices grouped by their directory segment, in first-seen order."""
        key = tuple(indices)
        cached = self._groups.get(key)
        if cached is not None:
            self._groups.move_to_end(key)
            self.hits += 1
            return cached
        out: Dict[Segment, List[int]] = {}
        for idx in key:
            out.setdefault(self.directory.segment_of(idx), []).append(idx)
        self._groups[key] = out
        while len(self._groups) > self.max_plans:
            self._groups.popitem(last=False)
        self.misses += 1
        return out
