"""Exact byte accounting for SWAT summaries.

Two complementary views of summary memory:

* the *live* count — ``Swat.nbytes`` / ``SwatNode.nbytes`` /
  ``PrefixStats.nbytes``, analytic sums of the backing arrays' ``nbytes``
  (never ``sys.getsizeof``);
* the *configured ceiling* — :func:`config_nbytes`, the closed-form
  steady-state footprint of a ``(window_size, k, min_level)`` configuration.
  A live tree can only ever hold *at most* the ceiling (cold or settling
  trees hold less), so a governor that keeps the sum of ceilings under the
  budget keeps the live total under it too, at every arrival, without ever
  walking a tree per arrival.

:class:`MemoryLedger` is the ensemble-wide incremental aggregate: per-stream
byte counts with an O(1)-maintained total and a peak watermark.
:class:`~repro.core.multi.StreamEnsemble` sets every stream's entry after
each block it ingests and at phase boundaries.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["MemoryLedger", "config_nbytes"]

_FLOAT_BYTES = 8


def config_nbytes(window_size: int, k: int, min_level: int) -> int:
    """Steady-state byte ceiling of a first-``k`` Haar tree configuration.

    Level ``l`` (for ``min_level <= l <= n-2``) keeps three nodes of
    ``min(k, 2^{l+1})`` float64 coefficients; the top level keeps one; the
    raw ring buffer holds ``2^{min_level+1}`` floats.  This matches
    ``Swat.nbytes`` exactly once the tree is warm and settled — the property
    tests in ``tests/test_control.py`` pin that equality.
    """
    if window_size < 4 or window_size & (window_size - 1):
        raise ValueError(f"window_size must be a power of two >= 4, got {window_size}")
    n_levels = window_size.bit_length() - 1
    if not 0 <= min_level < n_levels:
        raise ValueError(f"min_level must be in [0, {n_levels - 1}], got {min_level}")
    if k < 1:
        raise ValueError("k must be >= 1")
    total = (1 << (min_level + 1)) * _FLOAT_BYTES  # ring buffer
    for level in range(min_level, n_levels):
        n_roles = 1 if level == n_levels - 1 else 3
        total += n_roles * min(k, 1 << (level + 1)) * _FLOAT_BYTES
    return total


class MemoryLedger:
    """Incremental per-stream byte ledger with an O(1) total and peak.

    ``set`` replaces one stream's byte count and adjusts the running total
    by the delta; nothing ever re-sums the whole map on the hot path.  The
    ``peak`` watermark records the largest total ever observed — the number
    the ``repro govern`` frontier reports against the budget.
    """

    def __init__(self) -> None:
        self._bytes: Dict[str, int] = {}
        self._total = 0
        self.peak = 0

    def set(self, stream: str, nbytes: int) -> None:
        """Record ``stream``'s current byte count (replacing any previous)."""
        n = int(nbytes)
        if n < 0:
            raise ValueError(f"negative byte count {n} for stream {stream!r}")
        self._total += n - self._bytes.get(stream, 0)
        self._bytes[stream] = n
        if self._total > self.peak:
            self.peak = self._total

    def get(self, stream: str) -> int:
        """Bytes last recorded for ``stream`` (0 when never recorded)."""
        return self._bytes.get(stream, 0)

    @property
    def total(self) -> int:
        """Current ensemble-wide byte count."""
        return self._total

    def per_stream(self) -> Dict[str, int]:
        """A copy of the per-stream byte map."""
        return dict(self._bytes)

    def __len__(self) -> int:
        return len(self._bytes)

    def __repr__(self) -> str:
        return f"MemoryLedger(streams={len(self._bytes)}, total={self._total}, peak={self.peak})"
