"""Error metrics used throughout the evaluation (Sections 2.7 and 5).

* *relative error* of a query answer: ``|true - approx| / |true|``;
* *cumulative error* at time ``t``: the average of the relative errors of all
  queries asked at times ``0..t`` (Figure 4(b));
* *average absolute error*: mean of ``|true - approx|`` (Figure 4(c)).

:class:`GroundTruthWindow` maintains the exact sliding window alongside a
summary so experiments can score approximate answers.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

if TYPE_CHECKING:
    from ..core.queries import InnerProductQuery

__all__ = [
    "relative_error",
    "absolute_error",
    "ErrorSeries",
    "GroundTruthWindow",
]

_ZERO_GUARD = 1e-12


def relative_error(true_value: float, approx_value: float) -> float:
    """``|true - approx| / |true|`` with a zero-denominator guard."""
    denom = max(abs(true_value), _ZERO_GUARD)
    return abs(true_value - approx_value) / denom


def absolute_error(true_value: float, approx_value: float) -> float:
    """``|true - approx|``."""
    return abs(true_value - approx_value)


class ErrorSeries:
    """Accumulates per-query errors and derives the paper's summary statistics."""

    def __init__(self) -> None:
        self._errors: List[float] = []
        self._running_sum = 0.0

    def record(self, error: float) -> None:
        if error < 0:
            raise ValueError("errors are non-negative")
        self._errors.append(float(error))
        self._running_sum += float(error)

    def __len__(self) -> int:
        return len(self._errors)

    @property
    def values(self) -> np.ndarray:
        """The raw per-query error sequence (Figure 4(a)-style)."""
        return np.asarray(self._errors, dtype=np.float64)

    @property
    def mean(self) -> float:
        """Average error over all recorded queries."""
        if not self._errors:
            raise ValueError("no errors recorded")
        return self._running_sum / len(self._errors)

    @property
    def maximum(self) -> float:
        if not self._errors:
            raise ValueError("no errors recorded")
        return max(self._errors)

    def cumulative(self) -> np.ndarray:
        """Cumulative (running-average) error series (Figure 4(b)-style)."""
        vals = self.values
        if vals.size == 0:
            return vals
        return np.cumsum(vals) / np.arange(1, vals.size + 1)


class GroundTruthWindow:
    """Exact sliding window of the last ``N`` values, newest-first access.

    ``window[i]`` is the true value of ``d_i`` (window index ``i``, with 0 the
    most recent arrival) — the indexing convention of Section 2.1.
    """

    def __init__(self, window_size: int) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.window_size = window_size
        self._buf: deque = deque(maxlen=window_size)

    def update(self, value: float) -> None:
        self._buf.append(float(value))

    def extend(self, values: Sequence[float]) -> None:
        """Ingest a block of arrivals; only the window-sized tail is kept."""
        block = np.asarray(
            values if isinstance(values, np.ndarray) else list(values),
            dtype=np.float64,
        ).reshape(-1)
        if block.size > self.window_size:
            block = block[block.size - self.window_size :]
        # deque.extend runs at C speed; the float conversion happens once in
        # the array pass above instead of per value.
        self._buf.extend(block.tolist())

    def __len__(self) -> int:
        return len(self._buf)

    def __getitem__(self, index: int) -> float:
        if not 0 <= index < len(self._buf):
            raise IndexError(f"window index {index} out of range [0, {len(self._buf) - 1}]")
        return self._buf[len(self._buf) - 1 - index]

    def values_newest_first(self) -> np.ndarray:
        """The whole window as an array indexed by window index."""
        return np.asarray(self._buf, dtype=np.float64)[::-1].copy()

    def inner_product(self, query: "InnerProductQuery") -> float:
        """Exact ``sum(W[i] * window[I[i]])``, summed in the query's order.

        Reads the deque directly: a query's indices are non-negative, so
        ``-1 - i`` addresses window index ``i`` and one past the observed
        values raises :exc:`IndexError`.
        """
        buf = self._buf
        return sum(w * buf[-1 - i] for i, w in zip(query.indices, query.weights))

    def segment_range(self, newest_idx: int, oldest_idx: int) -> tuple:
        """Exact ``(min, max)`` over window indices ``newest_idx..oldest_idx``.

        The part of the segment past the observed values is ignored; a
        segment wholly past them raises :exc:`ValueError`, and a negative
        ``newest_idx`` raises :exc:`IndexError`, as ``window[newest_idx]``
        would.
        """
        if newest_idx > oldest_idx:
            raise ValueError("need newest_idx <= oldest_idx")
        if newest_idx < 0:
            raise IndexError(
                f"window index {newest_idx} out of range [0, {len(self._buf) - 1}]"
            )
        # Newest first, the order window[i] reads them in, so min and max
        # pick the same elements; islice reads the deque at C speed.
        vals = list(islice(reversed(self._buf), newest_idx, oldest_idx + 1))
        if not vals:
            raise ValueError("segment lies entirely outside the observed window")
        return (min(vals), max(vals))
