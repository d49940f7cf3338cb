"""Error bounds from Section 2.6 of the paper, plus shared stream-input
validation.

The analysis assumes a linear-drift stream (each arrival differs from the
previous one by ``eps``) and a 1-coefficient Haar tree, and bounds the
weighted error contributed by a single level-``l`` node to a query:

* exponential weights: each level contributes at most ``2 * eps``, so a
  length-``M`` query incurs ``O(eps * log M)`` total error (Equation 2);
* linear weights: level ``l`` contributes at most ``4^l * eps``, so the total
  is ``O(eps * M^2)`` (Equation 3).

These are exposed both for documentation and as oracles for the empirical
tests in ``tests/test_error_bounds.py``.

:func:`query_error_bound` is the same argument made exact for one live tree
and one query: a certified bound on the query's error computed from the true
history, sound under any sequence of ``k`` / ``min_level`` reconfigurations.

:func:`require_finite` is the one finiteness gate every ingest path shares:
scalar callers (``Swat.update``, ``PrefixStats.update``) pay a single
``math.isfinite``, while the batched ingest paths validate a whole block with
one ``np.isfinite(...).all()``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # swat imports this module for require_finite
    from .queries import InnerProductQuery
    from .swat import Swat

__all__ = [
    "require_finite",
    "exponential_level_bound",
    "exponential_query_bound",
    "linear_level_bound",
    "linear_query_bound",
    "drift_segment_errors",
    "query_error_bound",
]


def require_finite(
    values: Union[float, int, np.ndarray], what: str = "stream values"
) -> None:
    """Raise :exc:`ValueError` unless every value is finite.

    Scalars take the ``math.isfinite`` fast path (no array allocation on the
    per-arrival hot paths); anything array-like is validated in one
    vectorized ``np.isfinite`` sweep, naming the first offender.
    """
    if isinstance(values, (float, int)):
        if math.isfinite(values):
            return
        raise ValueError(f"{what} must be finite, got {float(values)!r}")
    arr = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(arr)
    if bool(finite.all()):
        return
    bad = float(arr[~finite].flat[0])
    raise ValueError(f"{what} must be finite, got {bad!r}")


def exponential_level_bound(eps: float, level: int) -> float:
    """Weighted error a level-``level`` node adds to an exponential query.

    The paper's derivation telescopes to at most ``2 * eps`` independent of
    the level (the exponentially decaying weights cancel the exponentially
    growing per-point error).
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if level < 0:
        raise ValueError("level must be non-negative")
    return 2.0 * eps


def exponential_query_bound(eps: float, length: int) -> float:
    """Total bound for an exponential inner-product query of ``length`` points.

    ``sum_{l=0}^{ceil(log M)} 2 eps = 2 eps (ceil(log M) + 1) = O(eps log M)``.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    top = math.ceil(math.log2(length)) if length > 1 else 0
    return 2.0 * eps * (top + 1)


def linear_level_bound(eps: float, level: int) -> float:
    """Weighted error a level-``level`` node adds to a linear query: ``4^l eps``."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if level < 0:
        raise ValueError("level must be non-negative")
    return (4.0**level) * eps


def linear_query_bound(eps: float, length: int) -> float:
    """Total bound for a linear inner-product query: ``sum 4^l eps = O(eps M^2)``."""
    if length < 1:
        raise ValueError("length must be >= 1")
    top = math.ceil(math.log2(length)) if length > 1 else 0
    return eps * (4.0 ** (top + 1) - 1.0) / 3.0


def drift_segment_errors(eps: float, segment_length: int) -> List[float]:
    """Per-point absolute error of a 1-coefficient (average) summary under drift.

    For a segment ``d_i = d_0 + i * eps`` of ``2^{l+1}`` points summarized by
    its average ``d_0 + (len - 1) eps / 2``, point ``i`` incurs error
    ``|i - (len - 1)/2| * eps`` — the paper's worked example for ``R_2``
    (errors ``3.5 eps, 2.5 eps, 1.5 eps, 0.5 eps`` mirrored).
    """
    if segment_length < 1:
        raise ValueError("segment_length must be >= 1")
    mid = (segment_length - 1) / 2.0
    return [abs(i - mid) * eps for i in range(segment_length)]


def query_error_bound(
    tree: Swat,
    history_newest_first: Sequence[float],
    query: InnerProductQuery,
) -> float:
    """Certified §2.6 bound on ``|true - tree.answer(query)|``.

    ``history_newest_first[i]`` must be the true stream value at window
    index ``i`` (index 0 = newest), covering at least every segment of every
    node the query's cover touches — ``2N`` values always suffice, because a
    node's segment can drift at most one full window into the past.

    Soundness rests on the reconstruction invariant that holds under any
    sequence of live :meth:`~repro.core.swat.Swat.reconfigure` calls: a
    node's reconstructed values are always averages of true dyadic
    sub-blocks of its own segment (first-``k`` prefixes are exact, and
    combines of ragged-``k`` children zero-pad, which preserves the
    property).  Hence every per-index estimate lies within
    ``[min, max]`` of the node's true segment, and so does the true value —
    except for extrapolated indices, whose true value is adjoined to the
    range.  Raw-leaf indices are exact.  Returns ``inf`` when the provided
    history is too short to certify a bound.
    """
    hist = np.asarray(history_newest_first, dtype=np.float64).reshape(-1)
    indices = list(query.indices)
    if not indices:
        return 0.0
    weights = np.asarray(query.weights, dtype=np.float64).reshape(-1)
    abs_w = {i: abs(float(w)) for i, w in zip(indices, weights)}
    n_raw = tree.raw_leaf_count()
    remaining = [i for i in indices if i >= n_raw]
    if not remaining:
        return 0.0  # served exactly from the raw leaves d_0/d_1
    cover = tree.cover(remaining)
    extrapolated = set(cover.extrapolated)
    now = tree.time
    bound = 0.0
    for node, assigned in cover.assignments.items():
        lo = now - node.end_time
        hi = lo + node.segment_length - 1
        if hi >= hist.size:
            return float("inf")
        seg = hist[lo : hi + 1]
        smin = float(seg.min())
        smax = float(seg.max())
        for i in assigned:
            if i in extrapolated:
                if i >= hist.size:
                    return float("inf")
                v = float(hist[i])
                bound += abs_w[i] * (max(smax, v) - min(smin, v))
            else:
                bound += abs_w[i] * (smax - smin)
    return bound
