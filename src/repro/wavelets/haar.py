"""Haar-specific fast paths used by the SWAT tree.

The crucial operation in SWAT's update rule (Figure 3(a) of the paper) is

    contents(R_l) := DWT(R_{l-1}, L_{l-1})

i.e. combining the summaries of two adjacent half-segments into the summary
of their union.  With the orthonormal Haar basis and the coarse-to-fine
coefficient layout of :mod:`repro.wavelets.transform` this combine is *exact*
and costs ``O(k)``:

* parent approximation   ``a  = (a_L + a_R) / sqrt(2)``
* parent coarsest detail ``d0 = (a_L - a_R) / sqrt(2)``
* every finer parent band is the concatenation of the children's bands one
  scale down (orthonormal detail coefficients are invariant under further
  decomposition of the approximation channel).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .filters import get_filter
from .transform import is_power_of_two

__all__ = [
    "batch_combine_haar",
    "batch_haar_decompose",
    "batch_leaf_coeffs",
    "combine_haar",
    "haar_average",
    "haar_reconstruct",
    "leaf_coeffs",
    "parent_position",
    "sparse_combine",
    "sparse_reconstruct",
    "largest_coefficients",
]

_SQRT2 = math.sqrt(2.0)


def leaf_coeffs(newer: float, older: float, k: int = 1) -> np.ndarray:
    """Level-0 node contents from the two most recent raw values.

    The paper's footnote to Figure 3(a): "R_{-1} and L_{-1} are data values
    d_0 and d_1" — ``newer`` is d_0, ``older`` is d_1.  In time order the
    segment is ``[older, newer]``.
    """
    coeffs = np.array([(older + newer) / _SQRT2, (older - newer) / _SQRT2])
    return coeffs[: max(1, min(k, 2))].copy()


def combine_haar(older: np.ndarray, newer: np.ndarray, k: int) -> np.ndarray:
    """Combine two child coefficient vectors into the parent's first ``k`` coefficients.

    Parameters
    ----------
    older:
        Flat coarse-to-fine Haar coefficients of the *older* half-segment
        (SWAT's ``L_{l-1}``), truncated to at most ``k`` values.
    newer:
        Same for the *newer* half-segment (SWAT's ``R_{l-1}``).
    k:
        Number of coefficients to retain in the parent.

    Notes
    -----
    Child coefficients beyond what was retained are treated as zero, which is
    consistent with the k-coefficient summary: the parent's first ``k``
    coefficients depend only on child coefficients at positions ``< k``, so
    repeated combining of k-truncated nodes is exact with respect to the
    k-truncated full transform.
    """
    older = np.asarray(older, dtype=np.float64)
    newer = np.asarray(newer, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    a_l = older[0] if older.size else 0.0
    a_r = newer[0] if newer.size else 0.0
    out = np.zeros(k, dtype=np.float64)
    out[0] = (a_l + a_r) / _SQRT2
    if k >= 2:
        out[1] = (a_l - a_r) / _SQRT2
    # Parent band j (size 2^{j-1} per child) starts at flat position 2^j and
    # is [older band (j-1), newer band (j-1)], each starting at 2^{j-1}.
    band_start = 2
    while band_start < k:
        child_lo = band_start // 2
        child_hi = band_start
        for child, offset in ((older, 0), (newer, band_start // 2)):
            src = child[child_lo:child_hi]
            dst_lo = band_start + offset
            dst_hi = min(dst_lo + src.size, k)
            if dst_hi > dst_lo:
                out[dst_lo:dst_hi] = src[: dst_hi - dst_lo]
        band_start *= 2
    return out


def batch_leaf_coeffs(newer: np.ndarray, older: np.ndarray, k: int = 1) -> np.ndarray:
    """Vectorized :func:`leaf_coeffs`: ``out[..., :]`` summarizes ``(older[...], newer[...])``.

    ``newer`` and ``older`` share one shape; the result appends a
    coefficient axis to it.  Performs the same two IEEE operations per pair
    as the scalar helper, so the result is bit-identical to calling
    ``leaf_coeffs`` pair by pair.
    """
    newer = np.asarray(newer, dtype=np.float64)
    older = np.asarray(older, dtype=np.float64)
    width = max(1, min(k, 2))
    out = np.empty(newer.shape + (width,), dtype=np.float64)
    out[..., 0] = (older + newer) / _SQRT2
    if width > 1:
        out[..., 1] = (older - newer) / _SQRT2
    return out


def batch_combine_haar(older: np.ndarray, newer: np.ndarray, k: int) -> np.ndarray:
    """Vectorized :func:`combine_haar`: combine many child pairs at once.

    ``older`` and ``newer`` are ``(..., M, w)`` arrays of child coefficient
    rows (``w <= k``) with equal leading shapes; the result is the
    ``(..., M, k)`` array whose row ``older[j]``/``newer[j]`` maps to
    ``combine_haar(older[j], newer[j], k)`` bit-for-bit (the butterfly and
    the band copies are the same elementwise operations, applied per column
    instead of per row).  Strided views are read in place.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    older = np.asarray(older, dtype=np.float64)
    newer = np.asarray(newer, dtype=np.float64)
    if older.ndim < 2 or older.shape[:-1] != newer.shape[:-1]:
        raise ValueError(
            "older/newer must be (..., M, w) arrays with equal leading shapes"
        )
    lead = older.shape[:-1]
    zeros = np.zeros(lead, dtype=np.float64)
    a_l = older[..., 0] if older.shape[-1] else zeros
    a_r = newer[..., 0] if newer.shape[-1] else zeros
    out = np.zeros(lead + (k,), dtype=np.float64)
    out[..., 0] = (a_l + a_r) / _SQRT2
    if k >= 2:
        out[..., 1] = (a_l - a_r) / _SQRT2
    band_start = 2
    while band_start < k:
        child_lo = band_start // 2
        child_hi = band_start
        for child, offset in ((older, 0), (newer, band_start // 2)):
            src = child[..., child_lo:child_hi]
            dst_lo = band_start + offset
            dst_hi = min(dst_lo + src.shape[-1], k)
            if dst_hi > dst_lo:
                out[..., dst_lo:dst_hi] = src[..., : dst_hi - dst_lo]
        band_start *= 2
    return out


def batch_haar_decompose(segments: np.ndarray) -> np.ndarray:
    """Row-wise full Haar decomposition of ``(M, 2^m)`` segments.

    Row ``i`` of the result is bit-identical to
    ``full_decompose(segments[i], "haar")``: each cascade step multiplies the
    even/odd columns by the very same filter taps the scalar
    :func:`repro.wavelets.transform.dwt_step` fast path uses, in the same
    order, so no float reassociation can creep in.
    """
    segs = np.asarray(segments, dtype=np.float64)
    if segs.ndim != 2 or not is_power_of_two(segs.shape[1]):
        raise ValueError(
            f"segments must be a (M, 2^m) matrix, got shape {segs.shape}"
        )
    filt = get_filter("haar")
    h0, h1 = filt.lowpass
    g0, g1 = filt.highpass
    out = np.empty_like(segs)
    approx = segs
    size = segs.shape[1]
    while size > 1:
        half = size // 2
        even = approx[:, 0::2]
        odd = approx[:, 1::2]
        out[:, half:size] = even * g0 + odd * g1
        approx = even * h0 + odd * h1
        size = half
    out[:, 0] = approx[:, 0]
    return out


def haar_average(coeffs: np.ndarray, length: int) -> float:
    """Mean of a segment of ``length`` points from its Haar coefficients.

    For the orthonormal full decomposition ``a = sum(x) / 2^{m/2}`` with
    ``length = 2^m``, so ``mean = a / 2^{m/2} = a / sqrt(length)``.
    """
    if not is_power_of_two(length):
        raise ValueError(f"length must be a power of two, got {length}")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return float(coeffs[0] / math.sqrt(length))


def haar_reconstruct(coeffs: np.ndarray, length: int) -> np.ndarray:
    """Reconstruct a length-``length`` segment from (truncated) Haar coefficients.

    Equivalent to :func:`repro.wavelets.transform.reconstruct` with the Haar
    basis but implemented with the doubling fast path (each inverse step is a
    vectorised butterfly), since SWAT calls this on every query.
    """
    if not is_power_of_two(length):
        raise ValueError(f"length must be a power of two, got {length}")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    padded = np.zeros(length, dtype=np.float64)
    padded[: min(coeffs.size, length)] = coeffs[:length]
    approx = padded[:1]
    pos, size = 1, 1
    while approx.size < length:
        detail = padded[pos : pos + size]
        out = np.empty(2 * size, dtype=np.float64)
        out[0::2] = (approx + detail) / _SQRT2
        out[1::2] = (approx - detail) / _SQRT2
        approx = out
        pos += size
        size *= 2
    return approx


def parent_position(child_pos: int, is_newer: bool) -> int:
    """Map a child detail coefficient's flat position into the parent's.

    A child's band starting at ``s = 2^floor(log2(p))`` lands in the parent
    band starting at ``2s``; the older child's entries come first.  Position
    0 (the approximation) has no direct image — it is consumed by the
    parent's approximation and coarsest detail.
    """
    if child_pos < 1:
        raise ValueError("position 0 is consumed by the combine step")
    s = 1 << (child_pos.bit_length() - 1)
    return child_pos + s + (s if is_newer else 0)


def _pow2_floor(pos: np.ndarray) -> np.ndarray:
    """Largest power of two ``<= pos`` for each positive int64 entry (exact)."""
    p = pos.astype(np.int64)
    p |= p >> 1
    p |= p >> 2
    p |= p >> 4
    p |= p >> 8
    p |= p >> 16
    p |= p >> 32
    return (p + 1) >> 1


def _parent_positions(child_pos: np.ndarray, is_newer: bool) -> np.ndarray:
    """Vectorized :func:`parent_position` over an array of positions ``>= 1``."""
    s = _pow2_floor(child_pos)
    return child_pos + (2 * s if is_newer else s)


def sparse_combine(
    older_pos: np.ndarray,
    older_val: np.ndarray,
    newer_pos: np.ndarray,
    newer_val: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine two largest-k sparse Haar summaries into the parent's.

    Children store (positions, values) of their retained coefficients in the
    flat coarse-to-fine layout; position 0 (the approximation) is always
    retained.  The parent keeps its approximation plus the ``k - 1``
    largest-magnitude remaining coefficients (the classical top-B selection
    of Gilbert et al.).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    older_pos = np.asarray(older_pos, dtype=np.int64)
    newer_pos = np.asarray(newer_pos, dtype=np.int64)
    older_val = np.asarray(older_val, dtype=np.float64)
    newer_val = np.asarray(newer_val, dtype=np.float64)
    a_l = float(older_val[0]) if older_pos.size and older_pos[0] == 0 else 0.0
    a_r = float(newer_val[0]) if newer_pos.size and newer_pos[0] == 0 else 0.0
    # Candidate order matters for tie-breaking and must match the historical
    # scan: butterfly outputs first, then the older child's detail positions
    # in stored order, then the newer child's.
    keep_older = older_pos >= 1
    keep_newer = newer_pos >= 1
    pos = np.concatenate(
        [
            np.array([0, 1], dtype=np.int64),
            _parent_positions(older_pos[keep_older], is_newer=False),
            _parent_positions(newer_pos[keep_newer], is_newer=True),
        ]
    )
    val = np.concatenate(
        [
            np.array([(a_l + a_r) / _SQRT2, (a_l - a_r) / _SQRT2], dtype=np.float64),
            older_val[keep_older],
            newer_val[keep_newer],
        ]
    )
    if pos.size <= k:
        order = np.argsort(pos)
        return pos[order], val[order]
    # Always keep the approximation (index 0 of cand arrays).
    rest = np.argsort(-np.abs(val[1:]))[: k - 1] + 1
    keep = np.concatenate([[0], rest])
    keep = keep[np.argsort(pos[keep])]
    return pos[keep], val[keep]


def sparse_reconstruct(positions: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """Reconstruct a segment from sparse (position, value) Haar coefficients."""
    if not is_power_of_two(length):
        raise ValueError(f"length must be a power of two, got {length}")
    dense = np.zeros(length, dtype=np.float64)
    pos = np.asarray(positions, dtype=np.int64)
    if pos.size and (pos.min() < 0 or pos.max() >= length):
        raise ValueError("coefficient positions outside the segment transform")
    dense[pos] = np.asarray(values, dtype=np.float64)
    return haar_reconstruct(dense, length)


def largest_coefficients(flat: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k selection of a dense flat vector (approximation always kept)."""
    flat = np.asarray(flat, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    if flat.size <= k:
        return np.arange(flat.size, dtype=np.int64), flat.copy()
    rest = np.argsort(-np.abs(flat[1:]))[: k - 1] + 1
    keep = np.sort(np.concatenate([[0], rest]))
    return keep.astype(np.int64), flat[keep]
