"""Which node answers each query index (Figure 3(b)), by arithmetic.

The query handler scans tree nodes from the lowest level upward — and within
a level in the order ``R -> S -> L`` — and answers each query index from the
*first* (finest) node whose segment holds it.  Node ``n`` holds window index
``i`` exactly when ``0 <= i - (now - end_time(n)) < 2^{level+1}``, so
:func:`locate` decides every index with one array comparison over the filled
nodes; no search is needed.  :func:`build_cover` regroups that decision as
the cover set ``V``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .node import SwatNode

__all__ = ["CoverageError", "Cover", "build_cover", "locate"]


class CoverageError(LookupError):
    """Raised when a query index cannot be covered by any tree node."""


class Cover:
    """Result of the cover construction.

    Attributes
    ----------
    assignments:
        Maps each selected node, in scan order, to the query indices it
        answers, in ascending order.
    extrapolated:
        Indices that no node's segment contained and that were clamped to the
        nearest segment boundary of a reduced-level tree (see
        :meth:`repro.core.swat.Swat.cover`), in ascending order; empty for a
        full tree.
    """

    def __init__(self) -> None:
        self.assignments: Dict[SwatNode, List[int]] = {}
        self.extrapolated: List[int] = []

    @property
    def nodes(self) -> List[SwatNode]:
        return list(self.assignments)


def locate(
    nodes: Sequence[SwatNode],
    indices: np.ndarray,
    now: int,
    allow_extrapolation: bool = False,
) -> Tuple[List[SwatNode], np.ndarray, np.ndarray, np.ndarray]:
    """Figure 3(b)'s decision for the distinct window ``indices`` (int64).

    ``nodes`` come in scan order (level ascending, ``R, S, L`` within a
    level), and ``now`` is the arrival count that maps indices to times.
    Returns ``(filled, node_of, position, extrapolated)``: the filled nodes
    in scan order; per index, the offset into ``filled`` of the node that
    answers it and the index's position in that node's oldest-first
    segment; and which indices no filled segment holds.

    Such an index raises :class:`CoverageError` unless
    ``allow_extrapolation`` is set; then it goes to the nearest segment,
    finest level first, clamped to that segment's nearer end.  This is how
    a reduced-level tree (Section 2.5) answers queries about values more
    recent than its coarsest maintained resolution.  A tree with no filled
    node raises :class:`CoverageError` either way.
    """
    filled = [node for node in nodes if node.coeffs is not None]
    if not filled:
        raise CoverageError("tree holds no approximations yet")
    last = np.array([node.segment_length - 1 for node in filled], dtype=np.int64)
    oldest = np.array([now - node.end_time for node in filled], dtype=np.int64) + last
    # position[j, m] is index m's position in node j's oldest-first segment;
    # node j holds index m exactly when it lies in [0, last[j]].
    position = oldest[:, None] - indices
    held = (position >= 0) & (position <= last[:, None])
    # The first holder in scan order answers an index.
    node_of = held.argmax(axis=0)
    extrapolated = ~held.any(axis=0)
    if extrapolated.any():
        if not allow_extrapolation:
            raise CoverageError(
                f"window indices {indices[extrapolated].tolist()} not covered by "
                "any filled node"
            )
        # Failing that, the nearest segment: argmin's first minimum is the
        # earliest in scan order, hence the finest level.
        outside = position[:, extrapolated]
        node_of[extrapolated] = np.maximum(outside - last[:, None], -outside).argmin(axis=0)
    position = np.clip(oldest[node_of] - indices, 0, last[node_of])
    return filled, node_of, position, extrapolated


def build_cover(
    nodes: Sequence[SwatNode],
    indices: Union[Sequence[int], np.ndarray],
    now: int,
    allow_extrapolation: bool = False,
) -> Cover:
    """The cover set ``V`` for ``indices``: :func:`locate`'s decision, by node.

    Parameters are those of :func:`locate`, except that ``indices`` may
    repeat and come in any order.
    """
    # Sorting and dropping repeats: np.unique's hash-table path is several
    # times slower on these small int64 arrays.
    wanted = np.sort(np.asarray(indices, dtype=np.int64))
    wanted = wanted[np.diff(wanted, prepend=wanted[:1] - 1) != 0]
    cover = Cover()
    if not wanted.size:
        return cover
    filled, node_of, _, extrapolated = locate(nodes, wanted, now, allow_extrapolation)
    # ``wanted`` is ascending, so a stable sort by node keeps each node's
    # indices ascending.
    grouped = wanted[np.argsort(node_of, kind="stable")].tolist()
    start = 0
    for node, count in zip(filled, np.bincount(node_of, minlength=len(filled)).tolist()):
        if count:
            cover.assignments[node] = grouped[start : start + count]
            start += count
    cover.extrapolated = wanted[extrapolated].tolist()
    return cover
