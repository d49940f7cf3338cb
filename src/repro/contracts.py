"""Runtime invariant checking for SWAT trees and ASR directories.

The paper's guarantees are structural: the L<-S<-R shift discipline of
Figure 3(a) keeps at most three nodes per level and refreshes level ``l``
exactly every ``2^l`` arrivals, and the Section 3 walk-through relies on
cached precision being monotone non-increasing toward the source.  This
module checks those properties mechanically:

* :func:`check_swat` — after an update, every level holds at most three
  nodes (the top exactly one), every filled node carries at most ``k``
  coefficients, and each filled node's ``end_time`` sits exactly where the
  ``2^l`` refresh cadence puts it.
* :func:`check_async_asr` — on every root-ward path of the replication
  tree, cached range widths are monotone non-increasing toward the source.

Checking is off by default.  Turn it on per object with
``check_invariants=True`` (:class:`repro.core.swat.Swat`,
:class:`repro.replication.async_asr.AsyncSwatAsr`) or process-wide with the
``REPRO_CHECK_INVARIANTS=1`` environment variable; a disabled tree pays one
attribute read per update.  Violations raise :exc:`InvariantViolation`
naming the offending level or site.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # avoid runtime circular imports; checkers take the objects
    from .core.swat import Swat
    from .replication.async_asr import AsyncSwatAsr

__all__ = [
    "InvariantViolation",
    "invariants_enabled",
    "resolve_check_flag",
    "check_swat",
    "check_async_asr",
]

#: Environment switch read by :func:`invariants_enabled`.
ENV_VAR = "REPRO_CHECK_INVARIANTS"

_FALSY = frozenset({"", "0", "false", "no", "off"})

#: Slack for float comparisons on cached range widths: a child's range may be
#: narrower than its parent's by rounding alone.
_WIDTH_TOLERANCE = 1e-9


class InvariantViolation(AssertionError):
    """A structural contract of the SWAT tree or ASR directory was broken."""


def invariants_enabled() -> bool:
    """True when ``REPRO_CHECK_INVARIANTS`` is set to a truthy value."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSY


def resolve_check_flag(check_invariants: Optional[bool]) -> bool:
    """Per-object flag resolution: an explicit argument wins, ``None``
    defers to the environment switch."""
    if check_invariants is None:
        return invariants_enabled()
    return bool(check_invariants)


# ------------------------------------------------------------------- SWAT


def check_swat(tree: "Swat") -> None:
    """Verify the structural invariants of a :class:`~repro.core.swat.Swat`.

    Raises :exc:`InvariantViolation` naming the offending level and role.
    Checks, per Section 2 / Figure 3(a):

    * level ``l < n-1`` holds exactly the roles {R, S, L} and the top level
      exactly {R} (the ``3 log N - 2`` layout);
    * every filled node stores at most ``k`` coefficients;
    * refresh cadence: with ``t`` arrivals seen and ``p = 2^l``, a filled
      ``R_l`` ends at the latest refresh tick ``t - (t mod p)``, ``S_l`` one
      period earlier, and ``L_l`` two periods earlier.

    A tree *settling* after a live :meth:`~repro.core.swat.Swat.reconfigure`
    is excused from the cadence check only — the structural and ``k`` bounds
    still hold — because reconfiguration legitimately leaves nodes stale
    until the shift pipeline refills the disturbed levels.  The excusal ends
    the moment the tree clears its settling flag.
    """
    t = tree.time
    settling = tree.settling
    top = tree.n_levels - 1
    for level in range(tree.n_levels):
        roles = tree._levels[level]
        expected = ("R",) if level == top else ("R", "S", "L")
        if sorted(roles) != sorted(expected):
            raise InvariantViolation(
                f"level {level}: roles {sorted(roles)} != expected "
                f"{sorted(expected)} (top level keeps only R)"
            )
        if len(roles) > 3:
            raise InvariantViolation(
                f"level {level}: {len(roles)} nodes exceeds the 3-node bound"
            )
        period = 1 << level
        refresh_tick = t - (t % period)
        for role, node in roles.items():
            if not node.is_filled:
                continue
            coeffs = node.coeffs
            assert coeffs is not None  # is_filled just said so
            if coeffs.size > tree.k:
                raise InvariantViolation(
                    f"level {level} node {role}: {coeffs.size} coefficients "
                    f"exceeds k={tree.k}"
                )
            if settling:
                continue  # cadence legitimately disturbed mid-reconfigure
            lag = {"R": 0, "S": 1, "L": 2}[role]
            expected_end = refresh_tick - lag * period
            if node.end_time != expected_end:
                raise InvariantViolation(
                    f"level {level} node {role}: end_time={node.end_time} "
                    f"violates the 2^{level}-arrival refresh cadence at t={t} "
                    f"(expected {expected_end})"
                )


# -------------------------------------------------------------------- ASR


def check_async_asr(asr: "AsyncSwatAsr") -> None:
    """Verify the ASR directory's precision monotonicity (Section 3).

    On every root-ward path, a cached child's range must be at least as wide
    as its parent's — the parent sits closer to the source, so its copy can
    only be fresher.  Raises :exc:`InvariantViolation` naming the child
    site, its parent, and the segment.  Uncached children offer infinite
    width and are skipped.  The contract holds on every root-ward edge
    *except* where fault injection legitimately broke it:

    * a crashed child (or a child of a crashed parent) is skipped — its rows
      are frozen mid-outage by construction;
    * a ``(child, segment)`` pair the parent has marked *unsynced* (an UPDATE
      push exhausted its retries) is excused until the parent's re-sync loop
      repairs it;
    * a row the child itself distrusts after its own recovery
      (``_suspect``) is excused — the site already refuses to serve it.

    Everything else must satisfy the Section 3 monotonicity.  Called after
    every arrival and phase boundary when invariant checking is on.
    """
    transport = asr.transport
    for node in asr.topology.clients:
        parent = asr.topology.parent(node)
        assert parent is not None
        if not transport.is_up(node) or not transport.is_up(parent):
            continue
        child_site = asr.sites[node]
        parent_site = asr.sites[parent]
        excused = parent_site.unsynced.get(node, frozenset())
        for seg in asr._segments:
            if seg in excused:
                continue
            child_row = child_site.directory.row(seg)
            if not child_row.is_cached or child_site._suspect(seg):
                continue
            parent_row = parent_site.directory.row(seg)
            if parent_row.width > child_row.width + _WIDTH_TOLERANCE:
                raise InvariantViolation(
                    f"segment {seg}: cached width at {node!r} "
                    f"({child_row.width:g}) is tighter than at its parent "
                    f"{parent!r} ({parent_row.width:g}) and the pair is not "
                    "in a degraded state (crashed, unsynced, or suspect); "
                    "precision must be monotone non-increasing toward the "
                    "source"
                )
