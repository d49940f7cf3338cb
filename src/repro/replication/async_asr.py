"""SWAT-ASR: adaptive stream replication (Section 3), as communicating actors.

The window is split into the ``log N`` directory segments of Table 1, each
running an ADR-style replication scheme over the spanning tree (Figure 8).
The source pushes a segment's fresh range to subscribers only when the range
it stored does not enclose it; a site answers a query when the weighted
width of its cached ranges is within the query's delta, and otherwise
forwards the whole query one hop toward the source; at each phase end,
fringes contract where writes outran reads and schemes expand toward
children whose reads outran writes.  Cached precision never tightens down
the tree (:func:`repro.contracts.check_async_asr`).

Sites exchange envelopes through :class:`repro.network.transport.Transport`:
queries travel hop by hop with request/response correlation ids, updates
cascade as real deliveries, and per-hop latency is an actual simulator
delay — so response latency is measured, not derived.

At zero latency without faults the execution is step-for-step the
counted-call Figure 8 model in ``tests/reference_asr.py``: identical message
counts, answers and directory state (``tests/test_async_asr.py``).  The
Figure 9-10 drivers run that configuration.  With positive latency the
protocol exhibits what a real deployment would: stale reads in flight,
delayed refreshes, and measurable round-trip times.

Fault tolerance
---------------
Constructed with a :class:`~repro.network.faults.FaultPlan`, the system keeps
answering through message loss and site churn instead of raising:

* a query whose root-ward forward exhausts its retries (the parent is
  crashed or the link too lossy) is answered from the forwarding site's
  **last-known summary** with a *widened* precision interval
  (:data:`DEGRADED_WIDEN_FACTOR`) and a staleness stamp;
* a response chain lost beyond the retry cap falls back to the issuing
  client's own last-known summary (same widening + stamp) — every query gets
  an answer;
* an update that cannot reach a subscribed child marks that ``(child,
  segment)`` pair *unsynced*; the parent re-syncs the child with a fresh
  UPDATE as soon as it is reachable again (checked on every arrival and
  phase boundary);
* every UPDATE/INSERT carries the sender's monotone sequence number;
  retransmission and jitter can deliver two pushes for the same segment out
  of order, and the version guard stops the stale one from overwriting the
  fresh one (on a loss-free network the guard never fires);
* a query issued at a crashed site is served by its local stub from the
  site's last-known directory, stamped degraded.

Every answer is recorded as a :class:`QueryOutcome` carrying the value, a
covering interval, the degraded flag, and the staleness stamp, so harnesses
can verify the acceptance property: the interval covers the truth *or* the
answer is stamped stale.  The root-ward width-monotonicity contract knows
about the degraded state: unsynced pairs and crashed sites are excused
(:func:`repro.contracts.check_async_asr`).
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from .. import contracts
from ..control.governor import ReplicaGovernor
from ..core.coverage import CoverageError
from ..core.queries import InnerProductQuery
from ..core.swat import Swat
from ..metrics.error import GroundTruthWindow
from ..network.directory import Directory, DirectoryRow, Segment, SegmentPlanCache
from ..network.faults import FaultPlan
from ..network.messages import MessageKind, MessageStats
from ..network.topology import Topology
from ..network.transport import Envelope, Transport
from ..obs import causal as causal_mod
from ..obs import metrics as obs
from ..obs.causal import CausalTracer, Span, TraceContext
from ..persist import (
    CheckpointCorruptError,
    CheckpointPolicy,
    CheckpointStore,
    load_checkpoint,
)
from ..simulate import shake as shake_mod
from ..simulate.events import Simulator
from .base import require_positive_weights

__all__ = ["AsyncSwatAsr", "QueryOutcome", "DEGRADED_WIDEN_FACTOR"]

logger = logging.getLogger(__name__)

#: Checkpoint kind tag for per-site protocol state.
SITE_CHECKPOINT_KIND = "asr-site"

#: Degraded answers multiply the last-known range width by this factor: the
#: summary may have drifted while the site was partitioned, so the served
#: interval hedges beyond the stored precision.
DEGRADED_WIDEN_FACTOR = 2.0

#: Internal answer payload: the serving site's ``value`` (sum of weight x
#: estimate) and ``slack`` (sum of |weight| x halfwidth), both summed in the
#: query's index order, plus provenance metadata.
_AnswerPayload = Mapping[str, Any]
_AnswerCallback = Callable[[_AnswerPayload], None]


@dataclass(frozen=True)
class QueryOutcome:
    """One answered query, with its precision claim and provenance.

    ``interval`` is the served confidence interval ``[value - slack,
    value + slack]``; for a non-degraded answer the protocol guarantees it
    covers the true inner product at serve time.  ``degraded`` marks answers
    served from a last-known summary after a failure; those carry
    ``stale_since`` — the virtual time the serving site last synced the
    oldest queried segment (``None`` when it never has).
    """

    client: str
    value: float
    interval: Tuple[float, float]
    degraded: bool
    stale_since: Optional[float]
    served_by: str
    issued_at: float
    answered_at: float
    #: Causal trace id of the query's span tree (``None`` when causal
    #: tracing was off); resolves via ``CausalTracer.tree(trace_id)`` — for
    #: a degraded answer, the tree shows exactly which hop failed.
    trace_id: Optional[int] = None

    @property
    def latency(self) -> float:
        return self.answered_at - self.issued_at

    def covers(self, truth: float, tolerance: float = 1e-9) -> bool:
        """True when the served interval contains ``truth``."""
        return self.interval[0] - tolerance <= truth <= self.interval[1] + tolerance


def _answer(
    query: InnerProductQuery,
    estimates: Mapping[int, float],
    halfwidths: Mapping[int, float],
    served_by: str,
) -> Dict[str, Any]:
    """The answer payload for per-index estimates and halfwidths.

    Both sums run in the query's index order, so the served value and
    interval do not depend on how the indices were grouped by segment.
    """
    pairs = tuple(zip(query.indices, query.weights))
    return {
        "value": sum(w * estimates[i] for i, w in pairs),
        "slack": sum(abs(w) * halfwidths[i] for i, w in pairs),
        "served_by": served_by,
    }


class _Site:
    """One site actor: a directory plus pending-query bookkeeping."""

    def __init__(self, node_id: str, system: "AsyncSwatAsr") -> None:
        self.id = node_id
        self.system = system
        #: The source serves every query it sees from the exact window.
        self.is_root = node_id == system.topology.root
        self.directory = Directory(system.window_size)
        # qid -> ("child", child_id, ctx) | ("local", callback, ctx); ctx is
        # the causal trace context the answer should continue under.
        self.pending: Dict[int, Tuple[str, object, Optional[TraceContext]]] = {}
        #: Last virtual time an UPDATE/INSERT for the segment was applied
        #: here (staleness stamps for degraded answers).
        self.last_update_at: Dict[Segment, float] = {}
        #: child -> segments whose updates could not be delivered; re-synced
        #: when the child becomes reachable again.
        self.unsynced: Dict[str, Set[Segment]] = {}
        self._resync_scheduled = False
        # Update sequencing: retransmission and jitter can reorder two pushes
        # for the same segment on the same edge, letting a stale range
        # overwrite a fresh one.  Every push carries this site's monotone
        # sequence number; the receiver rejects anything at or below the
        # version it last applied (updates flow only parent -> child, so the
        # per-sender sequence totally orders each receiver's update stream).
        self._push_seq = 0
        self._applied_version: Dict[Segment, int] = {}
        #: Virtual time through which a successful warm restore re-certified
        #: this site's pre-crash rows (``None`` until one happens).  A warm
        #: restore makes pre-crash rows exactly as trustworthy as the normal
        #: unsynced-pair window: every update the site missed while down was
        #: marked unsynced at its parent (delivery failed), so the rows it
        #: kept are valid by enclosure gating and the parent re-syncs the
        #: rest.
        self.trusted_restore_through: Optional[float] = None

    # --------------------------------------------------------------- queries

    def issue_query(
        self,
        query: InnerProductQuery,
        callback: _AnswerCallback,
        ctx: Optional[TraceContext] = None,
    ) -> Optional[int]:
        """Answer locally or forward root-ward; returns the correlation id
        of a forwarded query (``None`` when answered on the spot)."""
        payload = self._try_satisfy(query, from_child=None)
        if payload is not None:
            callback(payload)
            return None
        qid = self.system.transport.fresh_id()
        self.pending[qid] = ("local", callback, ctx)
        self._forward_query(qid, query, ctx)
        return qid

    def _forward_query(
        self, qid: int, query: InnerProductQuery, ctx: Optional[TraceContext] = None
    ) -> None:
        parent = self.system.topology.parent(self.id)
        assert parent is not None  # the root always satisfies
        self.system.transport.send(
            self.id,
            parent,
            MessageKind.QUERY,
            {"qid": qid, "query": query},
            on_failed=lambda env: self._on_forward_failed(qid, query),
            trace=ctx,
        )

    def _try_satisfy(
        self, query: InnerProductQuery, from_child: Optional[str]
    ) -> Optional[_AnswerPayload]:
        """Figure 8(a) query branch: whole-query precision test at this site."""
        by_segment = self.system.group_by_segment(query)
        if shake_mod.DETECTOR is not None:
            for seg in by_segment:
                shake_mod.note_read(f"site:{self.id}", "directory", seg)
        rows = self.directory.rows
        if self.is_root:
            for seg in by_segment:
                self._count_read(rows[seg], from_child)
            return {
                "value": self.system.window.inner_product(query),
                "slack": 0.0,
                "served_by": self.id,
            }
        weights = dict(zip(query.indices, query.weights))
        # Without a fault plan no row is suspect (_suspect returns False).
        check_suspect = self.system.transport.faults is not None
        offered = 0.0
        for seg, indices in by_segment.items():
            # A row this site must not trust forwards the query root-ward at
            # once, whatever the precision asked for: uncached rows, and rows
            # last synced before the site's own most recent crash recovery
            # (a restarted process knows it restarted; anything older than
            # the restart may have missed updates, so a fresh answer comes
            # from upstream instead).
            approx = rows[seg].approx
            if approx is None or (check_suspect and self._suspect(seg)):
                return None
            offered += sum(map(weights.__getitem__, indices)) * (approx[1] - approx[0])
        if not offered <= query.precision:  # fails closed on nan
            return None
        estimates: Dict[int, float] = {}
        halfwidths: Dict[int, float] = {}
        for seg, indices in by_segment.items():
            row = rows[seg]
            self._count_read(row, from_child)
            for idx in indices:
                estimates[idx] = row.midpoint
                halfwidths[idx] = row.width / 2.0
        return _answer(query, estimates, halfwidths, self.id)

    def _suspect(self, seg: Segment) -> bool:
        """True when the row was last synced before this site's most recent
        recovery from a crash window — unless a warm restore from a valid
        checkpoint covered that recovery, in which case the restored rows
        carry the full trust of checkpoint + WAL replay."""
        plan = self.system.transport.faults
        if plan is None:
            return False
        recovered_at = plan.last_recovery_before(self.id, self.system.sim.now)
        if recovered_at is None:
            return False
        if (
            self.trusted_restore_through is not None
            and self.trusted_restore_through >= recovered_at
        ):
            return False
        seen_at = self.last_update_at.get(seg)
        return seen_at is None or seen_at < recovered_at

    def degraded_payload(self, query: InnerProductQuery) -> _AnswerPayload:
        """Last-known answer with widened halfwidths and a staleness stamp.

        Served when the root-ward path is unreachable: cached rows answer
        with their midpoint and ``DEGRADED_WIDEN_FACTOR``-widened width,
        uncached rows answer 0 with an infinite halfwidth.  The stamp is the
        oldest last-sync time over the queried segments (``None`` when the
        site has never synced one of them).
        """
        by_segment = self.system.group_by_segment(query)
        estimates: Dict[int, float] = {}
        halfwidths: Dict[int, float] = {}
        stale_since: Optional[float] = None
        never_synced = False
        for seg, indices in by_segment.items():
            row = self.directory.row(seg)
            if row.is_cached:
                mid = row.midpoint
                half = row.width * DEGRADED_WIDEN_FACTOR / 2.0
            else:
                mid, half = 0.0, float("inf")
            for idx in indices:
                estimates[idx] = mid
                halfwidths[idx] = half
            seen_at = self.last_update_at.get(seg)
            if seen_at is None:
                never_synced = True
            elif stale_since is None or seen_at < stale_since:
                stale_since = seen_at
        return {
            **_answer(query, estimates, halfwidths, self.id),
            "degraded": True,
            "stale_since": None if never_synced else stale_since,
        }

    @staticmethod
    def _count_read(row: DirectoryRow, from_child: Optional[str]) -> None:
        if from_child is None:
            row.local_reads += 1
        else:
            row.note_read(from_child)

    # -------------------------------------------------------------- messages

    def handle(self, env: Envelope) -> None:
        if env.kind == MessageKind.QUERY:
            self._handle_query(env)
        elif env.kind == MessageKind.RESPONSE:
            self._handle_response(env)
        elif env.kind == MessageKind.UPDATE or env.kind == MessageKind.INSERT:
            self.apply_update(
                env.payload["segment"],
                env.payload["range"],
                version=cast(Optional[int], env.payload.get("version")),
                ctx=env.trace,
            )
        elif env.kind == MessageKind.UNSUBSCRIBE:
            seg = env.payload["segment"]
            self.directory.row(seg).subscribed.discard(env.src)
            self._wal(
                {"k": "unsub", "seg": [seg.newest, seg.oldest], "src": env.src}
            )
        else:  # pragma: no cover - transport validates kinds
            raise ValueError(f"unexpected envelope kind {env.kind!r}")

    def _respond(
        self, child: str, payload: _AnswerPayload, ctx: Optional[TraceContext] = None
    ) -> None:
        """Send a RESPONSE one hop down; a lost response is only counted —
        the issuing client's local fallback guarantees an answer."""
        self.system.transport.send(
            self.id,
            child,
            MessageKind.RESPONSE,
            payload,
            on_failed=self.system._on_response_lost,
            trace=ctx,
        )

    def _handle_query(self, env: Envelope) -> None:
        qid, query = env.payload["qid"], env.payload["query"]
        payload = self._try_satisfy(query, from_child=env.src)
        if payload is not None:
            self._respond(env.src, {"qid": qid, **payload}, ctx=env.trace)
            return
        if shake_mod.DETECTOR is not None:
            shake_mod.note_write(f"site:{self.id}", "pending", qid)
        self.pending[qid] = ("child", env.src, env.trace)
        self._forward_query(qid, query, env.trace)

    def _handle_response(self, env: Envelope) -> None:
        qid = env.payload["qid"]
        if shake_mod.DETECTOR is not None:
            shake_mod.note_write(f"site:{self.id}", "pending", qid)
        entry = self.pending.pop(qid, None)
        if entry is None:
            # The query was already answered degraded: the root-ward forward
            # was declared failed (its acks were lost) yet a copy got through
            # and produced this late response.  First answer wins.
            if obs.ENABLED:
                obs.counter("asr.late_responses", site=self.id).inc()
            return
        origin, target, __ = entry
        if origin == "child":
            # Continue the response chain under the incoming hop, not the
            # original forward: the trace should read request-then-response.
            self._respond(cast(str, target), env.payload, ctx=env.trace)
        else:
            cast(_AnswerCallback, target)(env.payload)

    def _on_forward_failed(self, qid: int, query: InnerProductQuery) -> None:
        """Root-ward forward exhausted its retries: serve the last-known
        summary from *this* site instead of raising (Figure 8(a) degraded)."""
        if shake_mod.DETECTOR is not None:
            shake_mod.note_write(f"site:{self.id}", "pending", qid)
        entry = self.pending.pop(qid, None)
        if entry is None:
            return  # already answered through another path
        if obs.ENABLED:
            obs.counter("asr.degraded_serves", site=self.id).inc()
        origin, target, ctx = entry
        causal = self.system.causal
        if causal is not None and ctx is not None:
            causal.event(
                "degraded_serve", at=self.system.sim.now, parent=ctx, site=self.id
            )
        payload = self.degraded_payload(query)
        if origin == "child":
            self._respond(cast(str, target), {"qid": qid, **payload}, ctx=ctx)
        else:
            cast(_AnswerCallback, target)(payload)

    def apply_update(
        self,
        seg: Segment,
        rng: Tuple[float, float],
        version: Optional[int] = None,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """Figure 8(a) update branch: enclosure-gated cascade.

        ``version`` is the sender's per-push sequence number; an update at or
        below the version already applied here is a reordered stale copy and
        is dropped (on a loss-free FIFO network versions only ever increase,
        so the guard never fires and the zero-fault path is unchanged).
        """
        if version is not None:
            if version <= self._applied_version.get(seg, 0):
                if obs.ENABLED:
                    obs.counter("asr.stale_updates_dropped", site=self.id).inc()
                causal = self.system.causal
                if causal is not None and ctx is not None:
                    causal.event(
                        "stale_update_dropped",
                        at=self.system.sim.now,
                        parent=ctx,
                        site=self.id,
                        version=version,
                    )
                return
            self._applied_version[seg] = version
        if shake_mod.DETECTOR is not None:
            shake_mod.note_write(f"site:{self.id}", "directory", seg)
        row = self.directory.row(seg)
        was_cached = row.is_cached
        enclosed = row.encloses(rng)
        row.approx = rng
        self.last_update_at[seg] = self.system.sim.now
        self._wal(
            {
                "k": "up",
                "seg": [seg.newest, seg.oldest],
                "range": [rng[0], rng[1]],
                "version": version,
                "at": self.system.sim.now,
            }
        )
        if was_cached and not enclosed:
            row.write_count += 1
            # Sorted, not set order: which child's UPDATE is *sent* first
            # decides per-edge fault-roll sequence numbers, so set iteration
            # would leak hash order into delivery fates (REP009).
            for child in sorted(row.subscribed):
                self.push_update(child, seg, rng, MessageKind.UPDATE, ctx=ctx)

    def push_update(
        self,
        child: str,
        seg: Segment,
        rng: Tuple[float, float],
        kind: str,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """Send UPDATE/INSERT to ``child``; an undeliverable push marks the
        pair unsynced for re-sync once the child is reachable again."""
        self._push_seq += 1
        # The sequence counter must survive a restart: a restored site whose
        # counter rewound would emit versions its children already applied —
        # and the stale-version guard would drop its pushes forever.
        self._wal({"k": "push", "n": self._push_seq})
        self.system.transport.send(
            self.id,
            child,
            kind,
            {"segment": seg, "range": rng, "version": self._push_seq},
            on_failed=lambda env: self._on_push_failed(child, seg),
            trace=ctx,
        )

    def _on_push_failed(self, child: str, seg: Segment) -> None:
        if obs.ENABLED:
            obs.counter("asr.unsynced_marks", site=self.id).inc()
        if shake_mod.DETECTOR is not None:
            shake_mod.note_write(f"site:{self.id}", "unsynced", child)
        self.unsynced.setdefault(child, set()).add(seg)
        self._wal({"k": "mark", "child": child, "seg": [seg.newest, seg.oldest]})
        # Reconciliation loop: bounded per-message retries plus a periodic
        # re-sync attempt, the standard shape for AP systems — the loop keeps
        # rescheduling itself until every marked child has been repaired.
        self._schedule_resync()

    def _schedule_resync(self) -> None:
        if self._resync_scheduled:
            return
        # Benign by idempotence: the guard only ever collapses concurrent
        # schedule requests into one pending tick, and a spurious extra tick
        # would re-check `unsynced` and no-op.  Tie-break order cannot change
        # observable behavior, so the write/read race is excused.
        self._resync_scheduled = True  # repro: ignore[REP008]
        delay = self.system.transport.retry_timeout * 4.0
        self.system.sim.schedule_after(
            delay, self._resync_tick, label=f"asr.resync:{self.id}"
        )

    def _resync_tick(self) -> None:
        self._resync_scheduled = False  # repro: ignore[REP008]
        self.resync()
        if self.unsynced:
            self._schedule_resync()

    def resync(self) -> None:
        """Re-push current ranges to children that missed updates and are
        reachable again; undeliverable pushes re-mark themselves."""
        transport = self.system.transport
        causal = self.system.causal
        span: Optional[Span] = None
        ctx: Optional[TraceContext] = None
        pushes = 0
        # Sorted: re-sync pushes are message emission, so dict order here
        # would feed hash order into per-edge fault-roll sequences (REP009).
        for child in sorted(self.unsynced):
            if not transport.is_up(child):
                self._schedule_resync()  # still down: try again later
                continue
            if shake_mod.DETECTOR is not None:
                shake_mod.note_write(f"site:{self.id}", "unsynced", child)
            segments = self.unsynced.pop(child)
            self._wal({"k": "unmark", "child": child})
            for seg in sorted(segments, key=lambda s: (s.newest, s.oldest)):
                row = self.directory.row(seg)
                if not row.is_cached or child not in row.subscribed:
                    continue  # the scheme moved on; nothing to restore
                if obs.ENABLED:
                    obs.counter("asr.resyncs", site=self.id).inc()
                if causal is not None and span is None:
                    span = causal.start_span(
                        "resync", at=self.system.sim.now, site=self.id
                    )
                    ctx = span.context
                assert row.approx is not None
                self.push_update(child, seg, row.approx, MessageKind.UPDATE, ctx=ctx)
                pushes += 1
        if span is not None:
            span.finish(self.system.sim.now, pushes=pushes)

    # ----------------------------------------------------------- persistence

    def _wal(self, record: Dict[str, Any]) -> None:
        """Durably log one protocol event (no-op without a checkpoint store)."""
        self.system.wal_append(self.id, record)

    def checkpoint_state(self) -> Dict[str, Any]:
        """This site's durable protocol state as a JSON-serializable dict.

        Everything is emitted in sorted/canonical order so identical sites
        checkpoint to identical bytes.  In-flight queries (``pending``) are
        deliberately absent: a crashed process's outstanding queries die with
        it, and the issuing client's degraded fallback already answers them.
        """
        return {
            "site": self.id,
            "directory": self.directory.to_state(),
            "last_update_at": [
                [seg.newest, seg.oldest, at]
                for seg, at in sorted(
                    self.last_update_at.items(),
                    key=lambda kv: (kv[0].newest, kv[0].oldest),
                )
            ],
            "unsynced": [
                [child, sorted([s.newest, s.oldest] for s in segs)]
                for child, segs in sorted(self.unsynced.items())
            ],
            "push_seq": self._push_seq,
            "applied_version": [
                [seg.newest, seg.oldest, version]
                for seg, version in sorted(
                    self._applied_version.items(),
                    key=lambda kv: (kv[0].newest, kv[0].oldest),
                )
            ],
        }

    def restore_from(
        self, state: Mapping[str, Any], records: Sequence[Any]
    ) -> None:
        """Warm-restore: adopt a checkpoint state, then replay WAL records.

        Everything is validated and reconstructed into locals first; the
        site's live state is swapped only once the whole restore has
        succeeded, so a malformed checkpoint or WAL record (:exc:`ValueError`)
        leaves the site untouched for the legacy cold-resync fallback.

        Replay is a *state* reconstruction, not a re-execution: no messages
        are sent.  ``up`` records redo the enclosure-gated row write (same
        ``write_count`` bookkeeping as :meth:`apply_update`), ``push``
        records restore the monotone sequence counter (so the restored site
        never re-issues versions its children already applied), and
        ``mark``/``unmark`` records rebuild the unsynced map.
        """
        segment_by_pair = {
            (s.newest, s.oldest): s for s in self.directory.segments
        }

        def seg_of(pair: Any) -> Segment:
            try:
                key = (int(pair[0]), int(pair[1]))
            except (TypeError, ValueError, IndexError) as exc:
                raise ValueError(
                    f"malformed site state: bad segment {pair!r}"
                ) from exc
            seg = segment_by_pair.get(key)
            if seg is None:
                raise ValueError(f"malformed site state: unknown segment {key}")
            return seg

        try:
            if state["site"] != self.id:
                raise ValueError(
                    f"malformed site state: checkpoint for {state['site']!r} "
                    f"offered to {self.id!r}"
                )
            directory = Directory(self.system.window_size)
            directory.load_state(state["directory"])
            last_update_at = {
                seg_of(entry[:2]): float(entry[2])
                for entry in state["last_update_at"]
            }
            unsynced = {
                str(child): {seg_of(pair) for pair in pairs}
                for child, pairs in state["unsynced"]
            }
            push_seq = int(state["push_seq"])
            applied = {
                seg_of(entry[:2]): int(entry[2])
                for entry in state["applied_version"]
            }
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed site state: {exc}") from exc

        for rec in records:
            try:
                kind = rec["k"]
                if kind == "up":
                    seg = seg_of(rec["seg"])
                    lo, hi = (float(v) for v in rec["range"])
                    row = directory.row(seg)
                    was_cached = row.is_cached
                    enclosed = row.encloses((lo, hi))
                    row.approx = (lo, hi)
                    last_update_at[seg] = float(rec["at"])
                    version = rec.get("version")
                    if version is not None:
                        applied[seg] = max(applied.get(seg, 0), int(version))
                    if was_cached and not enclosed:
                        row.write_count += 1
                elif kind == "unsub":
                    directory.row(seg_of(rec["seg"])).subscribed.discard(
                        str(rec["src"])
                    )
                elif kind == "push":
                    push_seq = max(push_seq, int(rec["n"]))
                elif kind == "mark":
                    unsynced.setdefault(str(rec["child"]), set()).add(
                        seg_of(rec["seg"])
                    )
                elif kind == "unmark":
                    unsynced.pop(str(rec["child"]), None)
                else:
                    raise ValueError(f"unknown WAL record kind {kind!r}")
            except (KeyError, IndexError, TypeError) as exc:
                raise ValueError(
                    f"malformed WAL record {rec!r}: {exc}"
                ) from exc

        self.directory = directory
        self.last_update_at = last_update_at
        self.unsynced = unsynced
        self._push_seq = push_seq
        self._applied_version = applied
        self.pending.clear()
        if self.unsynced:
            self._schedule_resync()


class AsyncSwatAsr:
    """The SWAT-ASR protocol executed over a message transport.

    Parameters
    ----------
    topology:
        Spanning tree with the stream source at the root.
    window_size:
        Sliding window size ``N`` (power of two).
    latency:
        Per-hop delivery delay in virtual seconds.
    sim:
        Optional shared simulator (a private one is created otherwise).
    faults:
        Optional :class:`~repro.network.faults.FaultPlan`; attaching one
        turns on the transport's reliability sublayer and this protocol's
        graceful degradation (see the module docstring).  ``None`` keeps the
        perfect-network behavior bit-identical to before.
    retry_timeout, max_retries:
        Reliability tuning forwarded to the transport (fault mode only).
    check_invariants:
        Run :func:`repro.contracts.check_async_asr` after every arrival and
        phase boundary; ``None`` defers to ``REPRO_CHECK_INVARIANTS``.
    causal:
        Optional :class:`~repro.obs.causal.CausalTracer`; defaults to the
        ambient tracer (:func:`repro.obs.causal.current_causal`), so
        ``enable_causal()`` before construction traces every query, update
        cascade, and phase as a connected span tree.
    checkpoints:
        Optional :class:`~repro.persist.CheckpointStore`; attaching one
        turns on durable per-site checkpoints plus write-ahead logging, and
        crash recovery *warm-restores* sites from their latest valid
        checkpoint instead of distrusting everything they knew.  A missing
        or corrupt checkpoint falls back to the legacy distrust-and-resync
        path.  ``None`` (the default) keeps behavior identical to before.
    checkpoint_policy:
        When to cut checkpoints (requires ``checkpoints``); defaults to
        :class:`~repro.persist.CheckpointPolicy`'s every-phase trigger.
    governor:
        Optional :class:`~repro.control.governor.ReplicaGovernor` capping
        cached directory rows per client site.  At each phase end — after
        the protocol's own contraction pass — an over-budget site evicts
        its least-read unpinned rows through the ordinary unsubscribe path
        and re-negotiates precision later if interest returns.  ``None``
        (the default) keeps behavior bit-identical to before.
    use_summary_ranges:
        Take segment ranges from a deviation-tracked 1-coefficient SWAT at
        the source instead of exact min/max over the raw window: certified
        supersets (average ± max deviation), so answers stay within
        precision at the cost of extra forwarding.  Only this mode keeps the
        SWAT.
    """

    name = "SWAT-ASR"

    def __init__(
        self,
        topology: Topology,
        window_size: int,
        latency: float = 0.0,
        sim: Optional[Simulator] = None,
        faults: Optional[FaultPlan] = None,
        retry_timeout: Optional[float] = None,
        max_retries: int = 3,
        check_invariants: Optional[bool] = None,
        causal: Optional[CausalTracer] = None,
        checkpoints: Optional[CheckpointStore] = None,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
        governor: Optional[ReplicaGovernor] = None,
        use_summary_ranges: bool = False,
    ) -> None:
        self.topology = topology
        self.window_size = window_size
        self.sim = sim or Simulator()
        self.causal = causal if causal is not None else causal_mod.current_causal()
        self.transport = Transport(
            self.sim,
            topology,
            latency=latency,
            faults=faults,
            retry_timeout=retry_timeout,
            max_retries=max_retries,
            causal=self.causal,
        )
        # Labelled, so the registry mirror reads messages.<kind>{protocol=...}
        # beside the DC and APS series.
        self.transport.stats = MessageStats(protocol=self.name)
        self.window = GroundTruthWindow(window_size)
        self.sites: Dict[str, _Site] = {
            node: _Site(node, self) for node in topology.nodes
        }
        for node, site in self.sites.items():
            self.transport.register(node, site.handle)
        self._segments = self.sites[topology.root].directory.segments
        # One grouping cache for all sites: segments depend only on N.
        self._segment_plans = SegmentPlanCache(self.sites[topology.root].directory)
        self.query_latencies: List[float] = []
        self.query_outcomes: List[QueryOutcome] = []
        self.last_query_hops = 0
        self._depth: Dict[str, int] = {node: topology.depth(node) for node in topology.nodes}
        self._check = contracts.resolve_check_flag(check_invariants)
        self.use_summary_ranges = bool(use_summary_ranges)
        self._summary: Optional[Swat] = (
            Swat(window_size, track_deviation=True, check_invariants=self._check)
            if self.use_summary_ranges
            else None
        )
        if checkpoint_policy is not None and checkpoints is None:
            raise ValueError("checkpoint_policy requires a CheckpointStore")
        self.checkpoints = checkpoints
        self.checkpoint_policy = (
            checkpoint_policy
            if checkpoint_policy is not None
            else (CheckpointPolicy() if checkpoints is not None else None)
        )
        #: Stream arrivals since the last checkpoint (policy arrival trigger).
        self._arrivals_since_ckpt = 0
        #: site -> recovery time already handled by a warm-restore attempt,
        #: so each crash window triggers exactly one restore.
        self._recovered_through: Dict[str, float] = {}
        #: Global checkpoint sequence number; part of the torn-write roll key
        #: so every write's fate is an independent (but seeded) draw.
        self._ckpt_seq = 0
        self.governor = governor

    @property
    def stats(self) -> "MessageStats":
        return self.transport.stats

    @property
    def faults(self) -> Optional[FaultPlan]:
        return self.transport.faults

    @property
    def is_warm(self) -> bool:
        return len(self.window) >= self.window_size

    def group_by_segment(
        self, query: InnerProductQuery
    ) -> Mapping[Segment, Sequence[int]]:
        """Query indices grouped by directory segment (cached per shape).

        The grouping is shared between calls — treat it as read-only.
        """
        return self._segment_plans.group(query.indices)

    def _on_response_lost(self, env: Envelope) -> None:
        if obs.ENABLED:
            obs.counter("asr.lost_responses").inc()

    def _resync_all(self) -> None:
        """Give every site a chance to repair children that missed updates."""
        for node in self.topology.nodes:
            site = self.sites[node]
            if site.unsynced:
                site.resync()

    # ----------------------------------------------------- durable checkpoints

    def wal_append(self, site: str, record: Dict[str, Any]) -> None:
        """Append one record to ``site``'s WAL (no-op without a store).

        A full WAL forces a checkpoint first — the bound exists so replay
        time stays bounded, and cutting a checkpoint is exactly how the
        bound is honored.
        """
        if self.checkpoints is None:
            return
        wal = self.checkpoints.wal(site)
        if wal.is_full:
            self._checkpoint_site(site)  # resets the WAL
        wal.append(record)

    def checkpoint_all(self) -> None:
        """Cut a checkpoint for every live site and reset the arrival counter.

        Crashed sites are skipped: a dead process cannot write, and its
        last on-disk checkpoint + WAL is precisely what recovery should see.
        """
        if self.checkpoints is None:
            return
        for node in self.topology.nodes:
            if not self.transport.is_up(node):
                continue
            self._checkpoint_site(node)
        # Benign by construction: on_data/on_phase_end are driver-sequenced
        # entry points, never same-timestamp simulator events, and a
        # reset/increment tie could only shift the *next* arrival-triggered
        # checkpoint by one arrival — query answers are unaffected.
        self._arrivals_since_ckpt = 0  # repro: ignore[REP008]

    def _checkpoint_site(self, site_id: str) -> None:
        assert self.checkpoints is not None
        site = self.sites[site_id]
        span: Optional[Span] = None
        if self.causal is not None:
            span = self.causal.start_span(
                "checkpoint.write", at=self.sim.now, site=site_id
            )
        self._ckpt_seq += 1
        written = self.checkpoints.write(
            site_id,
            SITE_CHECKPOINT_KIND,
            site.checkpoint_state(),
            {"site": site_id, "at": self.sim.now, "window_size": self.window_size},
            faults=self.faults,
            torn_key=(zlib.crc32(site_id.encode("utf-8")), self._ckpt_seq),
        )
        if span is not None:
            span.finish(self.sim.now, bytes=written)

    def _note_arrival(self) -> None:
        if self.checkpoint_policy is None:
            return
        self._arrivals_since_ckpt += 1
        if self.checkpoint_policy.due_after_arrival(self._arrivals_since_ckpt):
            self.checkpoint_all()  # resets the counter

    def _handle_recoveries(self) -> None:
        """Warm-restore any site whose crash window has just ended.

        Called at the top of every entry point (arrival, query, phase) after
        virtual time has advanced, i.e. the first moment the driver touches
        the protocol once a site is back up — the same moment the legacy
        distrust window starts, so the two recovery paths are compared from
        identical starting lines.
        """
        if self.checkpoints is None or self.faults is None:
            return
        for node in self.topology.nodes:
            recovered_at = self.faults.last_recovery_before(node, self.sim.now)
            if recovered_at is None:
                continue
            if self._recovered_through.get(node, float("-inf")) >= recovered_at:
                continue
            self._recovered_through[node] = recovered_at
            self._warm_restore(node, recovered_at)

    def _warm_restore(self, node: str, recovered_at: float) -> None:
        """Restore ``node`` from checkpoint + WAL; fall back silently.

        Any failure — missing file, checksum mismatch (torn write), or a
        state dict that fails validation — leaves the site on the legacy
        distrust-and-resync path: exactly the behavior this subsystem's
        ``checkpoints=None`` mode has, just with a counter explaining why.
        """
        assert self.checkpoints is not None
        site = self.sites[node]
        span: Optional[Span] = None
        if self.causal is not None:
            span = self.causal.start_span(
                "checkpoint.load", at=self.sim.now, site=node
            )
        try:
            state, _meta = load_checkpoint(
                self.checkpoints.checkpoint_path(node), SITE_CHECKPOINT_KIND
            )
        except FileNotFoundError:
            if obs.ENABLED:
                obs.counter("checkpoint.load.missing").inc()
            if span is not None:
                span.finish(self.sim.now, outcome="missing")
            return
        except CheckpointCorruptError:
            # checkpoint.load.corrupt was bumped by the loader.
            if span is not None:
                span.finish(self.sim.now, outcome="corrupt")
            return
        if span is not None:
            span.finish(self.sim.now, outcome="ok")
        records, _torn = self.checkpoints.wal(node).replay()
        replay_span: Optional[Span] = None
        if self.causal is not None:
            replay_span = self.causal.start_span(
                "checkpoint.replay", at=self.sim.now, site=node
            )
        try:
            site.restore_from(state, records)
        except ValueError:
            # Checksum-valid but semantically invalid state (e.g. written by
            # a different configuration): refuse it, keep the cold path.
            if obs.ENABLED:
                obs.counter("checkpoint.load.corrupt").inc()
            if replay_span is not None:
                replay_span.finish(self.sim.now, outcome="invalid")
            return
        site.trusted_restore_through = recovered_at
        if replay_span is not None:
            replay_span.finish(
                self.sim.now, outcome="ok", records=len(records)
            )
        if obs.ENABLED:
            obs.counter("checkpoint.warm_restores", site=node).inc()
            obs.histogram("checkpoint.replay.records").observe(len(records))

    # ------------------------------------------------------------- data path

    def on_data(self, value: float, now: Optional[float] = None) -> None:
        """A stream arrival at the source; update cascades are real messages.

        With a fault plan attached, recovered children are re-synced first,
        and a crashed source skips the cascade (the window still tracks the
        true stream so recovery resumes from fresh ranges).
        """
        if now is not None and now > self.sim.now:
            self.sim.run_until(now)
        self._handle_recoveries()
        self.window.update(value)
        if self._summary is not None:
            # The summary sees every arrival from the start, so it is warm
            # by the time the window fills and propagation begins.
            self._summary.update(float(value))
        if not self.is_warm:
            self._note_arrival()
            return
        if self.faults is not None:
            self._resync_all()
        source = self.sites[self.topology.root]
        root_span: Optional[Span] = None
        ctx: Optional[TraceContext] = None
        if self.transport.is_up(self.topology.root):
            if self.causal is not None:
                root_span = self.causal.start_span(
                    "update",
                    at=self.sim.now,
                    site=self.topology.root,
                    protocol=self.name,
                )
                ctx = root_span.context
            for seg in self._segments:
                source.apply_update(seg, self._segment_range(seg), ctx=ctx)
        self.transport.drain()
        if root_span is not None and self.causal is not None:
            # Finished after the drain so the span covers the whole cascade
            # (retransmissions included), not just the source-local apply.
            root_span.finish(self.sim.now)
            causal_mod.record_update_trace(self.causal, root_span, self.name)
        self._note_arrival()
        if self._check:
            contracts.check_async_asr(self)

    def _segment_range(self, seg: Segment) -> Tuple[float, float]:
        """The source's fresh range for ``seg``: exact, or the union of
        ``avg ± deviation`` over the summary nodes covering the segment."""
        if self._summary is None:
            return self.window.segment_range(seg.newest, seg.oldest)
        try:
            nodes = self._summary.cover(list(seg.indices())).assignments
        except CoverageError:
            # A few nodes may still be unfilled right after the window first
            # fills; the source always has the raw window to fall back on.
            return self.window.segment_range(seg.newest, seg.oldest)
        return (
            min(node.average() - (node.deviation or 0.0) for node in nodes),
            max(node.average() + (node.deviation or 0.0) for node in nodes),
        )

    # ------------------------------------------------------------ query path

    def on_query(
        self, client: str, query: InnerProductQuery, now: Optional[float] = None
    ) -> float:
        """Issue a query and wait (in virtual time) for its answer.

        Returns the answer value; the full :class:`QueryOutcome` (interval,
        degraded flag, staleness stamp, measured latency) is appended to
        :attr:`query_outcomes`.  Under a fault plan this never raises: a
        crashed client or a fully lost response chain degrades to the
        client's last-known summary instead.  An unknown ``client`` raises
        :exc:`KeyError`, and a weight of zero or below :exc:`ValueError`,
        before the clock moves or a span opens.
        """
        if client not in self.topology:
            raise KeyError(f"unknown site {client!r}")
        require_positive_weights(query)
        if not self.is_warm:
            raise RuntimeError("stream window not yet full; warm up before querying")
        if now is not None and now > self.sim.now:
            self.sim.run_until(now)
        self._handle_recoveries()
        issued_at = self.sim.now
        box: Dict[str, Any] = {}

        def deliver(payload: _AnswerPayload) -> None:
            box["payload"] = payload
            box["at"] = self.sim.now

        root_span: Optional[Span] = None
        ctx: Optional[TraceContext] = None
        if self.causal is not None:
            root_span = self.causal.start_span(
                "query", at=issued_at, site=client, protocol=self.name
            )
            ctx = root_span.context

        site = self.sites[client]
        if not self.transport.is_up(client):
            # The client site itself is down: its local stub answers from
            # the last-known directory rather than erroring out.
            if self.causal is not None:
                self.causal.event(
                    "degraded_stub", at=self.sim.now, parent=ctx, site=client
                )
            deliver(site.degraded_payload(query))
        else:
            qid = site.issue_query(query, deliver, ctx=ctx)
            self.transport.drain()
            if "payload" not in box:
                if self.faults is None:  # pragma: no cover - drain guarantees delivery
                    raise RuntimeError("query was not answered after drain")
                # The response chain was lost beyond the retry cap at some
                # interior hop; serve the client's own last-known summary.
                if qid is not None:
                    site.pending.pop(qid, None)
                if self.causal is not None:
                    self.causal.event(
                        "degraded_stub", at=self.sim.now, parent=ctx, site=client
                    )
                deliver(site.degraded_payload(query))

        payload = box["payload"]
        value: float = payload["value"]
        slack: float = payload["slack"]
        served_by: str = payload["served_by"]
        answered_at: float = box["at"]
        degraded = bool(payload.get("degraded", False))
        if degraded and obs.ENABLED:
            obs.counter("asr.degraded_answers").inc()
        self.last_query_hops = 2 * (self._depth[client] - self._depth[served_by])
        if root_span is not None and self.causal is not None:
            # The span ends when the *answer* landed, not when the drain
            # returned: late retransmissions after a degraded answer stay in
            # the tree but out of this query's wall-clock.
            root_span.finish(
                answered_at,
                degraded=degraded,
                served_by=served_by,
                hops=self.last_query_hops,
            )
            causal_mod.record_query_trace(self.causal, root_span, self.name)
        outcome = QueryOutcome(
            client=client,
            value=value,
            interval=(value - slack, value + slack),
            degraded=degraded,
            stale_since=payload.get("stale_since"),
            served_by=served_by,
            issued_at=issued_at,
            answered_at=answered_at,
            trace_id=None if root_span is None else root_span.trace_id,
        )
        self.query_outcomes.append(outcome)
        self.query_latencies.append(outcome.latency)
        return value

    # ------------------------------------------------------------- phase end

    def on_phase_end(self, now: Optional[float] = None) -> None:
        """Figure 8(b) with real messages: contraction, deepest sites first,
        then expansion, then the counter reset.  Drains between steps, so at
        zero latency effects land in the counted-call model's order."""
        if now is not None and now > self.sim.now:
            self.sim.run_until(now)
        self._handle_recoveries()
        if self.faults is not None:
            self._resync_all()
        root_span: Optional[Span] = None
        ctx: Optional[TraceContext] = None
        if self.causal is not None:
            root_span = self.causal.start_span(
                "phase", at=self.sim.now, site=self.topology.root, protocol=self.name
            )
            ctx = root_span.context
        root = self.topology.root
        clients = sorted(self.topology.clients, key=self.topology.depth, reverse=True)
        for node in clients:
            site = self.sites[node]
            if not self.transport.is_up(node):
                continue  # a crashed site runs no contraction test this phase
            for seg in self._segments:
                row = site.directory.row(seg)
                if row.is_cached and not row.subscribed:
                    if row.local_reads < row.write_count:
                        logger.debug(
                            "phase end t=%g: %s contracts segment %s (reads=%d < writes=%d)",
                            self.sim.now, node, seg, row.local_reads, row.write_count,
                        )
                        row.approx = None
                        parent = self.topology.parent(node)
                        assert parent is not None
                        self.transport.send(
                            node,
                            parent,
                            MessageKind.UNSUBSCRIBE,
                            {"segment": seg},
                            trace=ctx,
                        )
            self.transport.drain()
        if self.governor is not None:
            # Cache-row budget pass: runs after contraction (so rows the
            # protocol already dropped are not double-counted) and before
            # the push loop (so evicted rows receive no fresh pushes this
            # phase).  Same deterministic site order as contraction.
            for node in clients:
                if not self.transport.is_up(node):
                    continue
                site = self.sites[node]
                rows: List[Tuple[Segment, int, bool]] = []
                for seg in self._segments:
                    row = site.directory.row(seg)
                    if row.is_cached:
                        # A row with subscribed children is pinned: evicting
                        # it would break the Section 3 precision chain.
                        rows.append((seg, row.local_reads, bool(row.subscribed)))
                evict = self.governor.select_evictions(rows)
                for seg in evict:
                    site.directory.row(seg).approx = None
                    parent = self.topology.parent(node)
                    assert parent is not None
                    self.transport.send(
                        node,
                        parent,
                        MessageKind.UNSUBSCRIBE,
                        {"segment": seg},
                        trace=ctx,
                    )
                    self.governor.rows_evicted += 1
                    if obs.ENABLED:
                        obs.counter("shed.asr.rows_evicted").inc()
                if evict:
                    self.transport.drain()
        for node in self.topology.nodes:
            site = self.sites[node]
            if not self.transport.is_up(node):
                continue
            for seg in self._segments:
                row = site.directory.row(seg)
                if node != root and not row.is_cached:
                    row.interested.clear()
                    continue
                # Sorted, not set order: these pushes are message emission,
                # so iteration order decides per-edge fault-roll sequence
                # numbers (REP009); hash order must not leak into fates.
                for v in sorted(row.subscribed):
                    if row.write_count < row.read_counts.get(v, 0):
                        assert row.approx is not None
                        site.push_update(v, seg, row.approx, MessageKind.UPDATE, ctx=ctx)
                for v in sorted(row.interested):
                    row.interested.discard(v)
                    if row.write_count < row.read_counts.get(v, 0):
                        logger.debug(
                            "phase end t=%g: scheme for segment %s expands "
                            "%s -> %s (reads=%d > writes=%d)",
                            self.sim.now, seg, node, v,
                            row.read_counts.get(v, 0), row.write_count,
                        )
                        row.subscribed.add(v)
                        assert row.approx is not None
                        site.push_update(v, seg, row.approx, MessageKind.INSERT, ctx=ctx)
            self.transport.drain()
        if root_span is not None:
            root_span.finish(self.sim.now)
        for node in self.topology.nodes:
            for seg in self._segments:
                self.sites[node].directory.row(seg).reset_counts()
        if self.checkpoint_policy is not None and self.checkpoint_policy.every_phase:
            # After the count reset so the checkpoint captures the same
            # fresh-phase state an uncrashed site would start the next phase
            # with (subscription changes from this phase included).
            self.checkpoint_all()
        if self._check:
            contracts.check_async_asr(self)

    # --------------------------------------------------------------- metrics

    def approximation_count(self) -> int:
        total = sum(
            self.sites[node].directory.cached_count()
            for node in self.topology.clients
        )
        return total + len(self._segments)

    def mean_query_latency(self) -> float:
        """Average measured response time over all answered queries."""
        if not self.query_latencies:
            raise ValueError("no queries answered yet")
        return sum(self.query_latencies) / len(self.query_latencies)

    def degraded_count(self) -> int:
        """Answers served degraded (stale summary + widened interval)."""
        return sum(1 for o in self.query_outcomes if o.degraded)
