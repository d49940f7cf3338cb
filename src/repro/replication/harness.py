"""Simulation harness for the replication experiments (Section 5).

Drives a :class:`~repro.replication.base.ReplicationProtocol` through the
discrete-event simulator: a periodic data task at the source (period
``T_d``), one periodic query task per client (period ``T_q``, random query
mode with uniformly drawn sizes, positions, and precisions), and a periodic
phase task (for SWAT-ASR's expansion/contraction tests).  Measurements start
after a warm-up interval, matching the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Protocol, Tuple

import numpy as np

from ..core.queries import InnerProductQuery
from ..data.workload import RandomWorkload
from ..metrics.error import GroundTruthWindow
from ..network.messages import MessageStats
from ..network.topology import Topology
from ..network.transport import Transport
from ..obs import causal as causal_mod
from ..obs import metrics as obs
from ..simulate.events import Simulator
from ..simulate.tasks import PeriodicTask
from .aps import AdaptivePrecision
from .asr import SwatAsr
from .base import ReplicationProtocol
from .divergence import DivergenceCaching

__all__ = [
    "ReplicationConfig",
    "ReplicationResult",
    "ReplicationDriver",
    "run_replication",
    "make_protocol",
]

PROTOCOLS = ("SWAT-ASR", "DC", "APS")


class ReplicationDriver(Protocol):
    """What :func:`run_replication` needs from a protocol, structurally.

    Satisfied by every :class:`~repro.replication.base.ReplicationProtocol`
    subclass *and* by the actor-based
    :class:`~repro.replication.async_asr.AsyncSwatAsr`, which shares the
    callback surface without inheriting the base class (its messaging runs
    through a real transport rather than counted calls).
    """

    name: str
    topology: Topology
    window: GroundTruthWindow
    stats: MessageStats
    last_query_hops: int

    @property
    def is_warm(self) -> bool: ...

    def on_data(self, value: float, now: float = ...) -> None: ...

    def on_query(
        self, client: str, query: InnerProductQuery, now: float = ...
    ) -> float: ...

    def on_phase_end(self, now: float = ...) -> None: ...

    def approximation_count(self) -> int: ...


@dataclass
class _RunState:
    """Mutable measurement accumulators shared by the periodic tasks."""

    queries: int = 0
    arrivals: int = 0
    err_sum: float = 0.0
    hops_sum: int = 0
    measuring: bool = False


@dataclass
class ReplicationConfig:
    """Parameters of one replication simulation run.

    ``T_d`` and ``T_q`` are *periods* in virtual seconds (see DESIGN.md §3 on
    the paper's rate/period wording).  The stream array is cycled if the run
    needs more arrivals than it provides.
    """

    window_size: int = 32
    data_period: float = 1.0
    query_period: float = 1.0
    phase_period: float = 10.0
    warmup_time: float = 100.0
    measure_time: float = 1000.0
    precision: Tuple[float, float] = (5.0, 20.0)
    query_kind: str = "linear"
    max_query_length: Optional[int] = None
    value_range: Tuple[float, float] = (0.0, 100.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.data_period, self.query_period, self.phase_period) <= 0:
            raise ValueError("periods must be positive")
        if self.measure_time <= 0:
            raise ValueError("measure_time must be positive")


@dataclass
class ReplicationResult:
    """Measured outcome of one run."""

    protocol: str
    total_messages: int
    by_kind: Dict[str, int]
    n_queries: int
    n_arrivals: int
    mean_abs_error: float
    approximations: int
    mean_query_hops: float = 0.0
    # Free-form extras; with observability on, ``meta["metrics"]`` holds the
    # run's measurement-phase registry snapshot (see repro.obs).
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def messages_per_query(self) -> float:
        return self.total_messages / max(self.n_queries, 1)

    def mean_query_latency(self, per_hop_seconds: float) -> float:
        """Derived response latency: round-trip hops times per-hop delay
        (0 hops = answered from the local cache)."""
        if per_hop_seconds < 0:
            raise ValueError("per_hop_seconds must be non-negative")
        return self.mean_query_hops * per_hop_seconds


def make_protocol(
    name: str,
    topology: Topology,
    window_size: int,
    value_range: Tuple[float, float] = (0.0, 100.0),
) -> ReplicationProtocol:
    """Instantiate a protocol by its figure-legend name."""
    if name == "SWAT-ASR":
        return SwatAsr(topology, window_size)
    if name == "DC":
        return DivergenceCaching(topology, window_size, value_range=value_range)
    if name == "APS":
        return AdaptivePrecision(topology, window_size, value_range=value_range)
    raise ValueError(f"unknown protocol {name!r}; expected one of {PROTOCOLS}")


def run_replication(
    protocol: ReplicationDriver,
    stream: np.ndarray,
    config: ReplicationConfig,
) -> ReplicationResult:
    """Run one simulation and return message/error measurements."""
    stream = np.asarray(stream, dtype=np.float64)
    if stream.size == 0:
        raise ValueError("stream must be non-empty")
    sim = Simulator()
    topo = protocol.topology
    state = _RunState()

    # Run-scoped metrics (created up front so even a query-free run exports
    # the series); observed only during the measurement phase so warm-up
    # traffic never leaks into reported numbers.
    obs_on = obs.ENABLED
    latency_hist = (
        obs.histogram("query.latency", protocol=protocol.name) if obs_on else None
    )
    hops_hist = (
        obs.histogram("query.hops", buckets=obs.COUNT_BUCKETS, protocol=protocol.name)
        if obs_on
        else None
    )

    # Ground-truth window cache: the exact window only changes on arrivals,
    # yet every query of every client re-copied it.  One snapshot per data
    # tick serves all queries issued between arrivals.
    cached_truth: Optional[np.ndarray] = None

    def current_truth_window() -> np.ndarray:
        nonlocal cached_truth
        if cached_truth is None:
            cached_truth = protocol.window.values_newest_first()
        return cached_truth

    def on_data(tick: int) -> None:
        nonlocal cached_truth
        cached_truth = None
        protocol.on_data(float(stream[tick % stream.size]), now=sim.now)
        state.arrivals += 1

    workloads = {
        client: RandomWorkload(
            config.window_size,
            kind=config.query_kind,
            max_length=config.max_query_length,
            precision_low=config.precision[0],
            precision_high=config.precision[1],
            seed=config.seed + 7919 * (i + 1),
        )
        for i, client in enumerate(topo.clients)
    }

    def query_action(client: str) -> Callable[[int], None]:
        def act(tick: int) -> None:
            if not protocol.is_warm:
                return
            query = workloads[client].next()
            if latency_hist is not None and hops_hist is not None and state.measuring:
                with latency_hist.time():
                    answer = protocol.on_query(client, query, now=sim.now)
                hops_hist.observe(protocol.last_query_hops)
            else:
                answer = protocol.on_query(client, query, now=sim.now)
            truth = query.evaluate(current_truth_window())
            state.queries += 1
            state.err_sum += abs(answer - truth)
            state.hops_sum += protocol.last_query_hops

        return act

    PeriodicTask(sim, config.data_period, on_data, start_at=0.0)
    fill_time = config.window_size * config.data_period
    for client in topo.clients:
        PeriodicTask(sim, config.query_period, query_action(client), start_at=fill_time)
    PeriodicTask(
        sim,
        config.phase_period,
        lambda tick: protocol.on_phase_end(now=sim.now),
        start_at=fill_time,
    )

    # Warm up, then reset counters and measure.  ``MessageStats.reset``
    # also rewinds the warm-up hops it mirrored into the metrics registry,
    # so the registry scope starts the measurement phase clean too.
    sim.run_until(fill_time + config.warmup_time)
    protocol.stats.reset()
    state.queries = 0
    state.err_sum = 0.0
    state.hops_sum = 0
    state.measuring = True
    baseline: Optional[dict] = obs.metrics_snapshot() if obs_on else None
    sim.run_until(fill_time + config.warmup_time + config.measure_time)

    meta: Dict[str, object] = {}
    if baseline is not None:
        # Everything the registry accrued during measurement only (warm-up
        # arrivals/messages excluded by construction).
        meta["metrics"] = obs.snapshot_delta(obs.metrics_snapshot(), baseline)

    # Fault-tolerance provenance: protocols running over a reliable transport
    # (a FaultPlan attached) report injected-fault and degradation totals so
    # results under chaos are auditable.  Totals are run-lifetime, not
    # measurement-scoped — a degraded answer during warm-up is still a fact
    # about the run.
    transport = getattr(protocol, "transport", None)
    if isinstance(transport, Transport) and transport.reliable:
        meta["faults"] = transport.fault_counters()
        degraded = getattr(protocol, "degraded_count", None)
        if callable(degraded):
            meta["degraded_answers"] = int(degraded())

    # Causal-tracing provenance: when the protocol carries a tracer, report
    # how much of the run it captured (dropped > 0 means the span cap
    # sampled some traces out; orphans > 0 means a broken propagation chain
    # and is asserted zero by the acceptance tests).
    causal = getattr(protocol, "causal", None)
    if isinstance(causal, causal_mod.CausalTracer):
        meta["trace"] = {
            "traces": len(causal.trace_ids()),
            "spans": len(causal),
            "dropped": causal.dropped,
            "orphans": len(causal.orphan_spans()),
        }

    n_queries = state.queries
    return ReplicationResult(
        protocol=protocol.name,
        total_messages=protocol.stats.total,
        by_kind=protocol.stats.snapshot(),
        n_queries=n_queries,
        n_arrivals=state.arrivals,
        mean_abs_error=state.err_sum / max(n_queries, 1),
        approximations=protocol.approximation_count(),
        mean_query_hops=state.hops_sum / max(n_queries, 1),
        meta=meta,
    )
