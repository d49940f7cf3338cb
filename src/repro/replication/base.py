"""Common interface of the replication protocols of Sections 3-4.

All protocols run on a spanning tree (:class:`repro.network.Topology`) with
the stream source at the root, are driven by three callbacks — ``on_data``
(a new stream value arrives at the source), ``on_query`` (a client issues an
inner-product query with a precision requirement), ``on_phase_end`` (ADR
phase boundary; a no-op for DC and APS) — and are scored by hop-counted
messages in a shared :class:`repro.network.MessageStats`.  DC and APS count
calls and derive from :class:`ReplicationProtocol`; SWAT-ASR
(:class:`~repro.replication.async_asr.AsyncSwatAsr`) sends its messages
through a transport and shares only the callbacks.

Precision allocation: SWAT-ASR tests the *whole* query — the total offered
precision ``sum_i W[i] * width(segment(i))`` against ``delta``, as in the
Section 3 walk-through.  DC and APS run per data item (the paper's setup),
so a query decomposes into per-item reads with weight-proportional
tolerances ``t_i = delta / (M * W[i])`` — the unique per-item split with
``sum_i W[i] * t_i = delta``.  Midpoint answers then err by at most
``delta / 2`` under every protocol.  Both tests assume positive weights
(Section 2.1's precision bounds the error only then), so every protocol
rejects any other query with :func:`require_positive_weights` before it
does any work.
"""

from __future__ import annotations

import abc

from ..core.queries import InnerProductQuery
from ..metrics.error import GroundTruthWindow
from ..network.messages import MessageStats
from ..network.topology import Topology
from ..obs import causal as causal_mod

__all__ = ["ReplicationProtocol", "require_positive_weights", "per_index_tolerances"]


def require_positive_weights(query: InnerProductQuery) -> None:
    """Raise :exc:`ValueError`, naming the weights, unless every one is > 0.

    With a weight of zero or below, signed terms cancel in the whole-query
    test and a zero weight makes a per-item tolerance infinite, so neither
    test would bound the answer's error by the query's precision.
    """
    if not all(w > 0 for w in query.weights):
        raise ValueError(
            f"query weights must be positive, got {[float(w) for w in query.weights]}"
        )


def per_index_tolerances(query: InnerProductQuery) -> dict:
    """Weight-proportional per-item read tolerances ``t_i = delta / (M W[i])``.

    High-weight (recent) items get tight tolerances; the allocation is the
    unique per-item split with ``sum_i W[i] * t_i = delta``.
    """
    require_positive_weights(query)
    m = query.length
    return {idx: query.precision / (m * w) for idx, w in zip(query.indices, query.weights)}


class ReplicationProtocol(abc.ABC):
    """Base class handling the state shared by DC and APS."""

    name = "base"

    def __init__(self, topology: Topology, window_size: int) -> None:
        self.topology = topology
        self.window_size = window_size
        # Registry mirror is labelled with the protocol's figure-legend name,
        # giving per-protocol ``messages.*{protocol=...}`` counters.
        self.stats = MessageStats(protocol=self.name)
        self.window = GroundTruthWindow(window_size)
        # Round-trip hops of the most recent query (0 = served from cache);
        # the harness turns this into a latency figure.
        self.last_query_hops = 0
        # Causal tracer picked up at construction (None when tracing is off):
        # the disabled hot path is one attribute check per operation.
        self.causal = causal_mod.current_causal()

    @property
    def is_warm(self) -> bool:
        """True once the source has observed a full window."""
        return len(self.window) >= self.window_size

    def on_data(self, value: float, now: float = 0.0) -> None:
        """A new stream value arrives at the source."""
        self.window.update(value)
        if self.is_warm:
            self._propagate(value, now)

    @abc.abstractmethod
    def _propagate(self, value: float, now: float) -> None:
        """Protocol-specific handling of a (post-warm-up) data arrival."""

    @abc.abstractmethod
    def on_query(self, client: str, query: InnerProductQuery, now: float = 0.0) -> float:
        """A client issues a query; returns the (approximate) answer."""

    def on_phase_end(self, now: float = 0.0) -> None:
        """ADR phase boundary; default no-op (DC and APS are phase-free)."""

    @abc.abstractmethod
    def approximation_count(self) -> int:
        """Cached approximations across all client sites (space metric, §5.1)."""

    def _hops(self, node: str) -> int:
        """Hop distance from ``node`` to the source."""
        return self.topology.depth(node)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(N={self.window_size}, sites={len(self.topology)})"
