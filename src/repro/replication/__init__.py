"""Replication layer: SWAT-ASR plus the two competing caching techniques."""

from .adr import AdrObject
from .aps import AdaptivePrecision
from .async_asr import DEGRADED_WIDEN_FACTOR, AsyncSwatAsr, QueryOutcome
from .base import ReplicationProtocol
from .divergence import EVENT_WINDOW, DivergenceCaching, optimal_refresh_width
from .harness import (
    PROTOCOLS,
    ReplicationConfig,
    ReplicationResult,
    make_protocol,
    run_replication,
)

__all__ = [
    "AdaptivePrecision",
    "AdrObject",
    "AsyncSwatAsr",
    "QueryOutcome",
    "DEGRADED_WIDEN_FACTOR",
    "ReplicationProtocol",
    "DivergenceCaching",
    "optimal_refresh_width",
    "EVENT_WINDOW",
    "ReplicationConfig",
    "ReplicationResult",
    "run_replication",
    "make_protocol",
    "PROTOCOLS",
]
