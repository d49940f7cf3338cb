"""Datasets and workloads: synthetic streams, the weather substitute, queries."""

from .synthetic import drift_stream, random_walk_stream, stream_iter, uniform_stream
from .weather import N_DAYS, santa_barbara_temps
from .workload import QUERY_KINDS, FixedWorkload, RandomWorkload, make_query

__all__ = [
    "uniform_stream",
    "drift_stream",
    "random_walk_stream",
    "stream_iter",
    "santa_barbara_temps",
    "N_DAYS",
    "FixedWorkload",
    "RandomWorkload",
    "make_query",
    "QUERY_KINDS",
]
