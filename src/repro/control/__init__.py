"""Resource control: byte budgets and ingest backpressure.

SWAT's space/accuracy trade-off is ``k`` coefficients per node and
reduced-level trees (Section 2.5), with closed-form error bounds (Section
2.6).  The paper picks both knobs once per experiment; this subsystem does
the same for a :class:`~repro.core.multi.StreamEnsemble` under a global
byte budget:

* :mod:`repro.control.accounting` — exact byte accounting
  (:class:`MemoryLedger`, :func:`config_nbytes`) with no per-arrival tree
  walks;
* :mod:`repro.control.governor` — :class:`ResourceGovernor`, a budget plan
  computed once when it attaches, plus :class:`ReplicaGovernor` for
  cache-row budgets on replicated sites;
* :mod:`repro.control.shedding` — ingest backpressure
  (:class:`ArrivalQueue`).

:func:`query_error_bound`, the Section 2.6 oracle, lives in
:mod:`repro.core.errors` and is re-exported here.  Everything is
deterministic, and ``ResourceGovernor(None)`` is property-tested to be
bit-identical to no governor.  See ``docs/capacity.md``.
"""

from ..core.errors import query_error_bound
from .accounting import MemoryLedger, config_nbytes
from .governor import ReplicaGovernor, ResourceGovernor
from .shedding import ArrivalQueue

__all__ = [
    "MemoryLedger",
    "config_nbytes",
    "ResourceGovernor",
    "ReplicaGovernor",
    "query_error_bound",
    "ArrivalQueue",
]
