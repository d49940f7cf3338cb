"""Governed-ensemble experiment: the memory-vs-error frontier.

``repro govern`` answers the capacity-planning question Section 2.5 poses
but the paper never operationalizes: *given a global byte budget, what
accuracy can a multi-stream deployment afford?*  The driver replays the
same seeded workload against a :class:`~repro.core.multi.StreamEnsemble`
under a sweep of budgets, with the
:class:`~repro.control.governor.ResourceGovernor` planning per-stream
``(k, min_level)`` once, before the first value, and the bounded arrival
queue shedding a deterministic overload slice.  It reports one frontier row
per budget: peak ledger bytes (vs the budget), the planned shapes, the p95
observed relative error of range-average queries, reconfiguration count,
and shed ticks.

Two control runs pin the governor's safety story:

* a plain run with **no governor attached**, and
* a run with a governor attached but no budget (``ResourceGovernor(None)``),

must produce **bit-identical** answers and tree states.  Both runs are
fingerprinted with the shake machinery
(:func:`repro.simulate.shake.fingerprint_digest`) and the digests are
compared — the same check CI's ``govern`` job gates on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..control.accounting import config_nbytes
from ..control.governor import ResourceGovernor
from ..core.multi import StreamEnsemble
from ..core.queries import InnerProductQuery
from ..data.synthetic import random_walk_stream
from ..simulate.shake import _canon, fingerprint_digest

__all__ = ["govern_frontier"]


def _range_avg_query(length: int, start: int = 0) -> InnerProductQuery:
    """Uniform-weight range average over ``length`` consecutive indices."""
    indices = tuple(range(start, start + length))
    weights = tuple(1.0 / length for _ in indices)
    return InnerProductQuery(indices, weights)


def _drive(
    data: Dict[str, np.ndarray],
    window_size: int,
    k: int,
    *,
    governor: Optional[ResourceGovernor],
    budget_bytes: Optional[int],
    queue_capacity: Optional[int],
    block: int,
    query_every_blocks: int,
    query_lengths: Sequence[int],
) -> Dict[str, Any]:
    """Replay one workload; returns answers, errors, and control counters.

    The ingest pattern is a pure function of ``(data, queue_capacity,
    block)`` — the queue's drop-newest policy is deterministic — so every
    budget in the sweep sees exactly the same accepted tick sequence and
    the frontier rows are comparable.
    """
    names = sorted(data)
    n_ticks = len(next(iter(data.values())))
    ens = StreamEnsemble(window_size, k=k)
    for name in names:
        ens.add_stream(name)
    if queue_capacity is not None:
        ens.attach_shedding(queue_capacity_ticks=queue_capacity)
    reconfigs = 0 if governor is None else len(ens.attach_governor(governor))

    history: Dict[str, List[float]] = {name: [] for name in names}
    answers: List[float] = []
    errors: List[float] = []
    violations = 0
    n_blocks = 0
    for lo in range(0, n_ticks, block):
        cols = {name: data[name][lo : lo + block] for name in names}
        if queue_capacity is not None:
            accepted = ens.offer_columns(cols)
            ens.ingest_pending()
        else:
            accepted = len(next(iter(cols.values())))
            ens.extend_columns(cols)
        for name in names:
            history[name].extend(float(v) for v in cols[name][:accepted])
        if budget_bytes is not None and ens.ledger.total > budget_bytes:
            violations += 1
        n_blocks += 1
        if ens.ticks < window_size or n_blocks % query_every_blocks:
            continue
        queries = [_range_avg_query(length) for length in query_lengths]
        grouped = ens.answer_batch({name: queries for name in names})
        for name in names:
            newest_first = history[name][::-1]
            for query, answer in zip(queries, grouped[name]):
                true = float(
                    np.dot(
                        np.asarray(query.weights),
                        np.asarray([newest_first[i] for i in query.indices]),
                    )
                )
                rel = abs(float(answer.value) - true) / (abs(true) + 1e-12)
                answers.append(float(answer.value))
                errors.append(rel)
    queue = ens.arrival_queue
    payload = {
        "answers": answers,
        "trees": {name: ens.tree(name).to_state() for name in names},
    }
    return {
        "answers": answers,
        "errors": errors,
        "violations": violations,
        "reconfigs": reconfigs,
        "peak_bytes": ens.ledger.peak,
        "final_bytes": ens.ledger.total,
        "ticks_ingested": ens.ticks,
        "ticks_shed": 0 if queue is None else queue.ticks_dropped,
        "shapes": {
            name: (ens.tree(name).k, ens.tree(name).min_level) for name in names
        },
        "digest": fingerprint_digest(_canon(payload)),
    }


def govern_frontier(
    budget_fractions: Sequence[float] = (1.0, 0.6, 0.35, 0.2),
    *,
    n_streams: int = 4,
    window_size: int = 64,
    k: int = 8,
    n_blocks: int = 24,
    seed: int = 0,
    error_p95_target: float = 0.25,
    quick: bool = False,
) -> Dict[str, Any]:
    """Sweep byte budgets over a seeded governed ensemble.

    Returns ``{"rows": [...], "fingerprint_match": bool, ...}`` where each
    row reports one budget: ``budget`` bytes, ``peak`` ledger bytes over
    the whole run, ``budget_ok`` (the ledger never exceeded the budget at
    any check), the final mean ``k`` / ``min_level`` across streams, the
    p95 relative error of the range-average probes against ``target``, the
    number of trees the governor's plan reconfigured, and deterministically
    shed ticks.  ``fingerprint_match`` is the disabled-governor bit-identity
    check.
    """
    if quick:
        n_blocks = min(n_blocks, 12)
    # Offer slightly more than the queue accepts so every run sheds the
    # same deterministic overload slice (drop-newest per offered block).
    queue_capacity = window_size + 8
    block = queue_capacity + 8
    names = [f"S{i}" for i in range(n_streams)]
    data = {
        name: random_walk_stream(n_blocks * block, seed=seed + i)
        for i, name in enumerate(names)
    }
    full = n_streams * config_nbytes(window_size, k, 0)
    common = dict(
        block=block,
        query_every_blocks=2,
        query_lengths=(8, 32, window_size),
    )

    baseline = _drive(
        data, window_size, k,
        governor=None, budget_bytes=None, queue_capacity=queue_capacity,
        **common,
    )
    disabled = _drive(
        data, window_size, k,
        governor=ResourceGovernor(None), budget_bytes=None,
        queue_capacity=queue_capacity, **common,
    )

    rows: List[Dict[str, Any]] = []
    for frac in budget_fractions:
        budget = max(1, int(full * frac))
        run = _drive(
            data, window_size, k,
            governor=ResourceGovernor(budget), budget_bytes=budget,
            queue_capacity=queue_capacity, **common,
        )
        shapes = run["shapes"]
        p95 = float(np.percentile(run["errors"], 95)) if run["errors"] else 0.0
        rows.append({
            "budget": budget,
            "frac": float(frac),
            "peak": int(run["peak_bytes"]),
            "budget_ok": run["violations"] == 0 and run["peak_bytes"] <= budget,
            "mean_k": float(np.mean([s[0] for s in shapes.values()])),
            "mean_min_level": float(np.mean([s[1] for s in shapes.values()])),
            "p95_rel_err": p95,
            "err_ok": p95 <= error_p95_target,
            "reconfigs": run["reconfigs"],
            "ticks_shed": int(run["ticks_shed"]),
        })
    return {
        "rows": rows,
        "full_nbytes": full,
        "error_p95_target": float(error_p95_target),
        "ticks_ingested": int(baseline["ticks_ingested"]),
        "ticks_shed": int(baseline["ticks_shed"]),
        "baseline_digest": baseline["digest"],
        "disabled_digest": disabled["digest"],
        "fingerprint_match": baseline["digest"] == disabled["digest"],
    }
