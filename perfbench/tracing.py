"""Per-layer spans recorded from outside the program.

:class:`SpanRecorder` wraps the public functions of each layer by replacing
the attribute where its caller looks it up (a method on its class, or a
module-level name the calling module imported), so nothing under ``src/``
changes.  Each wrapped call appends one span (name, start, end, parent) to
flat in-memory arrays; :meth:`SpanRecorder.summary` turns them into
per-name call counts and self times (a span's duration minus its direct
children's), and :meth:`SpanRecorder.save` writes them out once at the end.

The wrappers record only while :attr:`SpanRecorder.active` is true, so the
benchmark's correctness checks, which call into the same layers, stay out
of the span totals.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

__all__ = ["LAYERS", "SPAN_NAMES", "TARGETS", "SpanRecorder"]

#: (module, attribute path, span name): where each layer's public entry
#: point is looked up by its callers.  ``compile_plan`` is wrapped both in
#: the module that defines it and in the engine, which imported it by name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.swat", "Swat.update", "swat.update"),
    ("repro.core.swat", "Swat.extend", "swat.extend"),
    ("repro.core.swat", "leaf_coeffs", "haar.leaf"),
    ("repro.core.swat", "batch_leaf_coeffs", "haar.leaf"),
    ("repro.core.swat", "batch_haar_decompose", "haar.leaf"),
    ("repro.core.swat", "combine_haar", "haar.combine"),
    ("repro.core.swat", "batch_combine_haar", "haar.combine"),
    ("repro.core.node", "haar_reconstruct", "haar.reconstruct"),
    ("repro.core.node", "SwatNode.reconstruct", "node.reconstruct"),
    ("repro.core.engine", "compile_plan", "plan.compile"),
    ("repro.core.plan", "compile_plan", "plan.compile"),
    ("repro.core.swat", "build_cover", "cover.build"),
    ("repro.core.engine", "QueryEngine.answer", "engine.answer"),
    ("repro.core.engine", "QueryEngine.answer_batch", "engine.answer_batch"),
    ("repro.core.multi", "StreamEnsemble.extend_columns", "ensemble.extend_columns"),
    ("repro.core.multi", "StreamEnsemble.answer_batch", "ensemble.answer_batch"),
    ("repro.control.accounting", "MemoryLedger.set", "ledger.set"),
    ("repro.metrics.error", "GroundTruthWindow.update", "window.update"),
    ("repro.metrics.error", "GroundTruthWindow.segment_range", "window.segment_range"),
    ("repro.replication.async_asr", "AsyncSwatAsr.on_data", "asr.on_data"),
    ("repro.replication.async_asr", "AsyncSwatAsr.on_query", "asr.on_query"),
    ("repro.replication.async_asr", "AsyncSwatAsr.on_phase_end", "asr.on_phase_end"),
    ("repro.network.directory", "SegmentPlanCache.group", "directory.group"),
    ("repro.network.transport", "Transport.send", "transport.send"),
    ("repro.simulate.events", "Simulator.step", "sim.step"),
)

#: Layer (module) -> the span names whose self time it owns.  ``asr.handle``
#: is each site's message handler, wrapped per instance through
#: ``Transport.register`` (:meth:`SpanRecorder.wrap_handlers`).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "core.swat": ("swat.update", "swat.extend"),
    "wavelets.haar": ("haar.leaf", "haar.combine", "haar.reconstruct"),
    "core.node": ("node.reconstruct",),
    "core.plan+coverage": ("plan.compile", "cover.build"),
    "core.engine": ("engine.answer", "engine.answer_batch"),
    "core.multi+accounting": (
        "ensemble.extend_columns",
        "ensemble.answer_batch",
        "ledger.set",
    ),
    "metrics.error": ("window.update", "window.segment_range"),
    "replication.async_asr": (
        "asr.on_data",
        "asr.on_query",
        "asr.on_phase_end",
        "asr.handle",
    ),
    "network.directory": ("directory.group",),
    "network.transport": ("transport.send",),
    "simulate.events": ("sim.step",),
}

SPAN_NAMES: Tuple[str, ...] = tuple(n for names in LAYERS.values() for n in names)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class SpanRecorder:
    """Flat, append-only span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.active = False
        self._names: List[str] = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self._names)}
        self._saved: List[Tuple[Any, str, Any]] = []
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []

    # ------------------------------------------------------------- wrapping

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call made while active."""
        nid = self._ids[name]
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec._stack
            idx = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.start.append(0.0)
            rec.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec.start[idx] = t0
                rec.end[idx] = t1

        return traced

    def install(self) -> None:
        """Replace every target attribute with its traced wrapper."""
        if self._saved:
            return
        for module, path, name in TARGETS:
            owner, attr = _resolve(module, path)
            # Read methods from the class dict so a wrapper never captures an
            # inherited attribute it would then shadow.
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        """Put every original attribute back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap_handlers(self, asr: Any) -> None:
        """Trace each site's message handler of an ``AsyncSwatAsr``.

        The transport looks handlers up in its registry, so re-registering
        a wrapped handler is the caller-side replacement.
        """
        for node, site in asr.sites.items():
            asr.transport.register(node, self.wrap("asr.handle", site.handle))

    # -------------------------------------------------------------- results

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> Dict[str, Any]:
        """Per-name calls and self seconds, and the summed root durations.

        Self times over all spans add up to the root spans' durations, so
        ``wall - roots_s`` is exactly the time no span accounts for.
        """
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_sum = np.zeros(dur.size)
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        self_s = dur - child_sum
        n = len(self._names)
        calls = np.bincount(nid, minlength=n)
        self_by_name = np.bincount(nid, weights=self_s, minlength=n)
        # A node.reconstruct call missed its memo when it had to run the
        # Haar inverse transform as a child.
        miss = (nid == self._ids["haar.reconstruct"]) & has_parent
        miss[miss] = nid[parent[miss]] == self._ids["node.reconstruct"]
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(self._names)},
            "self_s": {name: float(self_by_name[i]) for i, name in enumerate(self._names)},
            "roots_s": float(dur[~has_parent].sum()),
            "spans": int(dur.size),
            "reconstruct_misses": int(miss.sum()),
        }

    def save(self, path: str) -> None:
        """Write the spans and their name table as one compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self._names), **self.arrays())
