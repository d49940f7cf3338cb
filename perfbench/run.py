"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload fixed_query --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing and ``repro.obs``
off.  ``--trace 1`` instead alternates untraced, traced and ``repro.obs``
passes of a fixed length and prints the per-layer table.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any call failed or any
checked answer broke its bound.  ``RATIONALE.md`` explains the choices.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

WORKLOAD_NAMES = ("fixed_query", "random_query", "ensemble", "replication")
#: Set-ups per timed run; ``setup_s`` is their median.  The first
#: ``SETUPS_BEFORE`` run back to back (the last one is measured); the rest
#: are spread over the timed run, one every ``SETUP_EVERY`` windows, so a
#: few slow seconds of the host cannot hit most of them.
SETUP_REPEATS = 7
SETUPS_BEFORE = 3
SETUP_EVERY = 4
#: The timed run is cut into this many equal windows.  Each latency and
#: throughput figure is taken per window and the best window is reported:
#: the shared host slows by up to half for a few seconds at a time, often
#: enough that medians over windows still drifted by 20-40% between runs,
#: while the best of 20 one-second windows stayed within a few percent.
WINDOWS = 20
#: A window needs this many samples of each call kind to count (p90 then
#: has at least ten samples beyond it).
MIN_WINDOW_SAMPLES = 100
#: Where the traced run writes its spans (ignored by git).
SPAN_DIR = os.path.join("perfbench", "out")

Metrics = Dict[str, Tuple[float, str]]


def percentile(samples: List[float], q: int) -> float:
    """The ``q``-th percentile (a multiple of 10) of ``samples``."""
    return statistics.quantiles(samples, n=10, method="inclusive")[q // 10 - 1]


def deltas(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in sorted(after)}


def timed_setup(wl: Any, warm: Any) -> Tuple[Any, float]:
    """One set-up from a collected heap, and how long it took."""
    gc.collect()
    t0 = time.perf_counter()
    st = wl.setup(warm)
    return st, time.perf_counter() - t0


def fingerprint(wl: Any, st: Any, rec: Any, base: Dict[str, float]) -> Dict[str, Any]:
    """Counts that repeat exactly for a seed, taken after a fixed number of rounds."""
    fp: Dict[str, Any] = dict(deltas(wl.counters(st), base))
    messages = [v for k, v in fp.items() if k.startswith("messages.")]
    if messages:
        fp["messages_per_query"] = sum(messages) / rec.queries
    fp["mean_rel_error"] = statistics.fmean(rec.rel_errors)
    fp["checked_answers"] = rec.checked
    fp["rounds"] = wl.FINGERPRINT_ROUNDS
    fp["values"] = rec.values
    fp["queries"] = rec.queries
    return fp


class Window:
    """Where one timing window starts in a recorder's sample arrays."""

    def __init__(self, rec: Any) -> None:
        self.ingest = len(rec.ingest)
        self.query = len(rec.query)
        self.other = len(rec.other)
        self.ops = rec.values + rec.queries


def window_stats(rec: Any, starts: List[Window], min_samples: int) -> Dict[str, List[float]]:
    """Throughput and latency percentiles of each window, in seconds."""
    bounds = starts + [Window(rec)]
    out: Dict[str, List[float]] = {}
    for a, b in zip(bounds, bounds[1:]):
        ingest = rec.ingest[a.ingest : b.ingest]
        query = rec.query[a.query : b.query]
        busy = sum(ingest) + sum(query) + sum(rec.other[a.other : b.other])
        if len(ingest) < min_samples or len(query) < min_samples:
            continue  # the short tail after the last full window
        out.setdefault("throughput", []).append((b.ops - a.ops) / busy)
        out.setdefault("ingest_p50", []).append(percentile(ingest, 50))
        out.setdefault("ingest_p90", []).append(percentile(ingest, 90))
        out.setdefault("query_p50", []).append(percentile(query, 50))
        out.setdefault("query_p90", []).append(percentile(query, 90))
    return out


def timed_run(workloads: Any, name: str, seed: int, seconds: float) -> Tuple[Metrics, Any]:
    wl = workloads.WORKLOADS[name](seed)
    warm = workloads.Recorder()
    setups: List[float] = []
    st = None
    for _ in range(SETUPS_BEFORE):
        st = None
        st, took = timed_setup(wl, warm)
        setups.append(took)
    print("CONFIG " + json.dumps({"workload": name, "seed": seed, **wl.config(st)}))
    rec = workloads.Recorder()
    base = wl.counters(st)
    fp: Dict[str, Any] = {}
    rounds = 0
    starts = [Window(rec)]
    gc.collect()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    next_window = t0 + seconds / WINDOWS
    while True:
        wl.round(st, rec, rounds < wl.FINGERPRINT_ROUNDS or rounds % wl.CHECK_EVERY == 0)
        rounds += 1
        if rounds == wl.FINGERPRINT_ROUNDS:
            fp = fingerprint(wl, st, rec, base)
            rec.keep_errors = False
        now = time.perf_counter()
        if rounds >= wl.FINGERPRINT_ROUNDS and now >= deadline:
            break
        if now >= next_window:
            if len(starts) % SETUP_EVERY == 0 and len(setups) < SETUP_REPEATS:
                # A discarded set-up between windows; only its time is kept.
                setups.append(timed_setup(wl, warm)[1])
                gc.collect()
            starts.append(Window(rec))
            next_window += seconds / WINDOWS
    digest = hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]
    print("FINGERPRINT " + json.dumps(fp, sort_keys=True) + " sha256:" + digest)

    # A run too short for full windows is summarized as one window.
    per = window_stats(rec, starts, MIN_WINDOW_SAMPLES) or window_stats(rec, starts[:1], 2)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics: Metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_per_s": (max(per["throughput"]), "1/s"),
        "ingest_p50_us": (min(per["ingest_p50"]) * 1e6, "us"),
        "ingest_p90_us": (min(per["ingest_p90"]) * 1e6, "us"),
        "query_p50_us": (min(per["query_p50"]) * 1e6, "us"),
        "query_p90_us": (min(per["query_p90"]) * 1e6, "us"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    n = len(per["throughput"])
    each = f"best of {n} windows of {seconds / WINDOWS:.3g} s"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "throughput_ops_per_s": (
            f"{each}; {rec.values} values + {rec.queries} queries in {rounds} rounds"
        ),
        "ingest_p50_us": f"{each}; n={len(rec.ingest)} calls",
        "ingest_p90_us": f"{each}; n={len(rec.ingest)} calls",
        "query_p50_us": f"{each}; n={len(rec.query)} calls",
        "query_p90_us": f"{each}; n={len(rec.query)} calls",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for key, (value, unit) in metrics.items():
        print(f"{key:24s} {value:14.6g} {unit:6s} ({notes[key]})")
    print(
        f"{'mean_rel_error':24s} {fp['mean_rel_error']:14.6g} {'ratio':6s} "
        f"({len(rec.rel_errors)} checked answers in the first {wl.FINGERPRINT_ROUNDS} "
        "rounds; fixed for a seed, in the fingerprint)"
    )
    attempted = rec.calls + warm.calls
    failed = rec.failed + warm.failed
    print(
        f"{'ops_failed_frac':24s} {failed / attempted:14.6g} {'ratio':6s} "
        f"({failed} failed / {attempted} attempted calls, set-up included; "
        f"{rec.checked} answers checked, worst error {rec.worst_bound_share:.3f} "
        "of its bound)"
    )
    rec.calls, rec.failed = attempted, failed
    rec.first_failure = rec.first_failure or warm.first_failure
    return metrics, rec


def one_pass(workloads: Any, wl: Any, mode: str, tracer: Any) -> Dict[str, Any]:
    """One fixed-length pass: ``plain``, ``traced`` or with ``repro.obs`` on."""
    from repro.obs import metrics as obs

    if mode == "obs":
        obs.enable(obs.MetricsRegistry())
    if mode == "traced":
        tracer.install()
    try:
        warm = workloads.Recorder()
        st = wl.setup(warm)
        if mode == "traced":
            wl.instrument(st, tracer)
            tracer.clear()
        rec = workloads.Recorder(tracer if mode == "traced" else None)
        base = wl.counters(st)
        gc.collect()
        tracer.active = mode == "traced"
        t0 = time.perf_counter()
        for r in range(wl.TRACE_ROUNDS):
            wl.round(st, rec, r % wl.CHECK_EVERY == 0)
        wall = time.perf_counter() - t0 - rec.check_s
        tracer.active = False
        counts = deltas(wl.counters(st), base)
        gauges = wl.gauges(st)
    finally:
        tracer.active = False
        if mode == "traced":
            tracer.uninstall()
        if mode == "obs":
            obs.disable()
    result: Dict[str, Any] = {
        "wall": wall,
        "counts": counts,
        "gauges": gauges,
        "rec": rec,
        "warm": warm,
    }
    if mode == "traced":
        result["summary"] = tracer.summary()
    return result


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(
    workloads: Any, tracing: Any, name: str, seed: int, seconds: float
) -> Tuple[Metrics, Any]:
    wl = workloads.WORKLOADS[name](seed)
    tracer = tracing.SpanRecorder()
    passes: Dict[str, List[Dict[str, Any]]] = {"plain": [], "traced": [], "obs": []}
    deadline = time.perf_counter() + seconds
    cycle = 0.0
    # Whole cycles only, and after the first none that would end past the
    # deadline, so the run takes about ``seconds``.
    while not passes["plain"] or time.perf_counter() + cycle <= deadline:
        t0 = time.perf_counter()
        for mode in passes:
            passes[mode].append(one_pass(workloads, wl, mode, tracer))
        cycle = time.perf_counter() - t0
    os.makedirs(SPAN_DIR, exist_ok=True)
    tracer.save(os.path.join(SPAN_DIR, f"spans-{name}-seed{seed}.npz"))

    med = statistics.median
    plain_wall = med(p["wall"] for p in passes["plain"])
    traced = passes["traced"]
    traced_wall = med(p["wall"] for p in traced)
    obs_wall = med(p["wall"] for p in passes["obs"])
    # Counts repeat exactly from pass to pass; times are medians over passes.
    last = traced[-1]
    calls = last["summary"]["calls"]
    self_s = {n: med(p["summary"]["self_s"][n] for p in traced) for n in tracing.SPAN_NAMES}
    counts, rec = last["counts"], last["rec"]
    unattributed = med(
        ratio(p["wall"] - p["summary"]["roots_s"], p["wall"]) for p in traced
    )

    metrics: Metrics = {}
    for span in tracing.SPAN_NAMES:
        metrics[f"{span}.calls"] = (float(calls[span]), "count")
        metrics[f"{span}.self_s"] = (self_s[span], "s")
    misses = last["summary"]["reconstruct_misses"]
    hits = counts.get("plan.hits", 0)
    lookups = hits + counts.get("plan.misses", 0)
    dir_hits = counts.get("directory.hits", 0)
    dir_lookups = dir_hits + counts.get("directory.misses", 0)
    n_messages = sum(v for k, v in counts.items() if k.startswith("messages."))
    extra: Dict[str, Tuple[float, str, str]] = {
        "node.reconstruct.memo_hit_ratio": (
            ratio(calls["node.reconstruct"] - misses, calls["node.reconstruct"]),
            "ratio",
            f"{misses} misses / {calls['node.reconstruct']} calls",
        ),
        "engine.plan_hit_ratio": (
            ratio(hits, lookups), "ratio", f"{hits} hits / {lookups} plan lookups"
        ),
        "engine.fallbacks": (counts.get("engine.fallbacks", 0), "count", "scalar-path answers"),
        "directory.group.hit_ratio": (
            ratio(dir_hits, dir_lookups),
            "ratio",
            f"{dir_hits} hits / {dir_lookups} groupings",
        ),
        "asr.local_answer_ratio": (
            ratio(counts.get("asr.local_answers", 0), rec.queries),
            "ratio",
            f"{counts.get('asr.local_answers', 0)} answered at the client / {rec.queries} queries",
        ),
        "asr.cached_rows": (
            last["gauges"].get("asr.cached_rows", 0), "count", "directory rows cached at pass end"
        ),
        "asr.messages_per_query": (
            ratio(n_messages, rec.queries),
            "ratio",
            f"{n_messages} messages / {rec.queries} queries",
        ),
        "sim.events_run": (counts.get("sim.events_run", 0), "count", "simulator events"),
        "mean_rel_error": (
            statistics.fmean(rec.rel_errors),
            "ratio",
            f"mean over {len(rec.rel_errors)} checked answers of the pass",
        ),
        "trace.ops": (rec.values + rec.queries, "count", "values + queries per pass"),
        "trace.spans": (last["summary"]["spans"], "count", "spans per traced pass"),
        "trace.wall_s": (traced_wall, "s", f"median of {len(traced)} traced passes"),
        "trace.untraced_wall_s": (plain_wall, "s", f"median of {len(passes['plain'])} passes"),
        "trace.unattributed_frac": (
            unattributed, "ratio", "traced wall time no span accounts for / traced wall"
        ),
        "trace.overhead_ratio": (
            ratio(traced_wall, plain_wall),
            "ratio",
            f"{traced_wall:.4f} s traced / {plain_wall:.4f} s untraced",
        ),
        "obs.overhead_ratio": (
            ratio(obs_wall, plain_wall),
            "ratio",
            f"{obs_wall:.4f} s with repro.obs on / {plain_wall:.4f} s off",
        ),
    }
    for kind in ("query", "response", "update", "insert", "unsubscribe"):
        n = counts.get(f"messages.{kind}", 0)
        extra[f"messages.{kind}"] = (n, "count", "hop-counted messages per pass")

    # The table shows the last traced pass, whose layers and residual add
    # up to its wall time exactly; the metrics are medians over passes.
    wall = last["wall"]
    last_self = last["summary"]["self_s"]
    print(f"per-layer self time, {name}, seed {seed}, last of {len(traced)} traced passes")
    print(f"{'layer':24s} {'self_s':>10s} {'share':>7s} {'calls':>9s}")
    layer_total = 0.0
    for layer, names in tracing.LAYERS.items():
        s = sum(last_self[n] for n in names)
        layer_total += s
        c = sum(calls[n] for n in names)
        print(f"{layer:24s} {s:10.4f} {ratio(s, wall):7.1%} {c:9d}")
    residual = wall - last["summary"]["roots_s"]
    print(f"{'unattributed':24s} {residual:10.4f} {ratio(residual, wall):7.1%}")
    print(
        f"{'layers + unattributed':24s} {layer_total + residual:10.4f} "
        f"= traced wall {wall:.4f} s (difference {layer_total + residual - wall:+.1e} s)"
    )
    for span in tracing.SPAN_NAMES:
        if calls[span]:
            print(f"  {span:30s} {calls[span]:9d} calls {self_s[span]:10.4f} s self")
    for key, (value, unit, note) in extra.items():
        metrics[key] = (float(value), unit)
        print(f"{key:32s} {value:14.6g} {unit:6s} ({note})")

    rec_all = workloads.Recorder()
    for mode_passes in passes.values():
        for p in mode_passes:
            for r in (p["rec"], p["warm"]):
                rec_all.calls += r.calls
                rec_all.failed += r.failed
                rec_all.first_failure = rec_all.first_failure or r.first_failure
    return metrics, rec_all


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "perfbench: no src/repro here; run from the repository root",
            file=sys.stderr,
        )
        return 2
    # One thread: NumPy's BLAS must not start a pool (set before importing it).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, src)
    import tracing
    import workloads

    if args.trace:
        metrics, rec = traced_run(workloads, tracing, args.workload, args.seed, args.seconds)
    else:
        metrics, rec = timed_run(workloads, args.workload, args.seed, args.seconds)
    if rec.first_failure is not None:
        print(f"perfbench: first failure: {rec.first_failure}", file=sys.stderr)
    result = {
        "correct": rec.failed == 0,
        "attempted": int(rec.calls),
        "failed": int(rec.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
