"""Batched-ingest and cached-query throughput, with committed baselines.

The paper's headline claims are throughput claims (O(k) amortized
maintenance per arrival, polylog queries); this bench measures both hot
paths and pins them to machine-readable baselines so future PRs have a
perf trajectory:

* ``BENCH_ingest.json`` — scalar ``update`` loop vs batched ``extend`` at
  N=4096, k=1, Haar.  The batch path must be >= 10x faster (5x in quick
  mode, where the short run underfills the pipeline) and leave the tree
  in a bit-identical state.
* ``BENCH_query.json`` — ``reconstruct_window``, bulk ``estimates`` and
  inner-product throughput at N=4096, k=2, Haar with the reconstruction
  cache warm: uncached ``Swat`` calls vs the plan-cached ``QueryEngine``,
  plus serial ensemble serving.

Run as pytest (``pytest benchmarks/bench_batch.py --benchmark-only``) or
as a script::

    python benchmarks/bench_batch.py --update   # refresh BENCH_*.json
    python benchmarks/bench_batch.py --check    # gate vs committed baseline
    python benchmarks/bench_batch.py --quick    # scaled-down measurement

``--check`` fails when any throughput metric degrades by more than the
tolerance factor (default 2x; override with ``REPRO_BENCH_TOLERANCE``).
``REPRO_QUICK=1`` implies ``--quick``.
"""

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Dict, Tuple

import numpy as np

REPO = pathlib.Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:  # script invocation without PYTHONPATH
    sys.path.insert(0, str(REPO / "src"))

from repro.core.engine import QueryEngine  # noqa: E402
from repro.core.multi import StreamEnsemble  # noqa: E402
from repro.core.queries import InnerProductQuery  # noqa: E402
from repro.core.swat import Swat  # noqa: E402

INGEST_BASELINE = REPO / "BENCH_ingest.json"
QUERY_BASELINE = REPO / "BENCH_query.json"

WINDOW = 4096
INGEST_K = 1
QUERY_K = 2
BLOCK = 8192
FULL_ARRIVALS = 200_000
QUICK_ARRIVALS = 40_000
MIN_SPEEDUP_FULL = 10.0
MIN_SPEEDUP_QUICK = 5.0


def _quick_env() -> bool:
    return os.environ.get("REPRO_QUICK", "0") not in ("0", "", "false")


def tree_fingerprint(tree: Swat) -> Tuple:
    """Every content-bearing bit of the tree, for identity assertions."""
    nodes = []
    for node in tree.nodes():
        coeffs = None if node.coeffs is None else node.coeffs.tobytes()
        dev = None if node.deviation is None else np.float64(node.deviation).tobytes()
        nodes.append((node.level, node.role, coeffs, node.end_time, dev))
    return (tree.time, tuple(tree._buffer), tuple(nodes))


def measure_ingest(arrivals: int) -> Dict[str, float]:
    """Scalar update loop vs batched extend on the same stream."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=arrivals)

    scalar = Swat(WINDOW, k=INGEST_K)
    t0 = time.perf_counter()
    for v in values:
        scalar.update(float(v))
    scalar_elapsed = time.perf_counter() - t0

    batched = Swat(WINDOW, k=INGEST_K)
    t0 = time.perf_counter()
    for i in range(0, arrivals, BLOCK):
        batched.extend(values[i : i + BLOCK])
    batch_elapsed = time.perf_counter() - t0

    if tree_fingerprint(batched) != tree_fingerprint(scalar):
        raise AssertionError("batched extend diverged from scalar replay")

    return {
        "arrivals": float(arrivals),
        "scalar_update_per_s": arrivals / scalar_elapsed,
        "scalar_update_us": scalar_elapsed / arrivals * 1e6,
        "batch_extend_per_s": arrivals / batch_elapsed,
        "speedup": scalar_elapsed / batch_elapsed,
    }


def measure_query(rounds: int) -> Dict[str, float]:
    """Query throughput on a warm tree: uncached ``Swat`` calls vs the
    plan-cached :class:`QueryEngine` serving path.

    ``scalar_estimates512_per_s`` and ``scalar_answer_queries_per_s`` time
    ``Swat.estimates`` / ``Swat.answer``, which compile a plan on every
    call (the names predate the single query path and stay so the 2x gate
    keeps comparing them).  ``estimates512_per_s`` is the serving path — the
    number the ROADMAP's read-side trajectory tracks."""
    rng = np.random.default_rng(11)
    tree = Swat(WINDOW, k=QUERY_K)
    tree.extend(rng.normal(size=2 * WINDOW))
    indices = rng.integers(0, WINDOW, size=512)
    engine = QueryEngine(tree)

    tree.reconstruct_window()  # populate the cache once
    t0 = time.perf_counter()
    for _ in range(rounds):
        tree.reconstruct_window()
    recon_elapsed = time.perf_counter() - t0

    tree.estimates(indices)
    t0 = time.perf_counter()
    for _ in range(rounds):
        tree.estimates(indices)
    scalar_est_elapsed = time.perf_counter() - t0

    if not np.array_equal(engine.estimates(indices), tree.estimates(indices)):
        raise AssertionError("engine estimates diverged from scalar path")
    est_rounds = rounds * 20  # the fast path needs more reps to time well
    t0 = time.perf_counter()
    for _ in range(est_rounds):
        engine.estimates(indices)
    est_elapsed = time.perf_counter() - t0

    # Batched inner products: 64 distinct query shapes, served together.
    queries = []
    for _ in range(64):
        length = int(rng.integers(4, 33))
        q_idx = rng.choice(WINDOW, size=length, replace=False)
        queries.append(
            InnerProductQuery(
                tuple(int(i) for i in q_idx),
                tuple(float(w) for w in rng.normal(size=length)),
            )
        )
    scalar_answers = [tree.answer(q) for q in queries]
    t0 = time.perf_counter()
    for _ in range(rounds):
        for q in queries:
            tree.answer(q)
    scalar_ans_elapsed = time.perf_counter() - t0

    batch_answers = engine.answer_batch(queries)
    for got, want in zip(batch_answers, scalar_answers):
        if got.value != want.value:
            raise AssertionError("answer_batch diverged from scalar answer")
    ans_rounds = rounds * 10
    t0 = time.perf_counter()
    for _ in range(ans_rounds):
        engine.answer_batch(queries)
    batch_ans_elapsed = time.perf_counter() - t0

    hit_rate = engine.hit_rate
    if hit_rate < 0.9:
        raise AssertionError(
            f"plan-cache hit rate {hit_rate:.2f} below 0.9 on a static tree"
        )

    return {
        "rounds": float(rounds),
        "reconstruct_window_per_s": rounds / recon_elapsed,
        "estimates512_per_s": est_rounds / est_elapsed,
        "scalar_estimates512_per_s": rounds / scalar_est_elapsed,
        "answer_batch_queries_per_s": ans_rounds * len(queries) / batch_ans_elapsed,
        "scalar_answer_queries_per_s": rounds * len(queries) / scalar_ans_elapsed,
        "plan_cache_hit_rate": hit_rate,
    }


def measure_ensemble(rounds: int) -> Dict[str, float]:
    """Serial ensemble serving throughput (named ``_qps`` on purpose: it
    stays out of the >2x CI gate)."""
    rng = np.random.default_rng(13)
    streams = [f"s{i}" for i in range(8)]
    ens = StreamEnsemble(WINDOW, k=QUERY_K)
    for name in streams:
        ens.add_stream(name)
        ens.tree(name).extend(rng.normal(size=2 * WINDOW))
    queries = {}
    for name in streams:
        qs = []
        for _ in range(32):
            q_idx = rng.choice(WINDOW, size=16, replace=False)
            qs.append(
                InnerProductQuery(
                    tuple(int(i) for i in q_idx),
                    tuple(float(w) for w in rng.normal(size=16)),
                )
            )
        queries[name] = qs
    total = rounds * sum(len(v) for v in queries.values())
    ens.answer_batch(queries)  # warm the plans
    t0 = time.perf_counter()
    for _ in range(rounds):
        ens.answer_batch(queries)
    return {"ensemble_serial_qps": total / (time.perf_counter() - t0)}


def run_all(quick: bool) -> Tuple[Dict[str, float], Dict[str, float]]:
    arrivals = QUICK_ARRIVALS if quick else FULL_ARRIVALS
    rounds = 10 if quick else 40
    ingest = measure_ingest(arrivals)
    query = measure_query(rounds)
    query.update(measure_ensemble(2 if quick else 5))
    floor = MIN_SPEEDUP_QUICK if quick else MIN_SPEEDUP_FULL
    if ingest["speedup"] < floor:
        raise AssertionError(
            f"batched ingest speedup {ingest['speedup']:.1f}x is below the "
            f"{floor:.0f}x floor (N={WINDOW}, k=1, Haar)"
        )
    return ingest, query


def _tolerance() -> float:
    return float(os.environ.get("REPRO_BENCH_TOLERANCE", "2.0"))


def check_against_baseline(
    current: Dict[str, float], baseline_path: pathlib.Path
) -> list:
    """Return failure messages for throughput metrics that regressed."""
    if not baseline_path.exists():
        return [f"{baseline_path.name}: missing committed baseline"]
    baseline = json.loads(baseline_path.read_text())["metrics"]
    tol = _tolerance()
    failures = []
    for key, old in baseline.items():
        # Throughputs catch absolute regressions; the speedup ratio is
        # hardware-independent and survives slower CI runners.
        if key not in current or not (key.endswith("_per_s") or key == "speedup"):
            continue
        new = current[key]
        if new * tol < old:
            failures.append(
                f"{baseline_path.name}:{key} regressed {old / new:.2f}x "
                f"({old:,.0f}/s -> {new:,.0f}/s, tolerance {tol:.1f}x)"
            )
    return failures


def write_baseline(
    metrics: Dict[str, float], path: pathlib.Path, quick: bool, k: int
) -> None:
    payload = {
        "bench": "bench_batch",
        "config": {"window": WINDOW, "k": k, "wavelet": "haar", "quick": quick},
        "metrics": {k: round(v, 3) for k, v in metrics.items()},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _format(ingest: Dict[str, float], query: Dict[str, float]) -> str:
    return (
        f"ingest  N={WINDOW} k={INGEST_K} haar over {int(ingest['arrivals']):,} arrivals\n"
        f"  scalar update      {ingest['scalar_update_per_s']:>12,.0f} values/s"
        f"  ({ingest['scalar_update_us']:.1f} us/update)\n"
        f"  batched extend     {ingest['batch_extend_per_s']:>12,.0f} values/s\n"
        f"  speedup            {ingest['speedup']:>11.1f}x\n"
        f"query   N={WINDOW} k={QUERY_K} haar, warm cache, "
        f"{int(query['rounds'])} rounds\n"
        f"  reconstruct_window {query['reconstruct_window_per_s']:>12,.1f} calls/s\n"
        f"  estimates(512)     {query['estimates512_per_s']:>12,.1f} calls/s"
        f"  (scalar {query['scalar_estimates512_per_s']:,.1f})\n"
        f"  answer_batch       {query['answer_batch_queries_per_s']:>12,.1f} queries/s"
        f"  (scalar {query['scalar_answer_queries_per_s']:,.1f})\n"
        f"  plan-cache hits    {query['plan_cache_hit_rate']:>12.3f}\n"
        f"  ensemble serving   {query['ensemble_serial_qps']:>12,.1f} q/s serial"
    )


# ------------------------------------------------------------------- pytest


def test_batch_ingest_speedup(benchmark, report):
    quick = _quick_env()
    ingest = benchmark.pedantic(
        lambda: measure_ingest(QUICK_ARRIVALS if quick else FULL_ARRIVALS),
        rounds=1,
        iterations=1,
    )
    query = measure_query(5)
    query.update(measure_ensemble(2))
    report(_format(ingest, query))
    floor = MIN_SPEEDUP_QUICK if quick else MIN_SPEEDUP_FULL
    assert ingest["speedup"] >= floor


def test_query_fast_paths(benchmark):
    query = benchmark.pedantic(lambda: measure_query(10), rounds=1, iterations=1)
    assert query["reconstruct_window_per_s"] > 0
    assert query["estimates512_per_s"] > 0


# ------------------------------------------------------------------- script


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="scaled-down run")
    parser.add_argument(
        "--update", action="store_true", help="rewrite BENCH_*.json baselines"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on >tolerance slowdown vs committed BENCH_*.json",
    )
    args = parser.parse_args(argv)
    quick = args.quick or _quick_env()

    ingest, query = run_all(quick)
    print(_format(ingest, query))

    failures = []
    if args.check:  # read the committed baseline before --update rewrites it
        failures = check_against_baseline(ingest, INGEST_BASELINE)
        failures += check_against_baseline(query, QUERY_BASELINE)
    if args.update:
        write_baseline(ingest, INGEST_BASELINE, quick, INGEST_K)
        write_baseline(query, QUERY_BASELINE, quick, QUERY_K)
        print(f"wrote {INGEST_BASELINE.name} and {QUERY_BASELINE.name}")
    if args.check:
        if failures:
            for f in failures:
                print(f"FAIL {f}", file=sys.stderr)
            return 1
        print(f"baseline check passed (tolerance {_tolerance():.1f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
