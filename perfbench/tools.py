"""Steadiness report and exact-repeat check around ``run.py``.

    python3 perfbench/tools.py steady --workload replication --runs 10
    python3 perfbench/tools.py repeat --workload ensemble --seed 3

Run from the repository root.  Every run is a fresh ``run.py`` process,
started one after another, never in parallel.

``steady`` runs one workload with seeds ``first-seed .. first-seed+runs-1``
and prints, per metric, the median, quartiles (``statistics.quantiles``,
n=4), min and max, and the quartile spread as a share of the median next
to the bound in ``BENCHMARK.json``.  The bounds were set from its output.

``repeat`` runs a seed twice and the next seed once (``--trace 0``), and
fails unless the two same-seed fingerprints are identical and the other
seed passes its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Tuple[Dict[str, Any], str]:
    """One ``run.py`` process: its result object and its fingerprint line."""
    proc = subprocess.run(
        [
            sys.executable,
            RUN,
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    prints = [line for line in lines if line.startswith("FINGERPRINT ")]
    return json.loads(lines[-1]), (prints[0] if prints else "")


def bounds() -> Dict[str, float]:
    if not os.path.exists(SPEC):
        return {}
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def steady(args: argparse.Namespace) -> int:
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result, _ = run_once(args.workload, seed, args.seconds, args.trace)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(float(m["value"]))
            units[name] = m["unit"]
        print(f"run {i + 1}/{args.runs} seed {seed} done", file=sys.stderr)
    limits = bounds() if args.trace == 0 else {}
    print(f"{args.workload}: {args.runs} runs, {args.seconds} s each, trace {args.trace}")
    print(
        f"{'metric':32s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
        f"{'min':>12s} {'max':>12s} {'spread':>7s} {'bound':>6s}"
    )
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "" if spread <= bound / 3 else "  > bound/3"
        print(
            f"{name:32s} {units[name]:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
            f"{min(vals):12.6g} {max(vals):12.6g} {spread:7.3f} "
            f"{'' if bound is None else format(bound, '.2f'):>6s}{flag}"
        )
    if limits:
        print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


def repeat(args: argparse.Namespace) -> int:
    _, first = run_once(args.workload, args.seed, args.seconds, 0)
    _, second = run_once(args.workload, args.seed, args.seconds, 0)
    _, other = run_once(args.workload, args.seed + 1, args.seconds, 0)
    print(f"seed {args.seed}:     {first}")
    print(f"seed {args.seed}:     {second}")
    print(f"seed {args.seed + 1}:     {other}")
    if first != second:
        print("FAIL: the same seed gave different fingerprints")
        return 1
    print("ok: identical fingerprints for one seed; the other seed passed its checks")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("steady", help="per-metric spread over seeded fresh-process runs")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--first-seed", type=int, default=1)
    p.set_defaults(fn=steady)
    p = sub.add_parser("repeat", help="exact-repeat fingerprint check")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=2.0)
    p.set_defaults(fn=repeat)
    args = parser.parse_args(argv)
    return int(args.fn(args))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
