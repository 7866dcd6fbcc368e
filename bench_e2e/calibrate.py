"""Repeat the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 bench_e2e/calibrate.py --runs 10 --first-seed 1 --out bench_e2e/BENCH_e2e.json

Each run is ``run.py`` in a fresh process, with seeds ``first-seed``,
``first-seed + 1``, ...; workloads take turns, so a slow spell of the host
spreads over all of them.  For every workload and metric this prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
``--out`` also writes them as JSON, stamped with ``git describe``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from repro.obs.export import git_describe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: A run may take this long before calibration gives up on it.
RUN_TIMEOUT_S = 180


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        cwd=str(ROOT),
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workload", action="append", choices=[w.name for w in WORKLOADS],
        help="calibrate only these workloads (repeatable; default all)",
    )
    parser.add_argument("--out", help="also write the summary to this JSON file")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs needs at least 2 runs for quartiles")
    names = args.workload or [w.name for w in WORKLOADS]

    values: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
    units: Dict[str, str] = {}
    verdicts: Dict[str, List[str]] = {n: [] for n in names}
    for index in range(args.runs):
        seed = args.first_seed + index
        for name in names:
            started = time.perf_counter()
            result = one_run(name, seed, args.seconds, args.trace)
            elapsed = time.perf_counter() - started
            if not result["correct"] or result["failed"]:
                verdicts[name].append(
                    f"seed {seed}: correct={result['correct']} "
                    f"failed={result['failed']}/{result['attempted']}"
                )
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"run {index + 1}/{args.runs} {name} seed {seed} took "
                  f"{elapsed:.1f}s", file=sys.stderr, flush=True)

    summary: Dict[str, Dict[str, dict]] = {}
    for name in names:
        summary[name] = {}
        for metric, series in values[name].items():
            stats = summarize(series)
            stats["values"] = series
            summary[name][metric] = stats
            print(
                f"{name:<11} {metric:<24} median {stats['median']:<12.6g} "
                f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                f"spread {stats['spread']:.2%} {units[metric]}"
            )
        for problem in verdicts[name]:
            print(f"{name:<11} NOT CORRECT {problem}")

    if args.out:
        payload = {
            "git_describe": git_describe(),
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
            "runs": args.runs,
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "seconds": args.seconds,
            "trace": args.trace,
            "units": units,
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 1 if any(verdicts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
