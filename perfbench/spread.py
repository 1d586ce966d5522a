"""Run the benchmark over several seeds and report each metric's median and spread.

Usage:
  python3 perfbench/spread.py --workload NAME [--workload NAME ...] --seeds 1-10
      [--seconds S] [--trace 0|1] [--json OUT]

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; a metric
is steady when its spread is well below its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
        summary[workload] = {}
        for metric in runs[0]:
            stats = summarize([run[metric]["value"] for run in runs])
            summary[workload][metric] = stats
            bound = bounds.get(metric)
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER A THIRD" if stats["spread"] > bound / 3 else "")
            print(f"{workload:14s} {metric:36s} median {stats['median']:<12.6g} spread {stats['spread']:.4f}{flag}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
