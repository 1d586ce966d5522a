"""Benchmark of summit's offline experiment path, end to end and per layer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (in a separate process), then
runs repetitions until ``--seconds`` have passed (and at least three). Each
repetition is a fresh process (``worker.py``) that calls
``RunManifest.from_file`` + ``run_experiment`` in-process with ``workers=1``:
a closed loop with one client, documents handled one at a time. Every
repetition's outputs are checked (``checks.py``). The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced and
reported as medians over repetitions (counts are exact and must repeat).
With ``--trace 1`` untraced and traced repetitions alternate; the metrics
are the per-layer ones from the traced repetitions plus the tracing overhead
(median traced minus median untraced ``run_experiment`` wall time). Spans and
per-repetition results stay under ``.perfbench_work/`` in the checkout.

Exit codes: 0 success, 1 an output check or a repetition failed, 2 no summit
sources next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import (
    CheckFailed,
    check_identical_outputs,
    check_replay_matches_build,
    check_run,
    check_same_counts,
)
from workloads import WORKLOADS, repetition_manifest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))

MIN_REPETITIONS = 3
PROCESS_TIMEOUT_S = 120
# A fixed hash seed keeps dict and set layouts, and so timings, alike across processes.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "docs_per_s": "docs/s",
    "prompt_tokens_per_doc": "tokens",
    "completion_tokens_per_doc": "tokens",
    "calls_per_doc": "calls",
    "peak_rss_mb": "MiB",
    "doc_completed_ratio": "ratio",
}

LAYER_UNITS = {
    "metrics.rouge_l_s": "s",
    "metrics.rouge_l_calls": "calls",
    "metrics.lcs_cells": "cells",
    "metrics.rouge_n_s": "s",
    "metrics.tokenize_calls": "calls",
    "metrics.topic_similarity_s": "s",
    "session.self_s": "s",
    "session.iterations_per_doc": "iterations",
    "session.history_chars_per_call": "chars",
    "prompting.render_calls": "calls",
    "prompting.render_s": "s",
    "prompting.rendered_chars": "chars",
    "backend.complete_calls": "calls",
    "backend.complete_self_s": "s",
    "backend.cache_key_s": "s",
    "backend.cache_key_bytes": "bytes",
    "cache.load_s": "s",
    "cache.load_records": "records",
    "cache.get_calls": "calls",
    "cache.hit_ratio": "ratio",
    "cache.put_calls": "calls",
    "cache.put_s": "s",
    "cache.bytes_appended": "bytes",
    "parsing.parse_feedback_calls": "calls",
    "parsing.parse_feedback_s": "s",
    "parsing.distribution_parsed_ratio": "ratio",
    "knowledge.extract_s": "s",
    "knowledge.triplets_per_doc": "triplets",
    "corpus.load_s": "s",
    "corpus.sample_s": "s",
    "trace_io.write_s": "s",
    "trace_io.bytes_per_doc": "bytes",
    "experiment.self_s": "s",
    "tracing.overhead_s": "s",
    "tracing.traced_wall_s": "s",
    "tracing.untraced_wall_s": "s",
}


def _run_child(args: list, timeout: float = PROCESS_TIMEOUT_S) -> None:
    # subprocess.run kills and reaps the child on timeout or interrupt.
    subprocess.run([sys.executable, *map(str, args)], env=CHILD_ENV, check=True, timeout=timeout)


def run_repetition(workload, seed: int, docs: int, work: Path, index: int, traced: bool) -> dict:
    directory = work / f"rep{index:03d}"
    directory.mkdir()
    spec = repetition_manifest(workload, seed, docs)
    cache = spec["backend"].get("cache")
    cache_path = (directory / cache).resolve() if cache else None
    if workload.mode == "scripted-fresh-cache" and cache_path.exists():
        # A reused cache would serve every call and turn the run into a replay.
        raise CheckFailed(f"{cache_path} exists before a fresh-cache repetition")
    size_before = cache_path.stat().st_size if cache_path and cache_path.exists() else 0
    (directory / "manifest.json").write_text(json.dumps(spec, indent=2), encoding="utf-8")

    _run_child([HERE / "worker.py", directory, *(["--trace"] if traced else [])])
    result = json.loads((directory / "result.json").read_text(encoding="utf-8"))
    result["traced"] = traced
    out = directory / "out"
    counts = check_run(workload, out, docs)
    if workload.mode == "replay":
        check_replay_matches_build(work / "reference" / "out", out, workload.calls_per_doc)
    first = work / "first_out"
    if first.exists():
        check_identical_outputs(first, out)
    else:
        out.rename(first)
    size_after = cache_path.stat().st_size if cache_path and cache_path.exists() else 0
    counts["cache_bytes_appended"] = size_after - size_before
    if workload.mode == "scripted-fresh-cache":
        with cache_path.open("rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != counts["calls"] + 1:
            raise CheckFailed(f"fresh cache holds {lines - 1} records for {counts['calls']} calls")
        cache_path.unlink()
    result["counts"] = counts
    shutil.rmtree(out, ignore_errors=True)
    return result


def end_to_end_metrics(reps: list[dict]) -> dict:
    counts = reps[0]["counts"]
    completed = sum(r["completed"] for r in reps)
    sampled = sum(r["sampled"] for r in reps)
    per_doc = reps[0]["completed"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "docs_per_s": statistics.median(r["completed"] / r["sessions_s"] for r in reps),
        "prompt_tokens_per_doc": counts["prompt_tokens"] / per_doc,
        "completion_tokens_per_doc": counts["completion_tokens"] / per_doc,
        "calls_per_doc": counts["calls"] / per_doc,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "doc_completed_ratio": completed / sampled,
    }


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    first = traced[0]["layers"]
    exact = {name: value for name, value in first.items() if not name.endswith("_s")}
    for rep in traced[1:]:
        check_same_counts(exact, rep["layers"], "traced repetition")
    # Counts are exact and repeat; times are medians over the traced repetitions.
    out = {name: exact[name] if name in exact else statistics.median(rep["layers"][name] for rep in traced) for name in first}
    counts = traced[0]["counts"]
    out["cache.bytes_appended"] = counts["cache_bytes_appended"]
    out["trace_io.bytes_per_doc"] = counts["trace_bytes"] / traced[0]["completed"]
    traced_wall = statistics.median(r["run_experiment_s"] for r in traced)
    untraced_wall = statistics.median(r["run_experiment_s"] for r in untraced)
    out["tracing.traced_wall_s"] = traced_wall
    out["tracing.untraced_wall_s"] = untraced_wall
    out["tracing.overhead_s"] = traced_wall - untraced_wall
    return out


def _describe(name: str, value: float, unit: str, reps: list[dict]) -> str:
    detail = ""
    if name == "doc_completed_ratio":
        detail = f"{sum(r['completed'] for r in reps)} completed of {sum(r['sampled'] for r in reps)} sampled"
    elif name in ("setup_s", "docs_per_s", "peak_rss_mb"):
        detail = f"median of {len(reps)} repetitions"
    elif name.endswith("_per_doc"):
        detail = "exact; scripted backend's whitespace-word proxy" if "tokens" in name else "exact"
    return f"{name} = {value:.6g} {unit}" + (f"  ({detail})" if detail else "")


def benchmark(name: str, seed: int, seconds: float, trace: bool, docs: int | None = None) -> dict:
    """Run one workload and return the result object; raise CheckFailed on a bad output."""
    workload = WORKLOADS[name]
    docs = docs or workload.docs
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _run_child([HERE / "gen.py", "--workload", name, "--seed", seed, "--docs", docs, "--out", work])

    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_repetition(workload, seed, docs, work, len(reps), traced))
        check_same_counts(reps[0]["counts"], reps[-1]["counts"], f"repetition {len(reps) - 1}")
        enough = len(reps) >= (2 if trace else 1) * MIN_REPETITIONS
        if enough and time.perf_counter() - started >= seconds:
            break

    untraced = [r for r in reps if not r["traced"]]
    if trace:
        values = layer_metrics(untraced, [r for r in reps if r["traced"]])
        units = LAYER_UNITS
    else:
        values = end_to_end_metrics(untraced)
        units = END_TO_END_UNITS
    for metric, value in values.items():
        print(_describe(metric, value, units[metric], untraced))
    result = {
        "correct": True,
        "attempted": sum(r["sampled"] for r in reps),
        "failed": sum(r["failures"] for r in reps),
        "metrics": {metric: {"value": values[metric], "unit": units[metric]} for metric in units},
    }
    (work / "result.json").write_text(json.dumps({**result, "repetitions": reps}, indent=2), encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--docs", type=int, help="documents per repetition (default: the workload's)")
    args = parser.parse_args()

    if not (SRC / "summit" / "__init__.py").is_file():
        print(f"error: no summit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.docs)
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except subprocess.SubprocessError as exc:
        print(f"a benchmark process failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
