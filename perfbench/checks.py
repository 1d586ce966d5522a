"""Output checks applied to every repetition of a workload."""

from __future__ import annotations

import json
from pathlib import Path

from workloads import Workload


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_run(workload: Workload, out: Path, docs: int) -> dict:
    """Check one run directory against the workload's plan; return its exact counts.

    The counts are the scripted backend's whitespace-word token proxy from
    ``calls.json``, the number of backend calls, and the trace bytes written.
    """
    from summit.trace_io import read_trace

    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    calls = json.loads((out / "calls.json").read_text(encoding="utf-8"))
    run = stats["run"]
    _require(run["sampled"] == docs, f"sampled {run['sampled']} documents, expected {docs}")
    _require(run["completed"] == run["sampled"], f"completed {run['completed']} of {run['sampled']}")
    _require(not (out / "failures.jsonl").exists(), "failures.jsonl was written")

    traces = sorted((out / "traces").glob("*.jsonl"))
    _require(len(traces) == docs, f"{len(traces)} trace files for {docs} documents")
    for path in traces:
        records = read_trace(path)
        _require(
            len(records) == workload.expected_iterations,
            f"{path.name}: {len(records)} iterations, planned {workload.expected_iterations}",
        )
        stops = {record.stopped_by.value for record in records}
        _require(stops == {workload.expected_stop}, f"{path.name}: stopped by {stops}, planned {workload.expected_stop}")

    total_calls = sum(calls["calls"].values())
    _require(
        total_calls == docs * workload.calls_per_doc,
        f"{total_calls} backend calls, planned {docs * workload.calls_per_doc}",
    )
    served_from = "cache" if workload.mode == "replay" else "script"
    _require(calls["calls"][served_from] == total_calls, f"calls not all served from {served_from}: {calls['calls']}")
    rouge1 = stats["metrics"]["final"]["rouge1"]["mean"]
    _require(0.0 < rouge1 < 1.0, f"final ROUGE-1 mean {rouge1} is not strictly between 0 and 1")
    return {
        "prompt_tokens": calls["usage"]["prompt_tokens"],
        "completion_tokens": calls["usage"]["completion_tokens"],
        "calls": total_calls,
        "trace_bytes": sum(path.stat().st_size for path in traces),
    }


def _output_files(out: Path) -> list[str]:
    return ["stats.json"] + [f"traces/{p.name}" for p in sorted((out / "traces").iterdir())]


def check_identical_outputs(first: Path, out: Path) -> None:
    """``stats.json`` and every trace must match an earlier run byte for byte."""
    names = _output_files(first)
    _require(names == _output_files(out), "trace file names differ from the first repetition")
    for relative in names:
        _require(
            (first / relative).read_bytes() == (out / relative).read_bytes(),
            f"{relative} differs from the first repetition",
        )


def check_replay_matches_build(build: Path, replay: Path, calls_per_doc: int) -> None:
    """A replay must reproduce the run that built its cache.

    ``stats.json`` must match byte for byte. Trace records must match in
    every field but ``usage.cache_hits``, which the trace format records per
    session: 0 in the building run, one per call in the replay.
    """
    names = _output_files(build)
    _require(names == _output_files(replay), "trace file names differ from the run that built the cache")
    _require(
        (build / "stats.json").read_bytes() == (replay / "stats.json").read_bytes(),
        "stats.json differs from the run that built the cache",
    )
    for relative in names[1:]:
        built = (build / relative).read_text(encoding="utf-8").splitlines()
        replayed = (replay / relative).read_text(encoding="utf-8").splitlines()
        _require(len(built) == len(replayed) and built[0] == replayed[0], f"{relative}: header or length differs")
        for expected_line, line in zip(built[1:], replayed[1:]):
            expected, record = json.loads(expected_line), json.loads(line)
            hits = (expected["usage"].pop("cache_hits"), record["usage"].pop("cache_hits"))
            _require(hits == (0, calls_per_doc), f"{relative}: cache hits {hits}, expected (0, {calls_per_doc})")
            _require(record == expected, f"{relative} differs from the run that built the cache")


def check_same_counts(first: dict, later: dict, what: str) -> None:
    for key, value in first.items():
        _require(later.get(key) == value, f"{what}: {key} is {later.get(key)}, the first repetition had {value}")
