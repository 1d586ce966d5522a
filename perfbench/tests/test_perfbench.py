"""Self-test of the benchmark at a tiny size.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import CheckFailed, check_identical_outputs, check_replay_matches_build  # noqa: E402
from workloads import WORKLOADS, repetition_manifest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY_DOCS = 3


def _bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "97",
               "--seconds", "0", "--trace", str(trace), "--docs", str(TINY_DOCS)]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_the_declared_metrics(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= TINY_DOCS
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert NAME_RE.fullmatch(metric["name"]), metric["name"]
        assert UNIT_RE.fullmatch(metric["unit"]), metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_layer_self_times_add_up_to_the_traced_wall():
    proc = _bench("refine-cnndm", 1)
    assert proc.returncode == 0, proc.stderr
    work = ROOT / ".perfbench_work" / "refine-cnndm-seed97-trace1"
    spans = [json.loads(line) for line in (work / "rep001" / "spans.jsonl").read_text().splitlines()]
    assert spans[0][0] == "experiment.run_experiment" and spans[0][3] == -1
    children = [0.0] * len(spans)
    for name, start, end, parent, _document in spans:
        if parent >= 0:
            children[parent] += end - start
    self_total = sum(end - start - children[i] for i, (_, start, end, _, _) in enumerate(spans))
    root_wall = spans[0][2] - spans[0][1]
    assert self_total == pytest.approx(root_wall, rel=1e-6)


def test_checks_reject_a_corrupted_replay_trace(tmp_path):
    workload = WORKLOADS["replay-xsum"]
    subprocess.run([sys.executable, str(BENCH / "gen.py"), "--workload", workload.name, "--seed", "5",
                    "--docs", str(TINY_DOCS), "--out", str(tmp_path)], check=True, timeout=120)
    repetition = tmp_path / "rep"
    repetition.mkdir()
    (repetition / "manifest.json").write_text(json.dumps(repetition_manifest(workload, 5, TINY_DOCS)))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(repetition)], check=True, timeout=120)
    build, out = tmp_path / "reference" / "out", repetition / "out"
    check_replay_matches_build(build, out, workload.calls_per_doc)

    corrupted = tmp_path / "corrupted"
    shutil.copytree(out, corrupted)
    trace = sorted((corrupted / "traces").iterdir())[0]
    lines = trace.read_text(encoding="utf-8").splitlines()
    marker = '"summary_text": "'
    at = lines[1].index(marker) + len(marker)
    lines[1] = lines[1][:at] + ("X" if lines[1][at] != "X" else "Y") + lines[1][at + 1 :]
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CheckFailed):
        check_replay_matches_build(build, corrupted, workload.calls_per_doc)
    with pytest.raises(CheckFailed):
        check_identical_outputs(out, corrupted)


def test_fails_without_summit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("refine-cnndm", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
