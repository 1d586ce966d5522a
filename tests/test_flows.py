"""The whole-run flows of the summit command line: batch, control and faithfulness.

Each flow writes its inputs into a directory, drives summit through
``run(*argv) -> exit code`` there, asserts what a run and its replays
promise, and returns the files (relative to the directory) whose bytes must
be the same on every interpreter.

pytest runs each flow in-process. Run as a script, the module runs every
flow as subprocesses of the command it is given, in one temporary
directory, and writes a ``sha256  path`` line for each returned file to
DIGEST (and to stdout). CI compares these digests across interpreters: the
batch script's first evaluation is a distribution whose sum once rounded
differently on 3.10 and 3.11.

    python tests/test_flows.py DIGEST summit
    PYTHONPATH=src python tests/test_flows.py DIGEST python -m summit.cli

A new whole-run check goes here, not into CI shell.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from test_refusals import command_env

DOCUMENT = "Report {i}: the harbor council approved repairs to the north pier after winter storms damaged it."
SCRIPT = {"schema": "summit/script", "version": 1, "steps": [
    {"match": "Please summarize", "response": "Initial summary."},
    {"match": "Please evaluate", "response": "Scores: 1:0.29 2:0.0 3:0.15 4:0.26 5:0.3 Shorten the summary."},
    {"match": "Revise the summary", "response": "Refined summary: winter storms damaged the pier."},
    {"match": "Please evaluate", "response": "Scores: 1:0.0 2:0.0 3:0.1 4:0.3 5:0.6 Do nothing. <STOP>"},
]}


def manifest(name: str, corpus: dict, session: dict, cache: str, output_dir: str) -> str:
    """A one-worker scripted manifest over three dev documents sampled with seed 1."""
    return json.dumps({
        "schema": "summit/manifest", "version": 1, "name": name,
        "corpus": corpus, "sample": {"n": 3, "seed": 1, "split": "dev"},
        "session": {"model_id": "scripted-model", **session},
        "backend": {"mode": "scripted", "script": "script.json", "cache": cache},
        "output_dir": output_dir, "workers": 1,
    })


def read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def with_cache(directory: Path, cache: str, name: str) -> None:
    """Write run/manifest.json to ``name`` with its cache replaced by ``cache``."""
    data = read(directory / "run" / "manifest.json")
    data["backend"]["cache"] = cache
    write(directory / name, json.dumps(data))


def traces(directory: Path, run_dir: str) -> list[str]:
    """The trace files of ``run_dir``, sorted; there must be some."""
    names = sorted(f"{run_dir}/traces/{path.name}" for path in (directory / run_dir / "traces").glob("*.jsonl"))
    assert names, f"{run_dir}/traces holds no trace"
    return names


def same_bytes(directory: Path, a: str, b: str) -> None:
    assert (directory / a).read_bytes() == (directory / b).read_bytes(), f"{a} and {b} differ"


def batch_inputs(run, directory: Path) -> None:
    """corpus.jsonl, converted from three XSum records, and script.json."""
    records = [{"id": f"x{i}", "document": DOCUMENT.format(i=i), "summary": f"Pier {i} will be repaired."} for i in (1, 2, 3)]
    write(directory / "xsum.jsonl", "".join(json.dumps(record) + "\n" for record in records))
    assert run("convert", "xsum.jsonl", "corpus.jsonl", "--format", "xsum") == 0
    write(directory / "script.json", json.dumps(SCRIPT))


def batch_flow(run, directory: Path) -> list[str]:
    """A quality run, its replay, a 4-worker replay and a report; replays over
    a cache with a record whose text is gone and over one with a torn tail."""
    batch_inputs(run, directory)
    write(directory / "manifest.json", manifest("batch-flow", {"path": "corpus.jsonl"}, {}, "cache.jsonl", "run"))
    assert run("run-exp", "manifest.json") == 0
    assert run("replay", "run/manifest.json", "--out", "replayed") == 0
    assert run("replay", "run/manifest.json", "--out", "replayed4", "--workers", "4") == 0
    assert run("report", "run", "replayed") == 0
    same_bytes(directory, "run/stats.json", "replayed/stats.json")
    # A run's traces record its cache hits, so a threaded replay is compared with a replay.
    same_bytes(directory, "replayed/stats.json", "replayed4/stats.json")
    replayed = traces(directory, "replayed")
    assert [name.replace("replayed/", "replayed4/") for name in replayed] == traces(directory, "replayed4")
    for name in replayed:
        same_bytes(directory, name, name.replace("replayed/", "replayed4/"))
    # The replay makes no live call and serves each of the run's scripted replies from the cache, with its tokens.
    ran, replay = read(directory / "run" / "calls.json"), read(directory / "replayed" / "calls.json")
    assert replay["calls"]["live"] == 0, replay
    assert replay["usage"]["prompt_tokens"] == ran["usage"]["prompt_tokens"], (ran, replay)
    assert replay["usage"]["completion_tokens"] == ran["usage"]["completion_tokens"], (ran, replay)
    assert replay["calls"]["cache"] == ran["calls"]["script"] > 0, (ran, replay)

    # A cache record whose response has no text is skipped at load, so its
    # document fails with a replay miss and the others complete.
    lines = (directory / "cache.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    del record["response"]["text"]
    lines[1] = json.dumps(record) + "\n"
    write(directory / "broken_cache.jsonl", "".join(lines))
    with_cache(directory, "broken_cache.jsonl", "broken_manifest.json")
    assert run("replay", "broken_manifest.json", "--out", "broken_replay") == 4
    failures = (directory / "broken_replay" / "failures.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(failures) == 1 and '"error": "ReplayMiss: ' in failures[0], failures

    # A record torn inside a two-byte character is skipped at load, as any torn tail is.
    shutil.copyfile(directory / "cache.jsonl", directory / "torn_cache.jsonl")
    with open(directory / "torn_cache.jsonl", "ab") as fh:
        fh.write(b'{"key": "torn", "response": {"text": "caf\xc3')
    with_cache(directory, "torn_cache.jsonl", "torn_manifest.json")
    assert run("replay", "torn_manifest.json", "--out", "torn_replay") == 0
    same_bytes(directory, "run/stats.json", "torn_replay/stats.json")
    return ["run/stats.json", "run/calls.json", *traces(directory, "run"), "cache.jsonl"]


def control_flow(run, directory: Path) -> list[str]:
    """A control run on each record's second topic, scored against the paired
    summary, and its replay. The refined draft shares words with that topic,
    so its topic_similarity is not 0."""
    records = [
        {"id": f"n{i}", "article": DOCUMENT.format(i=i), "summary1": f"Pier {i} will be repaired.",
         "summary2": f"Winter storms damaged pier {i}.", "topic1": "pier repairs", "topic2": "winter storms"}
        for i in (1, 2, 3)
    ]
    write(directory / "newts.jsonl", "".join(json.dumps(record) + "\n" for record in records))
    assert run("convert", "newts.jsonl", "newts_corpus.jsonl", "--format", "newts") == 0
    write(directory / "script.json", json.dumps(SCRIPT))
    corpus = {"path": "newts_corpus.jsonl", "schema": "newts"}
    session = {"setting": "control", "topic_index": 1}
    write(directory / "control_manifest.json", manifest("control-flow", corpus, session, "control_cache.jsonl", "control"))
    assert run("run-exp", "control_manifest.json") == 0
    assert run("replay", "control/manifest.json", "--out", "control_replayed") == 0
    same_bytes(directory, "control/stats.json", "control_replayed/stats.json")
    final = read(directory / "control" / "stats.json")["metrics"]["final"]
    assert min(final["topic_similarity"]["values"]) > 0, final
    return ["control/stats.json", "control/calls.json", *traces(directory, "control"), "control_cache.jsonl"]


def faithfulness_flow(run, directory: Path) -> list[str]:
    """The batch corpus in the faithfulness setting with no knowledge
    endpoint, so the naive extractor's triples go into every prompt and
    cache key, and its replay."""
    batch_inputs(run, directory)
    write(directory / "faith_manifest.json", manifest(
        "faith-flow", {"path": "corpus.jsonl"}, {"setting": "faithfulness"}, "faith_cache.jsonl", "faith"
    ))
    assert run("run-exp", "faith_manifest.json") == 0
    assert run("replay", "faith/manifest.json", "--out", "faith_replayed") == 0
    same_bytes(directory, "faith/stats.json", "faith_replayed/stats.json")
    return ["faith/stats.json", "faith/calls.json", *traces(directory, "faith"), "faith_cache.jsonl"]


FLOWS = (batch_flow, control_flow, faithfulness_flow)


@pytest.mark.parametrize("flow", FLOWS, ids=[flow.__name__ for flow in FLOWS])
def test_a_flow_holds_in_process(flow, tmp_path, monkeypatch):
    from click.testing import CliRunner

    from summit.cli import main  # here, so that the script runner imports no summit

    monkeypatch.chdir(tmp_path)

    def run(*argv: str) -> int:
        result = CliRunner().invoke(main, list(argv))
        assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
        return result.exit_code

    assert all((tmp_path / name).is_file() for name in flow(run, tmp_path))


def write_digest(digest: str, command: list[str]) -> None:
    """Run every flow as subprocesses of ``command`` in one temporary
    directory, and write the digest of each file they return to ``digest``."""
    env = command_env()
    with tempfile.TemporaryDirectory() as temp:
        directory = Path(temp)

        def run(*argv: str) -> int:
            return subprocess.run([*command, *argv], cwd=directory, env=env, timeout=120).returncode

        names = [name for flow in FLOWS for name in flow(run, directory)]
        lines = "".join(f"{hashlib.sha256((directory / name).read_bytes()).hexdigest()}  {name}\n" for name in names)
    Path(digest).write_text(lines, encoding="utf-8")
    print(lines, end="")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit("usage: python tests/test_flows.py DIGEST COMMAND...")
    write_digest(sys.argv[1], sys.argv[2:])
