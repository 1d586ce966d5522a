from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest
import requests
from click.testing import CliRunner

import summit.cli as cli
import summit.experiment as experiment
from helpers import QUALITY_SCRIPT, RecordingBackend, make_corpus_file, write_script
from summit.cache import CachedReply, ResponseCache
from summit.cli import EXIT_BACKEND, EXIT_CONFIG, EXIT_PARTIAL, main
from summit.config import resolve_backend_settings
from summit.corpus import load_corpus, write_corpus
from summit.errors import (
    DegenerateDistribution,
    EmptyInput,
    MissingSlot,
    ParseError,
    SchemaViolation,
    SummitError,
    TransportError,
)
from summit.experiment import RunManifest, run_experiment
from summit.trace_io import read_trace

DOC_TEXT = (
    "The harbor council approved emergency repairs on Friday after winter storms "
    "damaged the north pier, and local businesses asked for a faster schedule."
)


@pytest.fixture
def runner():
    return CliRunner()


def write_doc(tmp_path: Path) -> Path:
    path = tmp_path / "article.txt"
    path.write_text(DOC_TEXT, encoding="utf-8")
    return path


def make_manifest(
    tmp_path: Path,
    n: int = 10,
    script=QUALITY_SCRIPT,
    corpus_records=None,
    split: str = "test",
    mode: str = "scripted",
    cache: str | None = "cache.jsonl",
    **extra_session,
) -> Path:
    if corpus_records is None:
        make_corpus_file(tmp_path / "corpus.jsonl", max(n, 10))
    write_script(tmp_path / "script.json", script)
    manifest = {
        "schema": "summit/manifest",
        "version": 1,
        "name": "demo-run",
        "corpus": {"path": "corpus.jsonl", "schema": "generic"},
        "sample": {"n": n, "seed": 7, "split": split},
        "session": {"model_id": "scripted-model", "setting": "quality", **extra_session},
        "backend": {"mode": mode, "script": "script.json", "cache": cache},
        "output_dir": "out",
        "workers": 2,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


# --- summarize ---------------------------------------------------------------------


def test_summarize_scripted_prints_final_refine_output(runner, tmp_path):
    doc = write_doc(tmp_path)
    script = write_script(tmp_path / "script.json", QUALITY_SCRIPT)
    trace_out = tmp_path / "trace.jsonl"
    result = runner.invoke(
        main,
        [
            "summarize", "--doc", str(doc), "--backend", "scripted",
            "--script", str(script), "--trace-out", str(trace_out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert result.output.strip().endswith("Refined summary of the document.")
    lines = trace_out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3  # header + 2 steps


def test_summarize_fills_a_new_cache_that_replay_serves(runner, tmp_path):
    doc = write_doc(tmp_path)
    script = write_script(tmp_path / "script.json", QUALITY_SCRIPT)
    cache = str(tmp_path / "cache.jsonl")
    first = runner.invoke(
        main, ["summarize", "--doc", str(doc), "--backend", "scripted", "--script", str(script), "--cache", cache]
    )
    assert first.exit_code == 0, first.output
    replayed = runner.invoke(main, ["summarize", "--doc", str(doc), "--backend", "replay", "--cache", cache])
    assert replayed.exit_code == 0, replayed.output
    assert replayed.output == first.output


def _break_first_record(cache: Path, breakage) -> dict:
    """Apply ``breakage`` to the response of the cache's first record; the
    record as it was."""
    lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    broken = json.loads(lines[1])
    breakage(broken["response"])
    lines[1] = json.dumps(broken) + "\n"
    cache.write_text("".join(lines), encoding="utf-8")
    return record


_BROKEN_REPLIES = pytest.mark.parametrize(
    "breakage",
    [lambda response: response.pop("text"), lambda response: response["usage"].update(prompt_tokens="x")],
    ids=["no-text", "prompt-tokens-not-an-integer"],
)


def _summarize_with_cache(runner, tmp_path, mode: str):
    doc = write_doc(tmp_path)
    script = write_script(tmp_path / "script.json", QUALITY_SCRIPT)
    args = ["summarize", "--doc", str(doc), "--backend", mode, "--cache", str(tmp_path / "cache.jsonl")]
    return runner.invoke(main, args + (["--script", str(script)] if mode == "scripted" else []))


@_BROKEN_REPLIES
def test_summarize_replay_over_a_malformed_record_is_a_replay_miss(runner, tmp_path, caplog, breakage):
    assert _summarize_with_cache(runner, tmp_path, "scripted").exit_code == 0
    cache = tmp_path / "cache.jsonl"
    _break_first_record(cache, breakage)
    replayed = _summarize_with_cache(runner, tmp_path, "replay")
    assert isinstance(replayed.exception, SystemExit)
    assert replayed.exit_code == EXIT_BACKEND, replayed.output
    assert "no cached response" in replayed.output
    assert f"skipping malformed cache record at {cache}:2" in caplog.text


@_BROKEN_REPLIES
def test_a_scripted_run_over_a_malformed_record_asks_the_script_and_appends_it(runner, tmp_path, breakage):
    first = _summarize_with_cache(runner, tmp_path, "scripted")
    assert first.exit_code == 0, first.output
    cache = tmp_path / "cache.jsonl"
    original = _break_first_record(cache, breakage)
    lines = len(cache.read_text(encoding="utf-8").splitlines())
    again = _summarize_with_cache(runner, tmp_path, "scripted")
    assert again.exit_code == 0, again.output
    assert again.output == first.output
    appended = cache.read_text(encoding="utf-8").splitlines()[lines:]
    assert [json.loads(line) for line in appended] == [original]
    usage = original["response"]["usage"]
    expected = CachedReply("Initial summary of the document.", usage["prompt_tokens"], usage["completion_tokens"])
    assert ResponseCache(cache).get(original["key"]) == expected


def test_summarize_reads_stdin(runner, tmp_path):
    script = write_script(tmp_path / "script.json", QUALITY_SCRIPT)
    result = runner.invoke(
        main,
        ["summarize", "--backend", "scripted", "--script", str(script)],
        input=DOC_TEXT,
    )
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "from_file, doc_id, expected",
    [(True, "X", "X"), (True, None, "article"), (False, "X", "X"), (False, None, "stdin")],
)
def test_summarize_records_the_document_id(runner, tmp_path, from_file, doc_id, expected):
    script = write_script(tmp_path / "script.json", QUALITY_SCRIPT)
    trace_out = tmp_path / "trace.jsonl"
    args = ["summarize", "--backend", "scripted", "--script", str(script), "--trace-out", str(trace_out)]
    if from_file:
        args += ["--doc", str(write_doc(tmp_path))]
    if doc_id is not None:
        args += ["--doc-id", doc_id]
    result = runner.invoke(main, args, input=None if from_file else DOC_TEXT)
    assert result.exit_code == 0, result.output
    records = [json.loads(line) for line in trace_out.read_text(encoding="utf-8").splitlines()[1:]]
    assert {record["document_id"] for record in records} == {expected}


def test_summarize_control_requires_topic(runner, tmp_path):
    doc = write_doc(tmp_path)
    result = runner.invoke(main, ["summarize", "--doc", str(doc), "--setting", "control"])
    assert result.exit_code == EXIT_CONFIG
    assert "topic" in result.output


def test_summarize_max_iters_one(runner, tmp_path):
    doc = write_doc(tmp_path)
    script = write_script(tmp_path / "script.json", QUALITY_SCRIPT[:2])
    trace_out = tmp_path / "trace.jsonl"
    result = runner.invoke(
        main,
        [
            "summarize", "--doc", str(doc), "--backend", "scripted",
            "--script", str(script), "--max-iters", "1", "--trace-out", str(trace_out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert len(trace_out.read_text(encoding="utf-8").splitlines()) == 2  # header + 1 step


def test_summarize_script_exhaustion_is_backend_error(runner, tmp_path):
    doc = write_doc(tmp_path)
    script = write_script(tmp_path / "script.json", QUALITY_SCRIPT[:1])
    result = runner.invoke(
        main, ["summarize", "--doc", str(doc), "--backend", "scripted", "--script", str(script)]
    )
    assert result.exit_code == EXIT_BACKEND
    assert "backend error" in result.output


def test_summarize_scripted_without_script(runner, tmp_path):
    doc = write_doc(tmp_path)
    result = runner.invoke(main, ["summarize", "--doc", str(doc), "--backend", "scripted"])
    assert result.exit_code == EXIT_CONFIG


def test_summarize_live_without_base_url(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("SUMMIT_BASE_URL", raising=False)
    doc = write_doc(tmp_path)
    result = runner.invoke(main, ["summarize", "--doc", str(doc)])
    assert result.exit_code == EXIT_CONFIG
    assert "base URL" in result.output


@pytest.mark.parametrize("from_file", [True, False])
def test_summarize_rejects_a_document_that_is_not_utf8(runner, tmp_path, from_file):
    script = write_script(tmp_path / "script.json", QUALITY_SCRIPT)
    doc = tmp_path / "bad.txt"
    doc.write_bytes(b"A report \xff on the pier.")
    args = ["summarize", "--backend", "scripted", "--script", str(script)]
    if from_file:
        args += ["--doc", str(doc)]
    result = runner.invoke(main, args, input=None if from_file else doc.read_bytes())
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == EXIT_CONFIG, result.output
    assert f"document {doc if from_file else 'on stdin'} is not UTF-8" in result.output


def test_summarize_strict_on_an_unparseable_reply_is_a_backend_error(runner, tmp_path):
    script = write_script(
        tmp_path / "script.json",
        [QUALITY_SCRIPT[0], {"match": "Please evaluate", "response": "It reads well."}],
    )
    result = runner.invoke(
        main, ["summarize", "--doc", str(write_doc(tmp_path)), "--backend", "scripted", "--script", str(script), "--strict"]
    )
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == EXIT_BACKEND, result.output
    assert "backend error: no score distribution" in result.output


def test_summarize_into_an_unwritable_trace_path_fails_before_any_call(runner, tmp_path, monkeypatch):
    backends = []
    build_parts = cli.build_parts

    def recording_parts(*args, **kwargs):
        prompts, exemplars, factory, extractor, cache = build_parts(*args, **kwargs)

        def recording_factory():
            backends.append(RecordingBackend(factory()))
            return backends[-1]

        return prompts, exemplars, recording_factory, extractor, cache

    monkeypatch.setattr(cli, "build_parts", recording_parts)
    script = write_script(tmp_path / "script.json", QUALITY_SCRIPT)
    (tmp_path / "d.txt").write_text("a regular file", encoding="utf-8")
    args = ["summarize", "--doc", str(write_doc(tmp_path)), "--backend", "scripted", "--script", str(script)]
    result = runner.invoke(main, args + ["--trace-out", str(tmp_path / "d.txt" / "x")])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == EXIT_CONFIG, result.output
    assert str(tmp_path / "d.txt") in result.output
    assert [r for backend in backends for r in backend.requests] == []
    # The same command with a usable path sends its requests through the recorder.
    assert runner.invoke(main, args + ["--trace-out", str(tmp_path / "t" / "x")]).exit_code == 0
    assert len(backends[-1].requests) == len(QUALITY_SCRIPT)


def test_summarize_prints_a_lone_surrogate_as_its_escape(runner, tmp_path):
    script = write_script(
        tmp_path / "script.json", [{"match": "Please summarize", "response": "Init \udfff summary."}, QUALITY_SCRIPT[1]]
    )
    result = runner.invoke(
        main,
        [
            "summarize", "--doc", str(write_doc(tmp_path)), "--backend", "scripted",
            "--script", str(script), "--max-iters", "1", "--trace-out", str(tmp_path / "trace.jsonl"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[-1] == "Init \\udfff summary."
    assert read_trace(tmp_path / "trace.jsonl")[-1].summary_text == "Init \udfff summary."


# --- run-exp -----------------------------------------------------------------------


def test_run_exp_processes_sample(runner, tmp_path):
    manifest = make_manifest(tmp_path, n=10)
    result = runner.invoke(main, ["run-exp", str(manifest)])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    assert len(list((out / "traces").glob("*.jsonl"))) == 10
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["run"]["completed"] == 10
    assert stats["metrics"]["final"]["rouge1"]["count"] == 10
    assert stats["metrics"]["init"]["gpt_eval"]["count"] == 10
    assert (out / "manifest.json").exists()


def test_run_exp_counts_every_call_across_worker_threads(runner, tmp_path):
    # Four workers tally into one calls.json; a short switch interval makes
    # thread switches frequent, so a lost update would show as a short count.
    n = 200
    manifest = make_manifest(tmp_path, n=n, cache=None)
    data = json.loads(manifest.read_text(encoding="utf-8"))
    manifest.write_text(json.dumps({**data, "workers": 4}), encoding="utf-8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = runner.invoke(main, ["run-exp", str(manifest)])
    finally:
        sys.setswitchinterval(interval)
    assert result.exit_code == 0, result.output
    calls = json.loads((tmp_path / "out" / "calls.json").read_text(encoding="utf-8"))
    assert calls["calls"] == {"live": 0, "cache": 0, "script": n * len(QUALITY_SCRIPT)}


def test_run_exp_poison_doc_records_failure(runner, tmp_path):
    records = make_corpus_file(tmp_path / "corpus.jsonl", 10)
    poison_id = records[3].id
    poisoned = [
        dict(QUALITY_SCRIPT[0], match=rf"^(?!.*{poison_id}\b).*Please summarize", regex=True),
        *QUALITY_SCRIPT[1:],
    ]
    # Embed the record id in its document so the regex can see it.
    lines = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    rewritten = []
    for line in lines:
        record = json.loads(line)
        if record.get("id"):
            record["document"] = f"[{record['id']}] {record['document']}"
        rewritten.append(json.dumps(record))
    (tmp_path / "corpus.jsonl").write_text("\n".join(rewritten) + "\n", encoding="utf-8")

    manifest = make_manifest(tmp_path, n=10, script=poisoned, corpus_records=records)
    result = runner.invoke(main, ["run-exp", str(manifest)])
    assert result.exit_code == EXIT_PARTIAL
    out = tmp_path / "out"
    assert len(list((out / "traces").glob("*.jsonl"))) == 9
    failures = [json.loads(l) for l in (out / "failures.jsonl").read_text().splitlines()]
    assert failures == [{"document_id": poison_id, "error": failures[0]["error"]}]
    assert "ScriptMismatch" in failures[0]["error"]
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["run"]["failures"] == 1
    assert stats["metrics"]["final"]["rouge1"]["count"] == 9


def test_run_exp_counts_the_calls_of_documents_that_fail(runner, tmp_path):
    # A budget of one token fails every session right after its first call.
    n = 4
    manifest = make_manifest(tmp_path, n=n, token_budget=1)
    result = runner.invoke(main, ["run-exp", str(manifest)])
    assert result.exit_code == EXIT_PARTIAL, result.output
    out = tmp_path / "out"
    failures = [json.loads(l) for l in (out / "failures.jsonl").read_text().splitlines()]
    assert len(failures) == n and all("BudgetExceeded" in f["error"] for f in failures)
    calls = json.loads((out / "calls.json").read_text(encoding="utf-8"))
    assert calls["calls"] == {"live": 0, "cache": 0, "script": n}
    assert calls["usage"] == {"prompt_tokens": 0, "completion_tokens": 0, "cache_hits": 0}


def test_finished_traces_survive_a_later_crash(tmp_path, monkeypatch):
    path = make_manifest(tmp_path, n=5)
    manifest = dataclasses.replace(RunManifest.from_file(path), workers=1)
    finished = []
    real_run_session = experiment.run_session

    def crash_on_the_third_document(doc, *args, **kwargs):
        if len(finished) == 2:
            raise RuntimeError("worker crashed")
        finished.append(doc.id)
        return real_run_session(doc, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_session", crash_on_the_third_document)
    with pytest.raises(RuntimeError):
        run_experiment(manifest)
    traces = tmp_path / "out" / "traces"
    assert sorted(p.stem for p in traces.glob("*.jsonl")) == sorted(finished)
    for doc_id in finished:
        assert read_trace(traces / f"{doc_id}.jsonl")[-1].stopped_by.value == "evaluator_stop"


def test_an_interrupted_run_leaves_the_manifest_a_complete_run_writes(tmp_path, monkeypatch):
    path = make_manifest(tmp_path, n=4)
    manifest = dataclasses.replace(RunManifest.from_file(path), workers=1)
    started = []
    real_run_session = experiment.run_session

    def interrupt_the_second_document(doc, *args, **kwargs):
        started.append(doc.id)
        if len(started) == 2:
            raise KeyboardInterrupt
        return real_run_session(doc, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_session", interrupt_the_second_document)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(manifest)
    emitted = tmp_path / "out" / "manifest.json"
    interrupted = emitted.read_bytes()
    assert not (tmp_path / "out" / "stats.json").exists()

    monkeypatch.setattr(experiment, "run_session", real_run_session)
    run_experiment(manifest)
    assert interrupted == emitted.read_bytes()


def test_a_scorer_outage_keeps_the_finished_sessions(runner, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(requests, "post", refuse)
    path = make_manifest(tmp_path, n=3)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["faithfulness"] = {"endpoint": "http://scorer.example/score"}
    path.write_text(json.dumps(data), encoding="utf-8")
    result = runner.invoke(main, ["run-exp", str(path)])
    assert result.exit_code == EXIT_PARTIAL, result.output
    out = tmp_path / "out"
    failures = [json.loads(line) for line in (out / "failures.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(failures) == 3 and all(f["error"].startswith("RemoteUnavailable") for f in failures)
    for failure in failures:
        steps = read_trace(out / "traces" / f"{failure['document_id']}.jsonl")
        assert steps[-1].summary_text == "Refined summary of the document."


def test_run_exp_rejects_a_corpus_with_a_torn_line(runner, tmp_path):
    records = make_corpus_file(tmp_path / "corpus.jsonl", 6)
    lines = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3][: len(lines[3]) // 2]  # line 4: the third record, cut short
    (tmp_path / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = make_manifest(tmp_path, n=5, corpus_records=records)
    result = runner.invoke(main, ["run-exp", str(manifest)])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "line(s) 4" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run-exp", "replay"])
def test_a_corpus_line_that_is_not_utf8_is_a_config_error(runner, tmp_path, command):
    records = make_corpus_file(tmp_path / "corpus.jsonl", 6)
    with (tmp_path / "corpus.jsonl").open("ab") as fh:
        fh.write(b'{"id": "bad", "document": "A report \xff on the pier.", "summaries": ["Pier."]}\n')
    manifest = make_manifest(tmp_path, n=5, corpus_records=records)
    result = runner.invoke(main, [command, str(manifest)])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "line(s) 8" in result.output and "not UTF-8: 'utf-8' codec can't decode byte 0xff" in result.output
    assert not (tmp_path / "out" / "stats.json").exists()


def test_replay_reproduces_stats_with_zero_live_calls(runner, tmp_path):
    manifest = make_manifest(tmp_path, n=10)
    assert runner.invoke(main, ["run-exp", str(manifest)]).exit_code == 0

    emitted = tmp_path / "out" / "manifest.json"
    r1 = runner.invoke(main, ["replay", str(emitted), "--out", str(tmp_path / "r1")])
    r2 = runner.invoke(main, ["replay", str(emitted), "--out", str(tmp_path / "r2")])
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0, r2.output

    stats_original = (tmp_path / "out" / "stats.json").read_bytes()
    stats_r1 = (tmp_path / "r1" / "stats.json").read_bytes()
    stats_r2 = (tmp_path / "r2" / "stats.json").read_bytes()
    assert stats_r1 == stats_r2 == stats_original

    for replay_dir in ("r1", "r2"):
        calls = json.loads((tmp_path / replay_dir / "calls.json").read_text(encoding="utf-8"))
        assert calls["calls"]["live"] == 0
        assert calls["calls"]["script"] == 0
        assert calls["calls"]["cache"] > 0


@_BROKEN_REPLIES
def test_replay_over_a_malformed_record_fails_that_document_alone(runner, tmp_path, caplog, breakage):
    manifest = make_manifest(tmp_path, n=3)
    assert runner.invoke(main, ["run-exp", str(manifest)]).exit_code == 0
    _break_first_record(tmp_path / "cache.jsonl", breakage)
    result = runner.invoke(main, ["replay", str(tmp_path / "out" / "manifest.json"), "--out", str(tmp_path / "r")])
    assert result.exit_code == EXIT_PARTIAL, result.output
    failures = (tmp_path / "r" / "failures.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(failures) == 1 and json.loads(failures[0])["error"].startswith("ReplayMiss")
    assert f"skipping malformed cache record at {tmp_path / 'cache.jsonl'}:2" in caplog.text


def test_a_run_with_lone_surrogates_completes_and_replays_identically(runner, tmp_path):
    # A live API that cuts an emoji's surrogate pair in half returns a lone surrogate.
    records = make_corpus_file(tmp_path / "corpus.jsonl", 10)
    records = [dataclasses.replace(r, document=f"{r.document} Cut \ud83d here.") for r in records]
    write_corpus(records, tmp_path / "corpus.jsonl")
    script = [dict(QUALITY_SCRIPT[0], response="Init \ud800 summary."), *QUALITY_SCRIPT[1:]]
    manifest = make_manifest(tmp_path, n=10, script=script, corpus_records=records)
    first = runner.invoke(main, ["run-exp", str(manifest)])
    assert first.exit_code == 0, first.output
    replayed = runner.invoke(main, ["replay", str(tmp_path / "out" / "manifest.json"), "--out", str(tmp_path / "r")])
    assert replayed.exit_code == 0, replayed.output
    assert (tmp_path / "r" / "stats.json").read_bytes() == (tmp_path / "out" / "stats.json").read_bytes()
    for trace in (tmp_path / "r" / "traces").glob("*.jsonl"):
        assert read_trace(trace)[0].summary_text == "Init \ud800 summary."
    calls = json.loads((tmp_path / "r" / "calls.json").read_text(encoding="utf-8"))
    assert calls["calls"] == {"live": 0, "cache": 10 * len(script), "script": 0}


def test_a_failure_record_holding_a_lone_surrogate_is_written(runner, tmp_path):
    records = [dataclasses.replace(r, id=f"{r.id}\ud800") for r in make_corpus_file(tmp_path / "corpus.jsonl", 2)]
    write_corpus(records, tmp_path / "corpus.jsonl")
    manifest = make_manifest(tmp_path, n=2, corpus_records=records, token_budget=1)
    result = runner.invoke(main, ["run-exp", str(manifest)])
    assert result.exit_code == EXIT_PARTIAL, result.output
    failures = [json.loads(line) for line in (tmp_path / "out" / "failures.jsonl").read_text().splitlines()]
    assert sorted(f["document_id"] for f in failures) == sorted(r.id for r in records)


def test_replay_without_prior_cache_fails_as_backend_error(runner, tmp_path):
    manifest = make_manifest(tmp_path, n=2, mode="replay")
    result = runner.invoke(main, ["run-exp", str(manifest)])
    assert result.exit_code == EXIT_PARTIAL  # every document fails with ReplayMiss
    failures = (tmp_path / "out" / "failures.jsonl").read_text(encoding="utf-8")
    assert "ReplayMiss" in failures


def test_run_exp_live_requires_yes(runner, tmp_path):
    manifest = make_manifest(tmp_path, n=2, mode="live")
    data = json.loads(manifest.read_text(encoding="utf-8"))
    data["backend"]["base_url"] = "http://localhost:1"
    manifest.write_text(json.dumps(data), encoding="utf-8")
    result = runner.invoke(main, ["run-exp", str(manifest)])
    assert result.exit_code == EXIT_CONFIG
    assert "--yes" in result.output
    assert not (tmp_path / "cache.jsonl").exists()  # the refused run takes no cache lock


def test_peek_guard_on_test_split(runner, tmp_path):
    manifest = make_manifest(tmp_path, n=5, split="test")
    assert runner.invoke(main, ["run-exp", str(manifest)]).exit_code == 0
    # Simulate prompt churn after the test run directory was created.
    emitted = tmp_path / "out" / "manifest.json"
    data = json.loads(emitted.read_text(encoding="utf-8"))
    data["prompt_fingerprint"] = "0" * 64
    emitted.write_text(json.dumps(data), encoding="utf-8")

    blocked = runner.invoke(main, ["run-exp", str(manifest)])
    assert blocked.exit_code == EXIT_CONFIG
    assert "acknowledge-peek" in blocked.output
    assert json.loads(emitted.read_text(encoding="utf-8")) == data

    allowed = runner.invoke(main, ["run-exp", str(manifest), "--acknowledge-peek"])
    assert allowed.exit_code == 0, allowed.output


def test_peek_guard_passes_an_old_manifest_that_is_not_an_object(runner, tmp_path):
    manifest = make_manifest(tmp_path, n=2, split="test")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "manifest.json").write_text("[1]", encoding="utf-8")
    result = runner.invoke(main, ["run-exp", str(manifest)])
    assert result.exit_code == 0, result.output


def test_estimate_prints_projection(runner, tmp_path):
    manifest = make_manifest(tmp_path, n=10, max_iterations=4)
    result = runner.invoke(main, ["estimate", str(manifest)])
    assert result.exit_code == 0
    projection = json.loads(result.output)
    assert projection == {
        "documents": 10,
        "max_iterations": 4,
        "worst_case_calls_per_document": 8,
        "worst_case_total_calls": 80,
    }


def test_no_hidden_state_across_fresh_directories(runner, tmp_path):
    # No cache file: warm caches are covered by the replay tests, and traces
    # legitimately report cache hits in usage.
    manifest = make_manifest(tmp_path, n=6, cache=None)
    a = runner.invoke(main, ["run-exp", str(manifest), "--out", str(tmp_path / "a")])
    b = runner.invoke(main, ["run-exp", str(manifest), "--out", str(tmp_path / "b")])
    assert a.exit_code == 0 and b.exit_code == 0
    assert (tmp_path / "a" / "stats.json").read_bytes() == (tmp_path / "b" / "stats.json").read_bytes()
    trace_a = sorted((tmp_path / "a" / "traces").glob("*.jsonl"))
    trace_b = sorted((tmp_path / "b" / "traces").glob("*.jsonl"))
    assert [p.name for p in trace_a] == [p.name for p in trace_b]
    for pa, pb in zip(trace_a, trace_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_run_exp_control_setting_uses_record_topics(runner, tmp_path):
    make_corpus_file(tmp_path / "corpus.jsonl", 6, topics=True)
    write_script(tmp_path / "script.json", QUALITY_SCRIPT)
    manifest = {
        "schema": "summit/manifest",
        "version": 1,
        "name": "control-run",
        "corpus": {"path": "corpus.jsonl", "schema": "newts"},
        "sample": {"n": 4, "seed": 3, "split": "test"},
        "session": {"model_id": "m", "setting": "control", "topic_index": 1},
        "backend": {"mode": "scripted", "script": "script.json"},
        "output_dir": "out",
        "workers": 1,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    result = runner.invoke(main, ["run-exp", str(path)])
    assert result.exit_code == 0, result.output
    stats = json.loads((tmp_path / "out" / "stats.json").read_text(encoding="utf-8"))
    assert stats["metrics"]["final"]["topic_similarity"]["count"] == 4


def test_run_exp_faithfulness_setting_offline(runner, tmp_path):
    manifest = make_manifest(tmp_path, n=3, setting="faithfulness")
    result = runner.invoke(main, ["run-exp", str(manifest)])
    assert result.exit_code == 0, result.output
    trace = (tmp_path / "out" / "traces").glob("*.jsonl")
    assert len(list(trace)) == 3


def test_a_one_step_trace_is_scored_once(runner, tmp_path, monkeypatch):
    posts = []

    class _Score:
        status_code = 200

        def json(self):
            return {"score": 0.75}

    monkeypatch.setattr(requests, "post", lambda url, json, timeout: posts.append(json) or _Score())
    path = make_manifest(tmp_path, n=4, script=QUALITY_SCRIPT[:1] + QUALITY_SCRIPT[3:])
    data = json.loads(path.read_text(encoding="utf-8"))
    data["faithfulness"] = {"endpoint": "http://scorer.example/score"}
    path.write_text(json.dumps(data), encoding="utf-8")
    result = runner.invoke(main, ["run-exp", str(path)])
    assert result.exit_code == 0, result.output
    assert [post["summary"] for post in posts] == ["Initial summary of the document."] * 4
    metrics = json.loads((tmp_path / "out" / "stats.json").read_text(encoding="utf-8"))["metrics"]
    values = {label: {name: row["values"] for name, row in metrics[label].items()} for label in ("init", "final")}
    assert values["final"] == values["init"]
    assert values["final"]["faithfulness"] == [0.75] * 4


def test_run_exp_writes_a_header_into_an_empty_cache_file(runner, tmp_path):
    manifest = make_manifest(tmp_path, n=3)
    (tmp_path / "cache.jsonl").touch()
    first = runner.invoke(main, ["run-exp", str(manifest)])
    assert first.exit_code == 0, first.output
    header = json.loads((tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert header == {"schema": "summit/cache", "version": 1}

    second = runner.invoke(main, ["run-exp", str(manifest), "--out", str(tmp_path / "again")])
    assert second.exit_code == 0, second.output
    calls = json.loads((tmp_path / "again" / "calls.json").read_text(encoding="utf-8"))
    assert calls["calls"]["script"] == 0
    assert calls["calls"]["cache"] > 0


@pytest.mark.parametrize("blocker", ["out", "out/traces"])
def test_run_exp_into_a_path_that_is_a_file_is_a_config_error(runner, tmp_path, blocker):
    manifest = make_manifest(tmp_path, n=2)
    (tmp_path / blocker).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / blocker).write_text("not a directory", encoding="utf-8")
    result = runner.invoke(main, ["run-exp", str(manifest), "--out", str(tmp_path / "out")])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert str(tmp_path / "out") in result.output


def test_run_exp_refuses_a_cache_that_another_writer_holds(runner, tmp_path):
    manifest = make_manifest(tmp_path, n=3)
    holder = ResponseCache(tmp_path / "cache.jsonl")
    holder.put("k", {}, {"text": "x", "usage": {}})
    try:
        refused = runner.invoke(main, ["run-exp", str(manifest)])
    finally:
        holder.close()
    assert refused.exit_code == EXIT_CONFIG, refused.output
    assert str(tmp_path / "cache.jsonl") in refused.output
    result = runner.invoke(main, ["run-exp", str(manifest)])
    assert result.exit_code == 0, result.output


class _FakeResponse:
    status_code = 200
    text = json.dumps(
        {
            "choices": [{"message": {"content": "A short summary. <STOP>"}}],
            "usage": {"prompt_tokens": 3, "completion_tokens": 4},
        }
    )


@pytest.mark.parametrize("pinned_model", [None, "manifest-model"])
def test_run_exp_live_fills_unset_settings_from_environment(runner, tmp_path, monkeypatch, pinned_model):
    monkeypatch.setenv("SUMMIT_API_KEY", "env-secret")
    monkeypatch.setenv("SUMMIT_BASE_URL", "http://env-host/v1")
    monkeypatch.setenv("SUMMIT_MODEL", "env-model")
    posts = []

    def fake_post(url, headers, json, timeout):
        posts.append((url, headers, json))
        return _FakeResponse()

    monkeypatch.setattr(requests, "post", fake_post)
    path = make_manifest(tmp_path, n=2, mode="live", cache=None)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["session"].pop("model_id")
    if pinned_model:
        data["session"]["model_id"] = pinned_model
    path.write_text(json.dumps(data), encoding="utf-8")

    result = runner.invoke(main, ["run-exp", str(path), "--yes"])
    assert result.exit_code == 0, result.output
    assert posts
    expected_model = pinned_model or "env-model"
    for url, headers, payload in posts:
        assert url == "http://env-host/v1/chat/completions"
        assert headers["Authorization"] == "Bearer env-secret"
        assert payload["model"] == expected_model
    emitted = (tmp_path / "out" / "manifest.json").read_text(encoding="utf-8")
    assert "env-secret" not in emitted
    assert json.loads(emitted)["session"]["model_id"] == expected_model


def test_live_run_on_a_held_cache_is_refused_before_any_call(runner, tmp_path, monkeypatch):
    posts = []
    monkeypatch.setattr(requests, "post", lambda *args, **kwargs: posts.append(args) or _FakeResponse())
    path = make_manifest(tmp_path, n=10, mode="live")
    data = json.loads(path.read_text(encoding="utf-8"))
    data["backend"]["base_url"] = "http://localhost:1"
    data["workers"] = 4
    path.write_text(json.dumps(data), encoding="utf-8")
    holder = ResponseCache(tmp_path / "cache.jsonl")
    holder.claim()
    try:
        refused = runner.invoke(main, ["run-exp", str(path), "--yes"])
    finally:
        holder.close()
    assert refused.exit_code == EXIT_CONFIG, refused.output
    assert "another run" in refused.output
    assert posts == []


def test_summarize_on_a_held_cache_is_refused_before_any_call(runner, tmp_path, monkeypatch):
    sessions = []
    monkeypatch.setattr(cli, "run_session", lambda *args, **kwargs: sessions.append(args))
    script = write_script(tmp_path / "script.json", QUALITY_SCRIPT)
    holder = ResponseCache(tmp_path / "cache.jsonl")
    holder.claim()
    try:
        refused = runner.invoke(
            main,
            [
                "summarize", "--doc", str(write_doc(tmp_path)), "--backend", "scripted",
                "--script", str(script), "--cache", str(tmp_path / "cache.jsonl"),
                "--trace-out", str(tmp_path / "trace.jsonl"),
            ],
        )
    finally:
        holder.close()
    assert refused.exit_code == EXIT_CONFIG, refused.output
    assert sessions == []


def test_a_rerun_into_the_same_directory_leaves_only_its_own_traces(runner, tmp_path):
    assert runner.invoke(main, ["run-exp", str(make_manifest(tmp_path, n=10))]).exit_code == 0
    smaller = make_manifest(tmp_path, n=5)
    result = runner.invoke(main, ["run-exp", str(smaller)])
    assert result.exit_code == 0, result.output
    fresh = runner.invoke(main, ["run-exp", str(smaller), "--out", str(tmp_path / "fresh")])
    assert fresh.exit_code == 0, fresh.output
    reused = sorted(p.name for p in (tmp_path / "out" / "traces").iterdir())
    assert len(reused) == 5
    assert reused == sorted(p.name for p in (tmp_path / "fresh" / "traces").iterdir())


def test_the_accepted_manifest_keys(tmp_path):
    # A new manifest key is a new setting: add it here on purpose, not by accident.
    assert sorted(experiment._KNOWN_KEYS) == [
        "backend", "backend.api_key", "backend.base_url", "backend.cache", "backend.max_attempts",
        "backend.mode", "backend.rpm", "backend.script", "backend.timeout",
        "corpus", "corpus.path", "corpus.schema",
        "faithfulness", "faithfulness.endpoint",
        "knowledge", "knowledge.endpoint", "knowledge.fallback_to_naive",
        "name", "output_dir", "package_version", "prompt_fingerprint",
        "prompts", "prompts.dir",
        "sample", "sample.n", "sample.seed", "sample.split",
        "schema",
        "session", "session.exemplars_path", "session.max_iterations", "session.max_output_tokens",
        "session.min_document_tokens", "session.model_id", "session.setting", "session.shots",
        "session.stop_marker", "session.strict_parsing", "session.temperature", "session.token_budget",
        "session.topic_index", "session.topic_query",
        "version", "workers",
    ]


def test_replay_keeps_the_model_of_the_emitted_manifest(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("SUMMIT_MODEL", raising=False)
    path = make_manifest(tmp_path, n=2)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["session"].pop("model_id")
    path.write_text(json.dumps(data), encoding="utf-8")
    assert runner.invoke(main, ["run-exp", str(path)]).exit_code == 0

    monkeypatch.setenv("SUMMIT_MODEL", "exported-model")
    emitted = tmp_path / "out" / "manifest.json"
    result = runner.invoke(main, ["replay", str(emitted), "--out", str(tmp_path / "replayed")])
    assert result.exit_code == 0, result.output
    calls = json.loads((tmp_path / "replayed" / "calls.json").read_text(encoding="utf-8"))
    assert calls["calls"]["live"] == calls["calls"]["script"] == 0


def test_manifest_api_key_is_read_but_never_written(tmp_path):
    path = make_manifest(tmp_path, n=2)
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["version"]
    data["backend"]["api_key"] = "manifest-secret"
    path.write_text(json.dumps(data), encoding="utf-8")
    manifest = RunManifest.from_file(path)
    assert manifest.backend.api_key == "manifest-secret"
    assert "manifest-secret" not in json.dumps(manifest.to_dict())


def test_emitted_manifest_reloads_to_the_same_dict(runner, tmp_path):
    manifest = make_manifest(tmp_path, n=2, max_iterations=3, temperature=0.5)
    assert runner.invoke(main, ["run-exp", str(manifest)]).exit_code == 0
    emitted_path = tmp_path / "out" / "manifest.json"
    emitted = json.loads(emitted_path.read_text(encoding="utf-8"))
    del emitted["prompt_fingerprint"], emitted["package_version"]
    assert RunManifest.from_file(emitted_path).to_dict() == emitted


def _script_with_wrong_schema(tmp_path, manifest):
    (tmp_path / "script.json").write_text(json.dumps({"schema": "other", "steps": []}), encoding="utf-8")


def _script_not_json(tmp_path, manifest):
    (tmp_path / "script.json").write_text("{not json", encoding="utf-8")


def _prompts_with_wrong_schema(tmp_path, manifest):
    (tmp_path / "prompts").mkdir()
    (tmp_path / "prompts" / "manifest.json").write_text(json.dumps({"schema": "other"}), encoding="utf-8")
    manifest["prompts"] = {"dir": "prompts"}


def _exemplar_without_summary(tmp_path, manifest):
    (tmp_path / "exemplars.jsonl").write_text(json.dumps({"document": "d"}) + "\n", encoding="utf-8")
    manifest["session"]["exemplars_path"] = "exemplars.jsonl"


def _misspelt_manifest_key(tmp_path, manifest):
    manifest["session"]["max_iteration"] = 1


def _string_for_bool(tmp_path, manifest):
    manifest["session"]["strict_parsing"] = "false"


def _float_for_int(tmp_path, manifest):
    manifest["session"]["max_iterations"] = 2.7


def _bool_for_int(tmp_path, manifest):
    manifest["workers"] = True


def _section_not_a_mapping(tmp_path, manifest):
    manifest["backend"] = [1]


def _negative_shots(tmp_path, manifest):
    manifest["session"]["shots"] = -1


def _config_file(text):
    def write(tmp_path, manifest):
        (tmp_path / "config.yaml").write_text(text, encoding="utf-8")

    return write


@pytest.mark.parametrize(
    "command, breakage, message",
    [
        ("run-exp", _script_with_wrong_schema, "not a script file"),
        ("summarize", _script_with_wrong_schema, "not a script file"),
        ("run-exp", _script_not_json, "JSONDecodeError"),
        ("run-exp", _prompts_with_wrong_schema, "not a prompt manifest"),
        ("run-exp", _exemplar_without_summary, "summary"),
        ("run-exp", _misspelt_manifest_key, "session.max_iteration"),
        ("run-exp", _string_for_bool, "strict_parsing"),
        ("run-exp", _float_for_int, "max_iterations"),
        ("run-exp", _bool_for_int, "workers"),
        ("run-exp", _section_not_a_mapping, "backend must be a mapping"),
        ("run-exp", _negative_shots, "shots must be >= 0"),
        ("summarize", _config_file("backend: [1]\n"), "backend must be a mapping"),
        ("summarize", _config_file("knowledge: 3\n"), "knowledge must be a mapping"),
        ("summarize", _config_file("backend: {cache: 5}\n"), "cache must be a path string"),
        ("summarize", _config_file("backend: {cahce: c.jsonl}\n"), "unknown config key 'backend.cahce'"),
        ("summarize", _config_file("knowlege: {endpoint: http://localhost:9000}\n"), "unknown config key 'knowlege'"),
        ("summarize", _config_file("backend: {rmp: 5}\nknowledge: {endpont: x}\n"), "unknown config key 'backend.rmp'"),
    ],
)
def test_malformed_inputs_exit_with_config_error(runner, tmp_path, command, breakage, message):
    path = make_manifest(tmp_path, n=2)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    breakage(tmp_path, manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")
    if command == "run-exp":
        args = ["run-exp", str(path)]
    else:
        script = str(tmp_path / "script.json")
        args = ["summarize", "--doc", str(write_doc(tmp_path)), "--backend", "scripted", "--script", script]
        if (tmp_path / "config.yaml").exists():
            args += ["--config", str(tmp_path / "config.yaml")]
    result = runner.invoke(main, args)
    assert result.exit_code == EXIT_CONFIG, result.output
    assert message in result.output


def test_summarize_refuses_a_negative_shot_count(runner, tmp_path):
    script = write_script(tmp_path / "script.json", QUALITY_SCRIPT)
    args = ["summarize", "--doc", str(write_doc(tmp_path)), "--backend", "scripted", "--script", str(script)]
    result = runner.invoke(main, [*args, "--shots", "-1"])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "--shots" in result.output


@pytest.mark.parametrize("shots, expected", [(0, 0), (1, 1), (2, 2), (5, 3)])
def test_load_exemplars_takes_the_first_shots_entries(tmp_path, shots, expected):
    path = tmp_path / "exemplars.jsonl"
    lines = [json.dumps({"document": f"d{i}", "summary": f"s{i}"}) + "\n" for i in range(3)]
    path.write_text("\n".join(lines), encoding="utf-8")  # with blank lines between
    exemplars = experiment.load_exemplars(path, shots)
    assert [e.document for e in exemplars] == [f"d{i}" for i in range(expected)]


@pytest.mark.parametrize("command", ["run-exp", "replay"])
@pytest.mark.parametrize("override", [["--workers", "0"], ["--out", ""]], ids=["workers-0", "empty-out"])
def test_an_override_that_is_set_but_falsy_is_checked_not_ignored(runner, tmp_path, command, override):
    result = runner.invoke(main, [command, str(make_manifest(tmp_path, n=2)), *override])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert not (tmp_path / "out").exists()


# --- report ------------------------------------------------------------------------


def write_stats(run_dir: Path, name: str, final: dict, init: dict | None = None):
    run_dir.mkdir(parents=True, exist_ok=True)
    metrics = {"final": final, "init": init or final}
    stats = {
        "schema": "summit/stats",
        "version": 1,
        "run": {"name": name, "setting": "quality", "sampled": 1, "completed": 1, "failures": 0},
        "metrics": metrics,
    }
    (run_dir / "stats.json").write_text(json.dumps(stats), encoding="utf-8")


def cell(mean):
    return {"name": "x", "mean": mean, "count": 1, "values": [mean]}


def test_report_scales_rouge_to_hundred(runner, tmp_path):
    write_stats(tmp_path / "runA", "runA", {"rouge1": cell(0.8333), "gpt_eval": cell(4.1)})
    result = runner.invoke(main, ["report", str(tmp_path / "runA")])
    assert result.exit_code == 0, result.output
    assert "83.33" in result.output
    assert "4.10" in result.output


def test_report_orders_rows_and_marks_missing(runner, tmp_path):
    write_stats(tmp_path / "zeta", "zeta", {"rouge1": cell(0.5), "gpt_eval": cell(3.0)})
    write_stats(tmp_path / "alpha", "alpha", {"rouge1": cell(0.25)})  # evaluator-less ablation
    result = runner.invoke(main, ["report", str(tmp_path / "zeta"), str(tmp_path / "alpha")])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    alpha_line = next(l for l in lines if l.startswith("alpha"))
    zeta_line = next(l for l in lines if l.startswith("zeta"))
    assert lines.index(alpha_line) < lines.index(zeta_line)
    assert "—" in alpha_line


def test_report_csv_output(runner, tmp_path):
    write_stats(tmp_path / "runA", "runA", {"rouge1": cell(0.8333), "gpt_eval": cell(4.1)})
    csv_path = tmp_path / "table.csv"
    result = runner.invoke(main, ["report", str(tmp_path / "runA"), "--csv", str(csv_path)])
    assert result.exit_code == 0
    content = csv_path.read_text(encoding="utf-8").splitlines()
    assert content[0] == "run,R1,GPT-Eval"
    assert content[1] == "runA,83.33,4.10"


def test_report_include_init_adds_rows(runner, tmp_path):
    write_stats(
        tmp_path / "runA", "runA",
        final={"rouge1": cell(0.5), "gpt_eval": cell(4.0)},
        init={"rouge1": cell(0.4), "gpt_eval": cell(3.0)},
    )
    result = runner.invoke(main, ["report", str(tmp_path / "runA"), "--include-init"])
    assert "runA:init" in result.output


def test_report_missing_stats(runner, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = runner.invoke(main, ["report", str(empty)])
    assert result.exit_code == EXIT_CONFIG


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"run": ', "is not valid JSON"),
        ("[1, 2]", "not a run's stats file"),
        ('{"run": {}}', "not a run's stats file"),
        ('{"schema": "summit/stats", "run": 5}', "'run' is not an object"),
        ('{"schema": "summit/stats", "metrics": {"final": {"rouge1": 3}}}', "metrics.final.rouge1 has no numeric mean"),
    ],
    ids=["torn", "not-an-object", "no-schema", "run-not-an-object", "metric-without-mean"],
)
def test_report_rejects_an_unreadable_stats_file(runner, tmp_path, content, message):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "stats.json").write_text(content, encoding="utf-8")
    result = runner.invoke(main, ["report", str(tmp_path / "run")])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == EXIT_CONFIG, result.output
    assert message in result.output and str(tmp_path / "run" / "stats.json") in result.output


# --- convert / config ----------------------------------------------------------------


def test_convert_command(runner, tmp_path):
    src = tmp_path / "xsum.jsonl"
    src.write_text(
        json.dumps({"id": "x", "document": "body text", "summary": "short"}) + "\n",
        encoding="utf-8",
    )
    dest = tmp_path / "canonical.jsonl"
    result = runner.invoke(main, ["convert", str(src), str(dest), "--format", "xsum"])
    assert result.exit_code == 0, result.output
    assert dest.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        (json.dumps({"id": "x2", "document": "second body"}), "missing field: 'summary'"),
        (json.dumps({"id": "x2", "document": "second body", "summary": ""}), "reference summary"),
        ('{"id": "x2", "document": "sec', "invalid JSON"),
    ],
    ids=["missing-summary", "empty-summary", "torn-line"],
)
def test_convert_refuses_a_line_that_run_exp_would_reject(runner, tmp_path, line, message):
    src = tmp_path / "xsum.jsonl"
    good = json.dumps({"id": "x1", "document": "body text", "summary": "short"})
    src.write_text(f"{good}\n{line}\n", encoding="utf-8")
    dest = tmp_path / "canonical.jsonl"
    result = runner.invoke(main, ["convert", str(src), str(dest), "--format", "xsum"])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "line(s) 2" in result.output and message in result.output
    assert not dest.exists()


def test_convert_keeps_a_lone_surrogate(runner, tmp_path):
    src = tmp_path / "xsum.jsonl"
    lines = [{"id": "x1", "document": "body text", "summary": "short"}, {"id": "x2", "document": "cut \ud800 off", "summary": "\udc00"}]
    src.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    dest = tmp_path / "canonical.jsonl"
    result = runner.invoke(main, ["convert", str(src), str(dest), "--format", "xsum"])
    assert result.exit_code == 0, result.output
    loaded = load_corpus(dest, strict=True).records
    assert [(r.id, r.document, r.summaries) for r in loaded] == [(d["id"], d["document"], (d["summary"],)) for d in lines]


def test_config_precedence_flags_env_file(tmp_path, monkeypatch):
    config = {"backend": {"base_url": "http://from-file", "model": "file-model", "rpm": 5}}
    path = tmp_path / "config.yaml"
    import yaml

    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    from summit.config import load_config_file

    file_config = load_config_file(path)

    monkeypatch.setenv("SUMMIT_MODEL", "env-model")
    monkeypatch.setenv("SUMMIT_BASE_URL", "http://from-env")
    monkeypatch.setenv("SUMMIT_API_KEY", "sekrit")

    resolved = resolve_backend_settings(file_config, model="flag-model")
    assert resolved.model == "flag-model"  # flag beats env beats file
    assert resolved.base_url == "http://from-env"  # env beats file
    assert resolved.rpm == 5  # file fills the rest
    assert resolved.api_key == "sekrit"

    monkeypatch.delenv("SUMMIT_MODEL")
    assert resolve_backend_settings(file_config).model == "file-model"


def test_importing_the_experiment_runner_leaves_yaml_unloaded():
    # logging loads with the first warning, the thread pool with workers > 1;
    # _hashlib, OpenSSL's hashes, never loads offline.
    code = (
        "import sys, summit.experiment, summit.cli\n"
        "sys.exit(sorted({'yaml', 'logging', 'concurrent.futures', '_hashlib'} & set(sys.modules)) or None)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_one_worker_commands_leave_logging_unloaded(tmp_path):
    # In a fresh interpreter, since pytest imports logging itself.
    manifest = make_manifest(tmp_path, n=3)
    out, replayed = tmp_path / "out", tmp_path / "replayed"
    commands = [
        ["run-exp", str(manifest), "--workers", "1"],
        ["replay", str(out / "manifest.json"), "--out", str(replayed), "--workers", "1"],
    ]
    code = (
        "import sys, summit.cli\n"
        f"for args in {commands!r}:\n"
        "    summit.cli.main(args, standalone_mode=False)\n"
        "sys.exit(sorted({'logging', 'concurrent.futures'} & set(sys.modules)) or None)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert (out / "stats.json").read_bytes() == (replayed / "stats.json").read_bytes()


def test_offline_commands_leave_requests_unloaded(tmp_path):
    # In a fresh interpreter, since this module imports requests itself.
    manifest = make_manifest(tmp_path, n=3)
    out, replayed = tmp_path / "out", tmp_path / "replayed"
    commands = [
        ["run-exp", str(manifest)],
        ["replay", str(out / "manifest.json"), "--out", str(replayed)],
        ["report", str(out), str(replayed)],
    ]
    code = (
        "import sys, summit, summit.cli\n"
        f"for args in {commands!r}:\n"
        "    summit.cli.main(args, standalone_mode=False)\n"
        "sys.exit(sorted({'requests', '_hashlib'} & set(sys.modules)) or None)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert (out / "stats.json").read_bytes() == (replayed / "stats.json").read_bytes()


# --- exit codes ----------------------------------------------------------------------


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_carries_a_documented_exit_code():
    classes = [SummitError, *_subclasses(SummitError)]
    assert len(classes) > 10
    assert {cls.exit_code for cls in classes} == {1, 2, 3}
    assert {cls for cls in classes if cls.exit_code == 1} == {SummitError, EmptyInput, DegenerateDistribution}


@pytest.mark.parametrize(
    "exc, prefix, code",
    [
        (SchemaViolation("bad line"), "error: bad line", EXIT_CONFIG),
        (MissingSlot("topic"), "error: missing template slot: 'topic'", EXIT_CONFIG),
        (TransportError("gave up"), "backend error: gave up", EXIT_BACKEND),
        (ParseError("no scores"), "backend error: no scores", EXIT_BACKEND),
        (EmptyInput("no values"), "internal error: no values", 1),
        (IsADirectoryError(21, "Is a directory", "some/path"), "error: [Errno 21] Is a directory: 'some/path'", EXIT_CONFIG),
    ],
)
def test_the_error_handler_prints_each_family_prefix_and_exits_with_its_code(capsys, exc, prefix, code):
    def fail():
        raise exc

    with pytest.raises(SystemExit) as exited:
        cli._handle_errors(fail)()
    assert exited.value.code == code
    assert capsys.readouterr().err == prefix + "\n"



@pytest.mark.parametrize(
    "exc", [OSError(28, "No space left on device"), BrokenPipeError(32, "Broken pipe")], ids=["enospc", "epipe"]
)
def test_the_error_handler_lets_an_os_error_that_names_no_path_keep_its_traceback(capsys, exc):
    def fail():
        raise exc

    with pytest.raises(OSError) as raised:
        cli._handle_errors(fail)()
    assert raised.value is exc
    assert capsys.readouterr().err == ""

def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "summit" in result.output
