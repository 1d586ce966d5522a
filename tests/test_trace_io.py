from __future__ import annotations

import json
import re

import pytest

from helpers import plan_session
from summit.backend import ScriptedBackend
from summit.errors import ConfigError
from summit.session import run_session
from summit.trace_io import read_trace, write_trace
from summit.types import Document, EditKind, SessionConfig

DOC = Document(
    id="trace-doc",
    text="The museum reopened after extensive winter repairs funded by the city council budget.",
)

RECORD_FIELDS = {
    "document_id",
    "iteration",
    "summary_text",
    "feedback_raw",
    "edit_ops",
    "expected_score",
    "stopped_by",
    "usage",
}


@pytest.fixture
def trace(registry):
    plan = plan_session(["multi", "stop"], max_iterations=5)
    return run_session(DOC, SessionConfig(), ScriptedBackend(plan.steps), registry)


def test_header_line_is_versioned(tmp_path, trace):
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert first == {"schema": "summit/trace", "version": 1}


def test_record_field_names_are_exact(tmp_path, trace):
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == len(trace.steps)
    for line in lines:
        record = json.loads(line)
        # Keys in sorted order, nested ones too, as every trace has been written.
        assert list(record) == sorted(RECORD_FIELDS)
        assert list(record["usage"]) == sorted(record["usage"])


def test_roundtrip_preserves_step_content(tmp_path, trace):
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    records = read_trace(path)
    assert [r.iteration for r in records] == [s.summary.iteration for s in trace.steps]
    assert [r.summary_text for r in records] == [s.summary.text for s in trace.steps]
    assert [r.feedback_raw for r in records] == [s.feedback.raw for s in trace.steps]
    assert all(r.stopped_by is trace.stopped_by for r in records)
    assert records[0].edit_ops[0].kind is EditKind.ADD
    assert records[0].usage["prompt_tokens"] == sum(call.prompt_tokens for call in trace.calls)


def test_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text('{"schema": "something/else", "version": 1}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="not a trace file"):
        read_trace(path)


def test_write_is_deterministic(tmp_path, trace):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace(trace, a)
    write_trace(trace, b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "op, message",
    [({"kind": kind, "target": " "}, f"{kind} requires a non-empty target") for kind in ("add", "remove", "rephrase")]
    + [({"kind": kind, "target": "x"}, f"{kind} carries no target") for kind in ("simplify", "keep")],
    ids=["add-blank", "remove-blank", "rephrase-blank", "simplify-target", "keep-target"],
)
def test_an_edit_op_that_breaks_the_target_rule_names_its_line(tmp_path, trace, op, message):
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    record["edit_ops"] = [{"kind": "add", "target": "the date"}, op]
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3 is not a trace record: .*{message}"):
        read_trace(path)
