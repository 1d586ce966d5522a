"""Session trace file format: one JSON record per step after a header line.

Field names are fixed (see docs/schemas.md) so that replayed runs diff
cleanly: {document_id, iteration, summary_text, feedback_raw, edit_ops,
expected_score, stopped_by, usage}. ``stopped_by`` and ``usage`` are
session-level values repeated on every record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .types import EditKind, EditOp, SessionTrace, StopReason

TRACE_SCHEMA = "summit/trace"
TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceRecord:
    document_id: str
    iteration: int
    summary_text: str
    feedback_raw: str
    edit_ops: tuple[EditOp, ...]
    expected_score: float
    stopped_by: StopReason
    usage: dict


def trace_records(trace: SessionTrace) -> list[dict]:
    usage = {
        "prompt_tokens": trace.usage.prompt_tokens,
        "completion_tokens": trace.usage.completion_tokens,
        "cache_hits": trace.usage.cache_hits,
    }
    return [
        {
            "document_id": trace.document_id,
            "iteration": step.summary.iteration,
            "summary_text": step.summary.text,
            "feedback_raw": step.feedback.raw,
            "edit_ops": [
                {"kind": op.kind.value, "target": op.target} for op in step.feedback.edit_ops
            ],
            "expected_score": step.feedback.expected_score,
            "stopped_by": trace.stopped_by.value,
            "usage": usage,
        }
        for step in trace.steps
    ]


def write_trace(trace: SessionTrace, path: str | Path) -> None:
    """Write ``trace`` to ``path``, whose parent directory must exist
    (FileNotFoundError otherwise)."""
    # A lone surrogate is written as its \uXXXX JSON escape.
    with Path(path).open("w", encoding="utf-8", errors="backslashreplace") as fh:
        fh.write(json.dumps({"schema": TRACE_SCHEMA, "version": TRACE_VERSION}) + "\n")
        for record in trace_records(trace):
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def read_trace(path: str | Path) -> list[TraceRecord]:
    with Path(path).open("r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"not a trace file: {path}")
        if header.get("version") != TRACE_VERSION:
            raise ValueError(f"unsupported trace version {header.get('version')!r}")
        records = []
        for line in fh:
            if not line.strip():
                continue
            raw = json.loads(line)
            records.append(
                TraceRecord(
                    document_id=raw["document_id"],
                    iteration=raw["iteration"],
                    summary_text=raw["summary_text"],
                    feedback_raw=raw["feedback_raw"],
                    edit_ops=tuple(
                        EditOp(EditKind(op["kind"]), op.get("target"))
                        for op in raw["edit_ops"]
                    ),
                    expected_score=raw["expected_score"],
                    stopped_by=StopReason(raw["stopped_by"]),
                    usage=raw["usage"],
                )
            )
    return records
