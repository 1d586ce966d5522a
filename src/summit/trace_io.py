"""Session trace file format: one JSON record per step after a header line.

Field names are fixed (see docs/schemas.md) so that replayed runs diff
cleanly: {document_id, iteration, summary_text, feedback_raw, edit_ops,
expected_score, stopped_by, usage}. ``stopped_by`` and ``usage`` are
session-level values repeated on every record.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, read_json_lines, write_json_lines
from .types import TARGETED_KINDS, EditKind, EditOp, SessionTrace, StopReason

TRACE_HEADER = {"schema": "summit/trace", "version": 1}


class TraceRecord(NamedTuple):
    document_id: str
    iteration: int
    summary_text: str
    feedback_raw: str
    edit_ops: tuple[EditOp, ...]
    expected_score: float
    stopped_by: StopReason
    usage: dict


def trace_records(trace: SessionTrace) -> list[dict]:
    """The records of ``trace`` as written, each key in sorted order."""
    usage = {
        "cache_hits": trace.usage.cache_hits,
        "completion_tokens": trace.usage.completion_tokens,
        "prompt_tokens": trace.usage.prompt_tokens,
    }
    return [
        {
            "document_id": trace.document_id,
            "edit_ops": [
                {"kind": op.kind.value, "target": op.target} for op in step.feedback.edit_ops
            ],
            "expected_score": step.feedback.expected_score,
            "feedback_raw": step.feedback.raw,
            "iteration": step.summary.iteration,
            "stopped_by": trace.stopped_by.value,
            "summary_text": step.summary.text,
            "usage": usage,
        }
        for step in trace.steps
    ]


def write_trace(trace: SessionTrace, path: str | Path) -> None:
    """Write ``trace`` to ``path``, whose parent directory must exist
    (FileNotFoundError otherwise)."""
    write_json_lines(path, trace_records(trace), TRACE_HEADER)


def _edit_op(raw: dict) -> EditOp:
    """The edit op a trace record holds; ValueError unless a kind in
    ``TARGETED_KINDS`` has a non-empty target and any other kind none."""
    op = EditOp(EditKind(raw["kind"]), raw.get("target"))
    if op.kind in TARGETED_KINDS:
        if not op.target or not op.target.strip():
            raise ValueError(f"{op.kind.value} requires a non-empty target")
    elif op.target is not None:
        raise ValueError(f"{op.kind.value} carries no target")
    return op


def read_trace(path: str | Path) -> list[TraceRecord]:
    """The records of the trace file ``path``; ConfigError naming the file,
    or its line, unless it holds a trace header and one or more records."""
    records = []
    for lineno, raw in read_json_lines(path, TRACE_HEADER):
        try:
            records.append(
                TraceRecord(
                    document_id=raw["document_id"],
                    iteration=raw["iteration"],
                    summary_text=raw["summary_text"],
                    feedback_raw=raw["feedback_raw"],
                    edit_ops=tuple(map(_edit_op, raw["edit_ops"])),
                    expected_score=raw["expected_score"],
                    stopped_by=StopReason(raw["stopped_by"]),
                    usage=raw["usage"],
                )
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"{path}:{lineno} is not a trace record: {exc!r}") from None
    if not records:
        raise ConfigError(f"{path} holds no trace records")
    return records
