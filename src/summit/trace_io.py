"""Session trace files: ``traces/<document_id>.jsonl``, a header line and one
JSON record per step.

Field names are fixed (see docs/schemas.md) so that replayed runs diff
cleanly: {document_id, iteration, summary_text, feedback_raw, edit_ops,
expected_score, stopped_by, usage}. ``stopped_by`` and ``usage`` are
session-level values repeated on every record; ``usage`` is ``usage_of``
the session's replies. ``trace_file_name`` holds the rule for which
document ids can name a trace file, which the corpus loader applies too.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, read_json_lines, write_json_lines
from .types import TARGETED_KINDS, EditKind, EditOp, SessionTrace, StopReason, usage_of

TRACE_HEADER = {"schema": "summit/trace", "version": 1}


def trace_file_name(document_id: str) -> str:
    """``<document_id>.jsonl``; ValueError unless the file system's encoding
    encodes it (a lone surrogate other than an escaped byte does not), with no
    separator or NUL, in at most 255 bytes (the usual NAME_MAX)."""
    name = f"{document_id}.jsonl"
    try:
        encoded = os.fsencode(name)
    except UnicodeEncodeError:
        encoded = None
    if encoded is None or len(encoded) > 255 or document_id in ("", ".", "..") or any(c in document_id for c in "/\\\0"):
        raise ValueError(f"id {document_id!r} cannot name a trace file")
    return name


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
    usage = usage_of(trace.calls)
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


#: The counts of a usage object, as ``usage_of`` names them.
_USAGE_COUNTS = tuple(usage_of(()))


def _trace_record(raw: dict) -> TraceRecord:
    """The trace record ``raw`` holds; ValueError unless each field has the
    type and range a written trace gives it."""
    record = TraceRecord(**{name: raw[name] for name in TraceRecord._fields})
    record = record._replace(edit_ops=tuple(map(_edit_op, record.edit_ops)), stopped_by=StopReason(record.stopped_by))
    if not all(isinstance(text, str) for text in (record.document_id, record.summary_text, record.feedback_raw)):
        raise ValueError("document_id, summary_text and feedback_raw must be strings")
    if type(record.iteration) is not int or record.iteration < 0:
        raise ValueError(f"iteration must be an integer of 0 or more, not {record.iteration!r}")
    score = record.expected_score
    if type(score) not in (int, float) or not 1 <= score <= 5:
        raise ValueError(f"expected_score must be a number in [1, 5], not {score!r}")
    usage = record.usage
    if not isinstance(usage, dict) or any(type(usage.get(n)) is not int or usage[n] < 0 for n in _USAGE_COUNTS):
        raise ValueError(f"usage must hold {', '.join(_USAGE_COUNTS)} as integers of 0 or more, not {usage!r}")
    return record


def read_trace(path: str | Path) -> list[TraceRecord]:
    """The records of the trace file ``path``; ConfigError naming the file,
    or its line, unless it holds a trace header and one or more records of
    the shape ``trace_records`` writes."""
    records = []
    for lineno, raw in read_json_lines(path, TRACE_HEADER):
        try:
            records.append(_trace_record(raw))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"{path}:{lineno} is not a trace record: {exc!r}") from None
    if not records:
        raise ConfigError(f"{path} holds no trace records")
    return records
