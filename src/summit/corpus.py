"""Corpus ingestion, validation, seeded sampling, and format conversion.

Canonical corpus file: UTF-8 JSON lines with fields
``{id, document, summaries[], topics[]}``, optionally preceded by a header
line ``{"schema": "summit/corpus", "version": 1}``. Conversion helpers map
the common public release shapes onto this format.
"""

from __future__ import annotations

import enum
import random
from pathlib import Path
from typing import NamedTuple

from .errors import SampleTooLarge, SchemaViolation, read_json_lines, write_json_lines
from .metrics import tokenize
from .trace_io import trace_file_name

CORPUS_HEADER = {"schema": "summit/corpus", "version": 1}


class CorpusSchema(enum.Enum):
    GENERIC = "generic"
    NEWTS = "newts"


class Split(enum.Enum):
    DEV = "dev"
    TEST = "test"


class DatasetRecord(NamedTuple):
    id: str
    document: str
    summaries: tuple[str, ...]
    topics: tuple[str, ...] = ()


class SampleSpec(NamedTuple):
    """The sample a run takes (see ``sample``); ``n`` must be positive."""

    n: int
    seed: int
    split: Split = Split.TEST

    def check(self) -> SampleSpec:
        """This spec, unless ``n`` is below 1 (ValueError)."""
        if self.n < 1:
            raise ValueError("sample size must be positive")
        return self


class LoadResult(NamedTuple):
    records: list[DatasetRecord]
    errors: list[tuple[int, str]]


def _blank(value) -> bool:
    """Whether ``value`` is not a string holding more than whitespace."""
    return not isinstance(value, str) or not value or value.isspace()


def _validate_record(raw: dict, schema: CorpusSchema) -> DatasetRecord:
    try:
        rec_id = raw["id"]
        document = raw["document"]
    except KeyError as exc:
        raise ValueError(f"missing field: {exc}") from exc
    # A number is read as its decimal string; a bool is no number here.
    if isinstance(rec_id, bool) or not isinstance(rec_id, (str, int, float)):
        raise ValueError(f"id {rec_id!r} is not a string or a number")
    rec_id = str(rec_id)
    summaries, topics = raw.get("summaries"), raw.get("topics")
    if summaries is None:
        summaries = []
    if topics is None:
        topics = []
    if not isinstance(summaries, list) or not isinstance(topics, list):
        raise ValueError("summaries and topics must be JSON arrays of strings")
    trace_file_name(rec_id)
    if _blank(document):
        raise ValueError("document must be a non-empty string")
    if not summaries or any(map(_blank, summaries)):
        raise ValueError("at least one non-empty reference summary is required")
    if any(map(_blank, topics)):
        raise ValueError("topics must be non-empty strings")
    if schema is CorpusSchema.NEWTS:
        if len(topics) != 2 or len(summaries) != 2:
            raise ValueError("newts records carry exactly 2 topics paired with 2 summaries")
    elif len(topics) > 2:
        raise ValueError("at most 2 topics per record")
    return DatasetRecord(id=rec_id, document=document, summaries=tuple(summaries), topics=tuple(topics))


def _read_records(path, to_record, header: dict | None = None) -> LoadResult:
    """The records of the JSON-lines file ``path``, and (line_number,
    message) for each line that is not UTF-8 JSON, not an object, fails
    validation or repeats an id. ``to_record(raw, lineno)`` validates one
    parsed object. A corpus ``header`` is optional."""
    records: list[DatasetRecord] = []
    errors: list[tuple[int, str]] = []
    seen_ids: set[str] = set()

    def bad_line(lineno: int, problem: str) -> None:
        errors.append((lineno, problem))

    for lineno, raw in read_json_lines(path, header, bad_line, header_optional=True):
        if not isinstance(raw, dict):
            errors.append((lineno, "record must be a JSON object"))
            continue
        try:
            record = to_record(raw, lineno)
            if record.id in seen_ids:
                raise ValueError(f"duplicate id {record.id!r}")
            seen_ids.add(record.id)
            records.append(record)
        except ValueError as exc:
            errors.append((lineno, str(exc)))
    return LoadResult(records=records, errors=errors)


def _violation(path, errors: list[tuple[int, str]]) -> SchemaViolation:
    lines = ", ".join(str(lineno) for lineno, _ in errors)
    return SchemaViolation(
        f"{len(errors)} malformed record(s) in {path} at line(s) {lines}; {path}:{errors[0][0]}: {errors[0][1]}",
        line_numbers=[lineno for lineno, _ in errors],
    )


def load_corpus(
    path: str | Path,
    schema: CorpusSchema = CorpusSchema.GENERIC,
    strict: bool = False,
) -> LoadResult:
    """Load and validate a corpus file.

    Lenient mode (default) loads the valid lines and reports the malformed
    ones as (line_number, message) pairs; strict mode fails the whole load.
    """

    loaded = _read_records(path, lambda raw, lineno: _validate_record(raw, schema), CORPUS_HEADER)
    if strict and loaded.errors:
        raise _violation(path, loaded.errors)
    return loaded


def write_corpus(records: list[DatasetRecord], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json_lines(path, (record._asdict() for record in records), CORPUS_HEADER)


def sample(records: list[DatasetRecord], spec: SampleSpec) -> list[DatasetRecord]:
    """Uniform sample without replacement, fully determined by (records, seed).

    One seed-keyed permutation backs both splits: dev samples draw from its
    front, test samples from its back, so dev and test are disjoint whenever
    their sizes fit the pool.
    """
    if spec.n > len(records):
        raise SampleTooLarge(f"sample of {spec.n} from {len(records)} records")
    order = random.Random(spec.seed).sample(range(len(records)), len(records))
    indices = order[: spec.n] if spec.split is Split.DEV else order[len(order) - spec.n :]
    return [records[i] for i in indices]


class WordStats(NamedTuple):
    count: int
    mean_document_words: float
    mean_summary_words: float


def word_stats(records: list[DatasetRecord]) -> WordStats:
    """Mean document and reference-summary token counts under the shared tokenizer."""
    if not records:
        raise ValueError("no records")
    doc_total = sum(len(tokenize(r.document)) for r in records)
    summary_counts = [len(tokenize(s)) for r in records for s in r.summaries]
    return WordStats(
        count=len(records),
        mean_document_words=doc_total / len(records),
        mean_summary_words=sum(summary_counts) / len(summary_counts),
    )


# --- conversion from public release shapes ----------------------------------

#: The source keys of each public release format that become a record's
#: (document, summaries, topics); a record's id is its ``id``, else its line number.
CONVERT_FORMATS = {
    "xsum": ("document", ("summary",), ()),
    "cnn_dm": ("article", ("highlights",), ()),
    "newts": ("article", ("summary1", "summary2"), ("topic1", "topic2")),
}


def convert_corpus(source: str | Path, dest: str | Path, source_format: str) -> int:
    """Convert a JSONL release file into the canonical corpus format and
    return the number of records. Each record must pass the rules
    ``load_corpus`` applies; a line that does not is a SchemaViolation
    naming it, and nothing is written."""
    try:
        document_key, summary_keys, topic_keys = CONVERT_FORMATS[source_format]
    except KeyError:
        raise ValueError(f"unknown source format {source_format!r}") from None

    def to_record(raw, lineno: int) -> DatasetRecord:
        try:
            canonical = {
                "id": raw.get("id", lineno),
                "document": raw[document_key],
                "summaries": [raw[key] for key in summary_keys],
                "topics": [raw[key] for key in topic_keys],
            }
        except KeyError as exc:
            raise ValueError(f"missing field: {exc}") from exc
        return _validate_record(canonical, CorpusSchema.GENERIC)

    loaded = _read_records(source, to_record)
    if loaded.errors:
        raise _violation(source, loaded.errors)
    if not loaded.records:
        raise SchemaViolation(f"no records in {source}")
    write_corpus(loaded.records, dest)
    return len(loaded.records)
