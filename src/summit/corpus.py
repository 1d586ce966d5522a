"""Corpus ingestion, validation, seeded sampling, and format conversion.

Canonical corpus file: UTF-8 JSON lines with fields
``{id, document, summaries[], topics[]}``, optionally preceded by a header
line ``{"schema": "summit/corpus", "version": 1}``. Conversion helpers map
the common public release shapes onto this format.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SampleTooLarge, SchemaViolation
from .metrics import tokenize

CORPUS_SCHEMA = "summit/corpus"
CORPUS_VERSION = 1


class CorpusSchema(enum.Enum):
    GENERIC = "generic"
    NEWTS = "newts"


class Split(enum.Enum):
    DEV = "dev"
    TEST = "test"


@dataclass(frozen=True)
class DatasetRecord:
    id: str
    document: str
    summaries: tuple[str, ...]
    topics: tuple[str, ...] = ()


@dataclass(frozen=True)
class SampleSpec:
    n: int
    seed: int
    split: Split = Split.TEST

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample size must be positive")


@dataclass
class LoadResult:
    records: list[DatasetRecord]
    errors: list[tuple[int, str]] = field(default_factory=list)


def _validate_record(raw: dict, schema: CorpusSchema) -> DatasetRecord:
    try:
        rec_id = str(raw["id"])
        document = raw["document"]
        summaries = tuple(raw.get("summaries") or ())
        topics = tuple(raw.get("topics") or ())
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing field: {exc}") from exc
    if rec_id in ("", ".", "..") or "/" in rec_id or "\\" in rec_id:
        raise ValueError(f"id {rec_id!r} cannot name a trace file")
    if not isinstance(document, str) or not document.strip():
        raise ValueError("document must be a non-empty string")
    if not summaries or not all(isinstance(s, str) and s.strip() for s in summaries):
        raise ValueError("at least one non-empty reference summary is required")
    if not all(isinstance(t, str) and t.strip() for t in topics):
        raise ValueError("topics must be non-empty strings")
    if schema is CorpusSchema.NEWTS:
        if len(topics) != 2 or len(summaries) != 2:
            raise ValueError("newts records carry exactly 2 topics paired with 2 summaries")
    elif len(topics) > 2:
        raise ValueError("at most 2 topics per record")
    return DatasetRecord(id=rec_id, document=document, summaries=summaries, topics=topics)


def _read_records(fh, to_record) -> LoadResult:
    """The records of the JSON lines in ``fh``, and (line_number, message)
    for each line that is malformed, not an object, fails validation or
    repeats an id. ``to_record(raw, lineno)`` validates one parsed object;
    None skips it."""
    records: list[DatasetRecord] = []
    errors: list[tuple[int, str]] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except ValueError as exc:
            errors.append((lineno, f"invalid JSON: {exc}"))
            continue
        if not isinstance(raw, dict):
            errors.append((lineno, "record must be a JSON object"))
            continue
        try:
            record = to_record(raw, lineno)
            if record is None:
                continue
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
        f"{len(errors)} malformed record(s) in {path} at line(s) {lines}; "
        f"line {errors[0][0]}: {errors[0][1]}",
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
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))

    def to_record(raw, lineno: int) -> DatasetRecord | None:
        if lineno == 1 and raw.get("schema") == CORPUS_SCHEMA:
            if raw.get("version") != CORPUS_VERSION:
                raise SchemaViolation(f"unsupported corpus version {raw.get('version')!r}")
            return None
        return _validate_record(raw, schema)

    with path.open("r", encoding="utf-8") as fh:
        loaded = _read_records(fh, to_record)
    if strict and loaded.errors:
        raise _violation(path, loaded.errors)
    return loaded


def write_corpus(records: list[DatasetRecord], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": CORPUS_SCHEMA, "version": CORPUS_VERSION}) + "\n")
        for record in records:
            fh.write(
                json.dumps(
                    {
                        "id": record.id,
                        "document": record.document,
                        "summaries": list(record.summaries),
                        "topics": list(record.topics),
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


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


@dataclass(frozen=True)
class WordStats:
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

    with Path(source).open("r", encoding="utf-8") as fh:
        loaded = _read_records(fh, to_record)
    if loaded.errors:
        raise _violation(source, loaded.errors)
    if not loaded.records:
        raise SchemaViolation(f"no records in {source}")
    write_corpus(loaded.records, dest)
    return len(loaded.records)
