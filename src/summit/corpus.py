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
    records: list[DatasetRecord] = []
    errors: list[tuple[int, str]] = []
    seen_ids: set[str] = set()
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except ValueError as exc:
                errors.append((lineno, f"invalid JSON: {exc}"))
                continue
            if lineno == 1 and isinstance(raw, dict) and raw.get("schema") == CORPUS_SCHEMA:
                if raw.get("version") != CORPUS_VERSION:
                    raise SchemaViolation(f"unsupported corpus version {raw.get('version')!r}")
                continue
            try:
                record = _validate_record(raw, schema)
                if record.id in seen_ids:
                    raise ValueError(f"duplicate id {record.id!r}")
                seen_ids.add(record.id)
                records.append(record)
            except ValueError as exc:
                errors.append((lineno, str(exc)))
    if strict and errors:
        lines = ", ".join(str(lineno) for lineno, _ in errors)
        raise SchemaViolation(
            f"{len(errors)} malformed record(s) in {path} at line(s) {lines}; "
            f"line {errors[0][0]}: {errors[0][1]}",
            line_numbers=[lineno for lineno, _ in errors],
        )
    return LoadResult(records=records, errors=errors)


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

_CONVERTERS = {}


def _converter(name):
    def register(fn):
        _CONVERTERS[name] = fn
        return fn

    return register


@_converter("xsum")
def _convert_xsum(raw: dict, lineno: int) -> DatasetRecord:
    return DatasetRecord(
        id=str(raw.get("id", lineno)),
        document=raw["document"],
        summaries=(raw["summary"],),
    )


@_converter("cnn_dm")
def _convert_cnn_dm(raw: dict, lineno: int) -> DatasetRecord:
    return DatasetRecord(
        id=str(raw.get("id", lineno)),
        document=raw["article"],
        summaries=(raw["highlights"],),
    )


@_converter("newts")
def _convert_newts(raw: dict, lineno: int) -> DatasetRecord:
    return DatasetRecord(
        id=str(raw.get("id", lineno)),
        document=raw["article"],
        summaries=(raw["summary1"], raw["summary2"]),
        topics=(raw["topic1"], raw["topic2"]),
    )


def convert_corpus(source: str | Path, dest: str | Path, source_format: str) -> int:
    """Convert a JSONL release file into the canonical corpus format.

    Supported source formats: ``xsum`` ({id, document, summary}), ``cnn_dm``
    ({id, article, highlights}), ``newts`` ({id, article, summary1, summary2,
    topic1, topic2}). Returns the number of converted records.
    """
    try:
        convert = _CONVERTERS[source_format]
    except KeyError:
        raise ValueError(f"unknown source format {source_format!r}") from None
    records = []
    with Path(source).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            records.append(convert(json.loads(line), lineno))
    write_corpus(records, dest)
    return len(records)
