from __future__ import annotations

import json

import pytest

from helpers import make_length_profiled_records, make_records
from summit.corpus import (
    CorpusSchema,
    DatasetRecord,
    SampleSpec,
    Split,
    convert_corpus,
    load_corpus,
    sample,
    word_stats,
    write_corpus,
)
from summit.errors import SampleTooLarge, SchemaViolation


def write_lines(path, lines):
    # A lone surrogate from \udc80 to \udcff is written as the byte it escapes.
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    return path


GOOD = json.dumps({"id": "a", "document": "some document text", "summaries": ["a summary"], "topics": []})
GOOD2 = json.dumps({"id": "b", "document": "other document text", "summaries": ["other summary"], "topics": []})
BAD = json.dumps({"id": "c", "document": "", "summaries": ["s"]})


def test_load_well_formed_file(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [GOOD, GOOD2])
    result = load_corpus(path)
    assert len(result.records) == 2
    assert result.errors == []


def test_header_line_is_recognized(tmp_path):
    records = make_records(3)
    path = tmp_path / "c.jsonl"
    write_corpus(records, path)
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(first_line) == {"schema": "summit/corpus", "version": 1}
    assert load_corpus(path).records == records


def test_lenient_load_reports_malformed_line(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [GOOD, BAD, GOOD2])
    result = load_corpus(path)
    assert len(result.records) == 2
    assert len(result.errors) == 1
    assert result.errors[0][0] == 2


def test_strict_load_raises_with_line_numbers(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [GOOD, "not json", GOOD2])
    with pytest.raises(SchemaViolation) as err:
        load_corpus(path, strict=True)
    assert err.value.line_numbers == [2]


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_corpus("/nonexistent/corpus.jsonl")


def test_duplicate_ids_rejected(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [GOOD, GOOD])
    result = load_corpus(path)
    assert len(result.records) == 1
    assert "duplicate" in result.errors[0][1]


def test_newts_schema_requires_paired_topics(tmp_path):
    good = json.dumps(
        {
            "id": "n1",
            "document": "doc text",
            "summaries": ["first topical summary", "second topical summary"],
            "topics": ["topic one", "topic two"],
        }
    )
    bad = json.dumps({"id": "n2", "document": "doc", "summaries": ["only one"], "topics": ["t1", "t2"]})
    path = write_lines(tmp_path / "n.jsonl", [good, bad])
    result = load_corpus(path, CorpusSchema.NEWTS)
    assert len(result.records) == 1
    assert result.records[0].topics == ("topic one", "topic two")
    assert len(result.errors) == 1


def test_generic_schema_caps_topics(tmp_path):
    bad = json.dumps({"id": "x", "document": "doc", "summaries": ["s"], "topics": ["a", "b", "c"]})
    result = load_corpus(write_lines(tmp_path / "c.jsonl", [bad]))
    assert result.records == []


@pytest.mark.parametrize("bad_id", ["", ".", "..", "../escaped", "sub/dir", "back\\slash"])
def test_ids_that_cannot_name_a_trace_file_are_rejected(tmp_path, bad_id):
    bad = json.dumps({"id": bad_id, "document": "doc", "summaries": ["s"]})
    result = load_corpus(write_lines(tmp_path / "c.jsonl", [GOOD, bad]))
    assert [r.id for r in result.records] == ["a"]
    assert result.errors == [(2, f"id {bad_id!r} cannot name a trace file")]


@pytest.mark.parametrize(
    "change, message",
    [
        ({"summaries": "Fixed."}, "summaries and topics must be JSON arrays of strings"),
        ({"summaries": {"a": 1}}, "summaries and topics must be JSON arrays of strings"),
        ({"topics": "ab"}, "summaries and topics must be JSON arrays of strings"),
        ({"id": "nul\0byte"}, "id 'nul\\x00byte' cannot name a trace file"),
        ({"id": "x" * 250}, f"id {'x' * 250!r} cannot name a trace file"),
    ],
    ids=["summaries-a-string", "summaries-an-object", "topics-a-string", "id-with-nul", "id-too-long-for-a-file-name"],
)
def test_strict_load_refuses_a_record_no_run_could_use(tmp_path, change, message):
    record = {"id": "c", "document": "third document text", "summaries": ["a summary"], "topics": [], **change}
    path = write_lines(tmp_path / "c.jsonl", [GOOD, json.dumps(record), GOOD2])
    with pytest.raises(SchemaViolation) as refused:
        load_corpus(path, strict=True)
    assert refused.value.line_numbers == [2]
    assert str(refused.value).endswith(f"{path}:2: {message}")


def test_an_id_whose_trace_file_name_is_255_bytes_loads(tmp_path):
    record = {"id": "x" * 249, "document": "some document text", "summaries": ["a summary"]}
    assert load_corpus(write_lines(tmp_path / "c.jsonl", [json.dumps(record)]), strict=True).records[0].id == "x" * 249


# --- sampling -----------------------------------------------------------------


def test_sample_of_everything_is_a_permutation():
    records = make_records(10)
    out = sample(records, SampleSpec(n=10, seed=3, split=Split.TEST))
    assert sorted(r.id for r in out) == sorted(r.id for r in records)
    assert [r.id for r in out] != [r.id for r in records]  # seed 3 shuffles


def test_sample_deterministic():
    records = make_records(50)
    spec = SampleSpec(n=20, seed=99, split=Split.TEST)
    assert [r.id for r in sample(records, spec)] == [r.id for r in sample(records, spec)]
    # A spec compares by value (the split defaults to test), is immutable, and
    # its check (not its constructor) needs n >= 1.
    assert spec == SampleSpec(20, 99) != SampleSpec(20, 99, Split.DEV)
    with pytest.raises(AttributeError):
        spec.n = 5
    assert spec.check() is spec
    for unchecked in (SampleSpec(n=0, seed=99), spec._replace(n=0)):
        with pytest.raises(ValueError, match="^sample size must be positive$"):
            unchecked.check()


def test_different_seeds_differ():
    records = make_records(100)
    a = [r.id for r in sample(records, SampleSpec(n=50, seed=1, split=Split.TEST))]
    b = [r.id for r in sample(records, SampleSpec(n=50, seed=2, split=Split.TEST))]
    assert a != b
    assert set(a) & set(b)  # overlapping but not identical


def test_dev_and_test_splits_disjoint():
    records = make_records(100)
    dev = sample(records, SampleSpec(n=50, seed=42, split=Split.DEV))
    test = sample(records, SampleSpec(n=50, seed=42, split=Split.TEST))
    assert {r.id for r in dev} & {r.id for r in test} == set()


def test_sample_too_large():
    with pytest.raises(SampleTooLarge):
        sample(make_records(3), SampleSpec(n=4, seed=0, split=Split.DEV))


# --- word statistics ------------------------------------------------------------


def test_word_stats_exact_on_constructed_records():
    records = [
        DatasetRecord(id="a", document="one two three four", summaries=("one two",)),
        DatasetRecord(id="b", document="one two", summaries=("one two three four",)),
    ]
    stats = word_stats(records)
    assert stats.mean_document_words == 3.0
    assert stats.mean_summary_words == 3.0
    assert stats.count == 2


def test_length_profiled_generator_hits_targets():
    records = make_length_profiled_records(50, mean_doc_words=430.2, mean_summary_words=23.3)
    stats = word_stats(records)
    assert stats.mean_document_words == pytest.approx(430.2, abs=0.5)
    assert stats.mean_summary_words == pytest.approx(23.3, abs=0.5)


# --- conversion -------------------------------------------------------------------


def test_convert_xsum_shape(tmp_path):
    src = write_lines(
        tmp_path / "xsum.jsonl",
        [json.dumps({"id": "x1", "document": "doc body text", "summary": "short summary"})],
    )
    dest = tmp_path / "canonical.jsonl"
    assert convert_corpus(src, dest, "xsum") == 1
    loaded = load_corpus(dest)
    assert loaded.records[0].summaries == ("short summary",)


def test_convert_cnn_dm_and_newts(tmp_path):
    cnn = write_lines(
        tmp_path / "cnn.jsonl",
        [json.dumps({"id": "c1", "article": "article body", "highlights": "the highlights"})],
    )
    dest = tmp_path / "cnn_canonical.jsonl"
    convert_corpus(cnn, dest, "cnn_dm")
    assert load_corpus(dest).records[0].document == "article body"

    newts = write_lines(
        tmp_path / "newts.jsonl",
        [
            json.dumps(
                {
                    "id": "n1",
                    "article": "article body",
                    "summary1": "first topical summary",
                    "summary2": "second topical summary",
                    "topic1": "topic one",
                    "topic2": "topic two",
                }
            )
        ],
    )
    dest2 = tmp_path / "newts_canonical.jsonl"
    convert_corpus(newts, dest2, "newts")
    record = load_corpus(dest2, CorpusSchema.NEWTS).records[0]
    assert record.topics == ("topic one", "topic two")
    assert record.summaries == ("first topical summary", "second topical summary")


@pytest.mark.parametrize(
    ("lines", "message"),
    [
        ([""], None),
        ([json.dumps({"id": "x", "document": "body", "summary": "one"})] * 2, None),
        ([json.dumps({"id": "a/b", "document": "body", "summary": "one"})], None),
        (["[1, 2]"], "xsum.jsonl:1: record must be a JSON object"),
        (['{"id": "x", "document": "body \udcff", "summary": "one"}'], "xsum.jsonl:1: not UTF-8: invalid start byte at byte 31"),
    ],
    ids=["no-records", "duplicate-id", "id-with-slash", "not-an-object", "not-utf8"],
)
def test_convert_refuses_what_load_corpus_would(tmp_path, lines, message):
    src = write_lines(tmp_path / "xsum.jsonl", lines)
    dest = tmp_path / "canonical.jsonl"
    with pytest.raises(SchemaViolation) as refused:
        convert_corpus(src, dest, "xsum")
    assert not dest.exists()
    if message is not None:
        assert str(refused.value).endswith(message)
        with pytest.raises(SchemaViolation) as refused:
            load_corpus(src, strict=True)
        assert str(refused.value).endswith(message)


def test_convert_unknown_format(tmp_path):
    src = write_lines(tmp_path / "s.jsonl", ["{}"])
    with pytest.raises(ValueError):
        convert_corpus(src, tmp_path / "d.jsonl", "mystery")


def test_loader_roundtrip_is_byte_identical(tmp_path):
    records = make_records(5)
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    write_corpus(records, p1)
    write_corpus(load_corpus(p1).records, p2)
    assert p1.read_bytes() == p2.read_bytes()
