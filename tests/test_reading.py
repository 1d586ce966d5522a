"""The one rule every summit JSON file is read and written by: its header,
the error that names a bad line, and the writers whose files read back as
written."""

from __future__ import annotations

import ast
import json
import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import summit
from helpers import reply_text
from summit.cache import ResponseCache
from summit.corpus import load_corpus
from summit.errors import ConfigError, SchemaViolation, read_json, read_json_lines, write_json, write_json_lines
from summit.experiment import load_exemplars
from summit.trace_io import read_trace

CORPUS_RECORD = {"id": "drawn", "document": "a drawn document", "summaries": ["a drawn summary"], "topics": []}
CACHE_RECORD = {"key": "drawn", "request": {}, "response": {"text": "drawn", "usage": {"prompt_tokens": 1}}}
EXEMPLAR = {"document": "a drawn document", "summary": "a drawn summary", "explanation": "a drawn explanation"}
TRACE_RECORD = {
    "document_id": "d", "iteration": 0, "summary_text": "s", "feedback_raw": "f", "edit_ops": [],
    "expected_score": 3.0, "stopped_by": "evaluator_stop", "usage": {"prompt_tokens": 1, "completion_tokens": 1, "cache_hits": 0},
}


def _good_lines(record: dict, key: str) -> list[bytes]:
    # Longer than any drawn text, so a drawn record never repeats their id or key.
    return [json.dumps({**record, key: f"good-line-{i}"}).encode("utf-8") for i in range(3)]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)

#: One line of arbitrary bytes: raw bytes, any JSON value, a record of each
#: file with one field replaced, or a record torn anywhere.
_lines = st.one_of(
    st.binary(max_size=60),
    _json_values.map(lambda value: json.dumps(value).encode("utf-8")),
    st.builds(
        lambda record, key, value: json.dumps({**record, key: value}).encode("utf-8"),
        st.sampled_from([CORPUS_RECORD, CACHE_RECORD, EXEMPLAR]),
        st.sampled_from(["id", "document", "summaries", "topics", "key", "response", "summary", "explanation"]),
        _json_values,
    ),
    st.builds(
        lambda record, end: json.dumps(record, ensure_ascii=False).encode("utf-8")[:end],
        st.sampled_from([CORPUS_RECORD, CACHE_RECORD, EXEMPLAR]),
        st.integers(min_value=0, max_value=90),
    ),
).map(lambda line: line.replace(b"\n", b" "))


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@given(line=_lines, position=st.integers(min_value=0, max_value=3))
@example(line=b"[" * 100_000, position=1)  # nesting deeper than the parser's recursion limit
@example(line=b"1" * 5_000, position=1)  # an integer longer than int() converts
@example(line=b'{"id": "caf\xc3', position=3)  # torn inside a character
@example(line=b'{"id": ', position=2)  # torn after a field name: the column lies within the line
def test_each_line_reader_returns_or_names_the_bad_line(line, position):
    lineno = position + 2  # the drawn line's, after a header
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)

        corpus = root / "corpus.jsonl"
        lines = _good_lines(CORPUS_RECORD, "id")
        corpus.write_bytes(b"\n".join([b'{"schema": "summit/corpus", "version": 1}', *lines[:position], line, *lines[position:]]) + b"\n")
        try:
            load_corpus(corpus, strict=True)
        except SchemaViolation as exc:
            assert f"{corpus}:{lineno}: " in str(exc)

        cache = root / "cache.jsonl"
        lines = _good_lines(CACHE_RECORD, "key")
        cache.write_bytes(b"\n".join([b'{"schema": "summit/cache", "version": 1}', *lines[:position], line, *lines[position:]]) + b"\n")
        handler = _Warnings()
        logger = logging.getLogger("summit.cache")
        logger.addHandler(handler)
        try:
            loaded = ResponseCache(cache)
        finally:
            logger.removeHandler(handler)
        assert all(loaded.get(f"good-line-{i}") is not None for i in range(3))
        assert handler.messages in ([], [f"skipping malformed cache record at {cache}:{lineno}"])

        exemplars = root / "exemplars.jsonl"
        lines = _good_lines(EXEMPLAR, "summary")
        exemplars.write_bytes(b"\n".join([*lines[:position], line, *lines[position:]]) + b"\n")
        try:
            load_exemplars(exemplars, shots=10)
        except ConfigError as exc:
            assert f"{exemplars}:{lineno - 1}" in str(exc)  # an exemplar file has no header


#: Characters around a value: JSON's whitespace, whitespace that JSON is not (a
#: vertical tab, a file separator, NEL, an ideographic space), a BOM and garbage.
_padding = st.text(st.sampled_from(" \t\r\x0b\x0c\x1c\x85\u3000\ufeffx]}"), max_size=3)

#: One UTF-8 line: a JSON value, or any text, between any padding.
_text_lines = st.builds(
    lambda before, body, after: (before + body + after).replace("\n", " "),
    _padding,
    st.one_of(
        _json_values.map(lambda value: json.dumps(value, ensure_ascii=False)),
        st.sampled_from(["NaN", "-Infinity", "[NaN]", "1e400", "[]", "{}", '""', "", "1 2", '{"a": 1}{}']),
        st.text(st.characters(codec="utf-8"), max_size=20),
    ),
    _padding,
)


def _refusal(line: str) -> str:
    """How ``read_json_lines`` names the line ``line``, which json.loads refuses."""
    try:
        json.loads(line.rstrip("\r"))
    except json.JSONDecodeError as exc:
        return f"not valid JSON: {exc.msg}: column {exc.pos + 1}"
    except (ValueError, RecursionError) as exc:  # a number too long or nesting too deep
        return f"not valid JSON: {exc}"
    raise AssertionError(f"json.loads reads {line!r}")


@given(line=_text_lines)
@example(line="[" * 100_000)  # nesting deeper than the parser's recursion limit
@example(line="1" * 5_000)  # an integer longer than int() converts
@example(line="\ufeff{}")  # a byte-order mark
@example(line=" \x0b1")  # whitespace that JSON's is not, before a value
@example(line="1\u3000")  # and after one
@example(line="\r\t 1\r")
@example(line="\x0b\x0c ")  # blank to bytes.isspace, not to JSON
def test_a_line_reads_as_json_loads_reads_it(line):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "values.jsonl"
        data = line.encode("utf-8") + b"\n"
        path.write_bytes(b"0\n" + data)
        try:
            expected = json.loads(line)
        except (ValueError, RecursionError):
            if data.isspace():
                assert list(read_json_lines(path)) == [(1, 0)]
            else:
                with pytest.raises(ConfigError) as refused:
                    list(read_json_lines(path))
                assert str(refused.value) == f"{path}:2 is {_refusal(line)}"
        else:
            # By their JSON text, so that NaN equals NaN and 1 differs from 1.0 and from true.
            assert [(lineno, json.dumps(value)) for lineno, value in read_json_lines(path)] == [(1, "0"), (2, json.dumps(expected))]


def test_a_line_error_gives_the_column_within_the_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(json.dumps(CORPUS_RECORD).encode("utf-8") + b'\n\n{"id": \n')
    with pytest.raises(SchemaViolation) as refused:
        load_corpus(path, strict=True)
    assert str(refused.value).endswith(f"{path}:3: not valid JSON: Expecting value: column 8")


def _trace(tmp_path, header: bytes, *records: dict) -> Path:
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"".join([header, *(json.dumps(r).encode("utf-8") + b"\n" for r in records)]))
    return path


def test_a_trace_header_without_a_version_reads_as_the_current_one(tmp_path):
    path = _trace(tmp_path, b'{"schema": "summit/trace"}\n', TRACE_RECORD)
    assert [record.stopped_by.value for record in read_trace(path)] == ["evaluator_stop"]


@pytest.mark.parametrize(
    "header, message",
    [
        (b"", "holds no trace records"),
        (b'{"schema": "summit/trace", "version": 1}\n', "holds no trace records"),
        (b'{"schema": "summit/trace", "version": 2}\n', "trace.jsonl:1 is summit/trace version 2; this summit reads version 1 only"),
        (b'{"schema": "summit/cache", "version": 1}\n', "not a trace file"),
        (b'\n{"schema": "summit/trace", "version": 1}\n', "trace.jsonl:1 is not valid JSON: Expecting value: column 1"),
    ],
    ids=["empty", "header-only", "version-2", "foreign-schema", "blank-first-line"],
)
def test_read_trace_refuses_a_file_without_a_current_header_and_records(tmp_path, header, message):
    records = () if "no trace records" in message else (TRACE_RECORD,)
    with pytest.raises(ConfigError, match=message):
        read_trace(_trace(tmp_path, header, *records))


@pytest.mark.parametrize(
    "change",
    [
        {"stopped_by": "tired"},
        {"edit_ops": [{"kind": "add"}]},
        {"document_id": 5},
        {"summary_text": ["a"]},
        {"feedback_raw": None},
        {"iteration": "x"},
        {"iteration": -1},
        {"iteration": True},
        {"expected_score": "high"},
        {"expected_score": True},
        {"expected_score": 0.5},
        {"expected_score": 6},
        {"usage": 7},
        {"usage": {"prompt_tokens": 1, "completion_tokens": 1}},
        {"usage": {**TRACE_RECORD["usage"], "cache_hits": -1}},
        {"usage": {**TRACE_RECORD["usage"], "prompt_tokens": 1.0}},
        {"usage": {**TRACE_RECORD["usage"], "completion_tokens": False}},
    ],
    ids=repr,
)
def test_read_trace_names_a_record_of_the_wrong_shape(tmp_path, change):
    path = _trace(tmp_path, b'{"schema": "summit/trace", "version": 1}\n', TRACE_RECORD, {**TRACE_RECORD, **change})
    with pytest.raises(ConfigError, match=f"{path}:3 is not a trace record"):
        read_trace(path)


def test_an_empty_cache_file_loads_as_empty_but_a_blank_first_line_is_refused(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.touch()
    assert len(ResponseCache(path)) == 0
    path.write_text('\n{"schema": "summit/cache", "version": 1}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{path}:1 is not valid JSON"):
        ResponseCache(path)


# --- the writing rule ------------------------------------------------------------

#: JSON values whose strings, keys included, hold what a reply may.
_written_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | reply_text,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(reply_text, children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200)  # each example writes and reads back two files
@given(values=st.lists(_written_values, max_size=4), headed=st.booleans())
def test_what_the_writers_write_reads_back_as_written(values, headed):
    header = {"schema": "summit/drawn", "version": 1} if headed else None
    with tempfile.TemporaryDirectory() as directory:
        lines, document = Path(directory) / "values.jsonl", Path(directory) / "values.json"
        write_json_lines(lines, values, header)
        write_json(document, values)
        assert [value for _, value in read_json_lines(lines, header)] == values
        assert read_json(document) == values


def _writes(source: str) -> list[int]:
    """The lines of ``source`` that open a file other than to read it, or write one whole."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        # open(path, mode) or path.open(mode): a mode, when given, must be a string that only reads.
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[isinstance(node.func, ast.Name) :][:1]
        reads = all(isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt") for mode in modes)
        if name in ("write_text", "write_bytes") or (name == "open" and not reads):
            found.append(node.lineno)
    return found


def test_no_module_but_errors_writes_a_file():
    package = Path(summit.__file__).parent
    writers = [path.name for path in sorted(package.rglob("*.py")) if _writes(path.read_text(encoding="utf-8"))]
    assert writers == ["errors.py"]
