"""Every refusal of the summit command line, as one table.

A row writes its files over a shared base directory (a good document,
corpus, script and manifest), runs one command in that directory, and
expects its exit code, a stderr that its pattern matches whole (but for one
final newline; ``<dir>`` stands for the directory), and that none of its
``absent`` paths exists afterwards.

pytest runs each row in-process. Run as a script, the module runs each row
as a subprocess of the command it is given and prints the id of each row
that fails, exiting 1 if any does:

    python tests/test_refusals.py summit
    PYTHONPATH=src python tests/test_refusals.py python -m summit.cli

A new refusal is added here as a row.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest


class Row(NamedTuple):
    id: str
    argv: tuple[str, ...]
    stderr: str
    files: dict = {}  # path: text or bytes, written over the base files
    manifest: dict = {}  # merged into the base manifest, section by section
    stdin: bytes | None = None
    env: dict = {}  # None unsets a variable
    code: int = 2
    absent: tuple[str, ...] = ("out", "cache.jsonl")


# --- the base directory ----------------------------------------------------------

DOC_TEXT = (
    "The harbor council approved emergency repairs on Friday after winter storms "
    "damaged the north pier, and local businesses asked for a faster schedule."
)
RECORDS = [
    json.dumps({"id": f"doc{i}", "document": f"Report {i}: {DOC_TEXT}", "summaries": [f"Pier {i} will be repaired."]})
    for i in range(4)
]


def corpus(*lines: str) -> str:
    """A corpus file: its header, then ``lines``."""
    return "".join(f"{line}\n" for line in ('{"schema": "summit/corpus", "version": 1}', *lines))


STEP = {"match": "Please summarize", "response": "Initial summary of the document."}
SCRIPT = {
    "schema": "summit/script",
    "version": 1,
    "steps": [
        STEP,
        {"match": "Please evaluate", "response": "Scores: 1:0.0 2:0.1 3:0.4 4:0.4 5:0.1 Shorten the summary."},
        {"match": "Revise the summary", "response": "Refined summary of the document."},
        {"match": "Please evaluate", "response": "Scores: 1:0.0 2:0.0 3:0.1 4:0.3 5:0.6 Do nothing. <STOP>"},
    ],
}
MANIFEST = {
    "schema": "summit/manifest",
    "version": 1,
    "name": "demo-run",
    "corpus": {"path": "corpus.jsonl", "schema": "generic"},
    "sample": {"n": 2, "seed": 7, "split": "test"},
    "session": {"model_id": "scripted-model", "setting": "quality"},
    "backend": {"mode": "scripted", "script": "script.json", "cache": "cache.jsonl"},
    "output_dir": "out",
    "workers": 2,
}
BASE = {"article.txt": DOC_TEXT, "corpus.jsonl": corpus(*RECORDS), "script.json": json.dumps(SCRIPT)}

SUMMARIZE = ("summarize", "--doc", "article.txt", "--backend", "scripted", "--script", "script.json")
RUN = ("run-exp", "manifest.json")
EXEMPLARS = {"session": {"exemplars_path": "exemplars.jsonl"}}
PROMPTS = {"prompts": {"dir": "prompts"}}


def script(*steps) -> str:
    return json.dumps({**SCRIPT, "steps": list(steps)})


def prompts(**sections) -> str:
    return json.dumps({"schema": "summit/prompts", "version": 1, **sections})


def bad_line(path: str, line: int, problem: str) -> str:
    """The error of a corpus or release file refused for one bad line."""
    return rf"error: 1 malformed record\(s\) in {path} at line\(s\) {line}; {path}:{line}: {problem}"


CONFIG = (*SUMMARIZE, "--config", "config.yaml")
WRITING = (*SUMMARIZE, "--cache", "cache.jsonl", "--trace-out", "out/trace.jsonl")
CONVERT = ("convert", "xsum.jsonl", "canonical.jsonl", "--format", "xsum")
REPLAY = ("replay", "manifest.json")
REPORT = ("report", "run")
NOT_A_SCRIPT = r"error: not a script file: {}script\.json must be a JSON object whose schema is 'summit/script'"
NOT_PROMPTS = r"error: not a prompts file: <dir>/prompts/manifest\.json must be a JSON object whose schema is 'summit/prompts'"
NOT_STATS = r"error: not a stats file: run/stats\.json must be a JSON object whose schema is 'summit/stats'"
INVALID = r"error: invalid input file \(ValueError\): "
FILE_NAME_5 = INVALID + r"{}prompts/manifest\.json: user template 'summarizer/quality/summarize' must be a file name, not 5"

# --- the table ---------------------------------------------------------------------

ROWS = [
    # Input files of a wrong shape.
    Row("script-foreign-schema", RUN, NOT_A_SCRIPT.format("<dir>/"), files={"script.json": '{"schema": "other", "steps": []}'}),
    Row("summarize-script-foreign-schema", SUMMARIZE, NOT_A_SCRIPT.format(""), files={"script.json": '{"schema": "other", "steps": []}'}),
    Row("script-not-an-object", SUMMARIZE, NOT_A_SCRIPT.format(""), files={"script.json": "[1, 2]"}),
    Row("script-not-json", RUN, r"error: <dir>/script\.json is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2",
        files={"script.json": "{not json"}),
    Row("summarize-script-torn", SUMMARIZE, r"error: script\.json is not valid JSON: Expecting value: line 1 column 53",
        files={"script.json": script(STEP)[:52]}),
    Row("script-step-not-an-object", RUN, INVALID + r"<dir>/script\.json: step 0 is not an object", files={"script.json": script(5)}),
    Row("script-step-response-a-number", RUN, INVALID + r"<dir>/script\.json: step 1 response must be a string",
        files={"script.json": script(STEP, {"response": 5})}),
    Row("script-step-match-a-number", SUMMARIZE, INVALID + r"script\.json: step 1 match must be a string or null",
        files={"script.json": script(STEP, {"response": "x", "match": 3})}),
    Row("script-step-match-not-a-regex", SUMMARIZE,
        INVALID + r"script\.json: step 1 match is not a regular expression: missing \), unterminated subpattern at position 0",
        files={"script.json": script(STEP, {"response": "x", "match": "(", "regex": True})}),
    Row("manifest-torn", RUN, r"error: manifest\.json is not valid JSON: Expecting value: line 1 column 41",
        files={"manifest.json": '{"schema": "summit/manifest", "version":'}),
    Row("prompts-manifest-torn", RUN, r"error: <dir>/prompts/manifest\.json is not valid JSON: Expecting property name enclosed in double quotes: "
        r"line 1 column 30", files={"prompts/manifest.json": '{"schema": "summit/prompts", '}, manifest=PROMPTS),
    Row("prompts-foreign-schema", RUN, NOT_PROMPTS, files={"prompts/manifest.json": '{"schema": "other"}'}, manifest=PROMPTS),
    Row("prompts-manifest-not-an-object", RUN, NOT_PROMPTS, files={"prompts/manifest.json": "[1]"}, manifest=PROMPTS),
    Row("prompts-user-not-a-mapping", RUN, r"error: <dir>/prompts/manifest\.json: user must be a mapping, not list \['u'\]",
        files={"prompts/manifest.json": prompts(system={}, user=["u"])}, manifest=PROMPTS),
    Row("prompts-unknown-role", RUN, INVALID + r"<dir>/prompts/manifest\.json: 'critic' is not a valid PromptRole",
        files={"prompts/manifest.json": prompts(system={"critic": "c.txt"}, user={})}, manifest=PROMPTS),
    Row("prompt-file-name-a-number", RUN, FILE_NAME_5.format("<dir>/"),
        files={"prompts/manifest.json": prompts(system={}, user={"summarizer/quality/summarize": 5})}, manifest=PROMPTS),
    Row("summarize-prompt-file-name-a-number", (*SUMMARIZE, "--prompts-dir", "prompts"), FILE_NAME_5.format(""),
        files={"prompts/manifest.json": prompts(system={}, user={"summarizer/quality/summarize": 5})}),
    Row("cache-header-torn", RUN, r"error: <dir>/cache\.jsonl:1 is not valid JSON: Unterminated string starting at: column 12",
        files={"cache.jsonl": '{"schema": "summit/ca'}, absent=("out",)),
    Row("exemplar-line-torn", RUN, r"error: <dir>/exemplars\.jsonl:2 is not valid JSON: Expecting value: column 14",
        files={"exemplars.jsonl": '{"document": "d", "summary": "s"}\n{"document": \n'}, manifest=EXEMPLARS),
    Row("exemplar-line-not-utf8", RUN, r"error: <dir>/exemplars\.jsonl:2 is not UTF-8: invalid continuation byte at byte 18",
        files={"exemplars.jsonl": b'{"document": "d", "summary": "s"}\n{"document": "caf\xe9", "summary": "s"}\n'}, manifest=EXEMPLARS),
    Row("exemplar-without-summary", RUN, r"error: exemplar at <dir>/exemplars\.jsonl:1 needs a string document and summary",
        files={"exemplars.jsonl": '{"document": "d"}\n'}, manifest=EXEMPLARS),
    Row("exemplar-document-a-number", RUN, r"error: exemplar at <dir>/exemplars\.jsonl:1 needs a string document and summary",
        files={"exemplars.jsonl": '{"document": 5, "summary": "s"}\n'}, manifest=EXEMPLARS),
    Row("exemplar-not-an-object", RUN, r"error: exemplar at <dir>/exemplars\.jsonl:1 must be a mapping, not list \[1, 2\]",
        files={"exemplars.jsonl": "[1, 2]\n"}, manifest=EXEMPLARS),
    Row("exemplar-without-explanation", RUN,
        r"error: exemplar at <dir>/exemplars\.jsonl:2 needs a string explanation for the evaluator's prompt",
        files={"exemplars.jsonl": '{"document": "d", "summary": "s", "explanation": "e"}\n{"document": "d", "summary": "s"}\n'},
        manifest=EXEMPLARS),
    Row("summarize-exemplar-without-explanation", (*SUMMARIZE, "--exemplars", "exemplars.jsonl", "--cache", "cache.jsonl"),
        r"error: exemplar at exemplars\.jsonl:1 needs a string explanation for the evaluator's prompt",
        files={"exemplars.jsonl": '{"document": "d", "summary": "s", "explanation": null}\n'}),
    Row("summarize-exemplar-not-an-object", (*SUMMARIZE, "--exemplars", "exemplars.jsonl"),
        r"error: exemplar at exemplars\.jsonl:1 must be a mapping, not list \[1, 2\]", files={"exemplars.jsonl": "[1, 2]\n"}),
    # Manifest keys of a wrong name or type.
    Row("manifest-key-misspelt", RUN, r"error: unknown manifest key 'session\.max_iteration' in manifest\.json",
        manifest={"session": {"max_iteration": 1}}),
    Row("bool-given-a-string", RUN, r"error: strict_parsing must be of type bool, not str 'false'",
        manifest={"session": {"strict_parsing": "false"}}),
    Row("int-given-a-float", RUN, r"error: max_iterations must be of type int, not float 2\.7", manifest={"session": {"max_iterations": 2.7}}),
    Row("int-given-a-bool", RUN, r"error: workers must be of type int, not bool True", manifest={"workers": True}),
    Row("name-a-number", RUN, r"error: name must be of type str, not int 5", manifest={"name": 5}),
    Row("model-id-a-list", RUN, r"error: model_id must be of type str, not list \['m'\]", manifest={"session": {"model_id": ["m"]}}),
    Row("stop-marker-an-object", RUN, r"error: stop_marker must be of type str, not dict \{'a': 1\}",
        manifest={"session": {"stop_marker": {"a": 1}}}),
    Row("knowledge-endpoint-a-number", RUN, r"error: endpoint must be of type str, not int 5", manifest={"knowledge": {"endpoint": 5}}),
    Row("section-not-a-mapping", RUN, r"error: backend must be a mapping, not list \[1\]", manifest={"backend": [1]}),
    # summarize's config file.
    Row("config-not-yaml", CONFIG,
        r"error: config file config\.yaml is not valid YAML: expected ',' or '\]', but got '<stream end>': line 2 column 1",
        files={"config.yaml": "backend: [1\n"}),
    Row("config-nul", CONFIG,
        r"error: config file config\.yaml is not valid YAML: unacceptable character #x0000: special characters are not allowed",
        files={"config.yaml": "backend: \0\n"}),
    Row("config-not-a-mapping", CONFIG, r"error: config file config\.yaml must be a mapping at the top level", files={"config.yaml": "- 1\n"}),
    Row("config-section-not-a-mapping", CONFIG, r"error: backend must be a mapping, not list \[1\]", files={"config.yaml": "backend: [1]\n"}),
    Row("config-knowledge-not-a-mapping", CONFIG, r"error: knowledge must be a mapping, not int 3", files={"config.yaml": "knowledge: 3\n"}),
    Row("config-cache-a-number", CONFIG, r"error: cache must be a path string, not int 5", files={"config.yaml": "backend: {cache: 5}\n"}),
    Row("config-knowledge-endpoint-a-number", CONFIG, r"error: endpoint must be of type str, not int 5",
        files={"config.yaml": "knowledge: {endpoint: 5}\n"}),
    Row("config-timeout-0", CONFIG, r"error: timeout must be > 0 and finite, not 0\.0", files={"config.yaml": "backend: {timeout: 0}\n"}),
    Row("config-key-misspelt", CONFIG, r"error: unknown config key 'backend\.cahce' in config\.yaml",
        files={"config.yaml": "backend: {cahce: c.jsonl}\n"}),
    Row("config-section-misspelt", CONFIG, r"error: unknown config key 'knowlege' in config\.yaml",
        files={"config.yaml": "knowlege: {endpoint: http://localhost:9000}\n"}),
    Row("config-first-unknown-key-named", CONFIG, r"error: unknown config key 'backend\.rmp' in config\.yaml",
        files={"config.yaml": "backend: {rmp: 5}\nknowledge: {endpont: x}\n"}),
    # Settings out of range, refused before any file is written.
    Row("max-iters-0", (*WRITING, "--max-iters", "0"), r"error: max_iterations must be >= 1"),
    Row("temperature-negative", (*WRITING, "--temperature", "-0.1"), r"error: temperature must be >= 0 and finite, not -0\.1"),
    Row("temperature-nan", (*WRITING, "--temperature", "nan"), r"error: temperature must be >= 0 and finite, not nan"),
    Row("temperature-inf", (*WRITING, "--temperature", "inf"), r"error: temperature must be >= 0 and finite, not inf"),
    Row("max-output-tokens-0", (*WRITING, "--max-output-tokens", "0"), r"error: max_output_tokens must be positive"),
    Row("stop-marker-empty", (*WRITING, "--stop-marker", ""), r"error: stop_marker must be non-empty"),
    Row("token-budget-0", (*WRITING, "--token-budget", "0"), r"error: token_budget must be positive when set"),
    Row("topic-blank", (*WRITING, "--setting", "control", "--topic", " "), r"error: control setting requires a topic_query"),
    Row("shots-flag-negative", (*SUMMARIZE, "--shots", "-1"), r"(?s)Usage: .*\n\nError: Invalid value for '--shots': -1 is not in the range x>=0\."),
    Row("control-without-topic", ("summarize", "--doc", "article.txt", "--setting", "control"), r"error: --setting control requires --topic"),
    Row("summarize-scripted-without-script", ("summarize", "--doc", "article.txt", "--backend", "scripted"),
        r"error: scripted mode requires a script path"),
    Row("live-without-base-url", ("summarize", "--doc", "article.txt"),
        r"error: live mode requires a base URL \(--base-url, backend\.base_url or SUMMIT_BASE_URL\)", env={"SUMMIT_BASE_URL": None}),
    Row("sample-n-0", RUN, r"error: invalid manifest manifest\.json: sample size must be positive", manifest={"sample": {"n": 0}}),
    Row("shots-negative", RUN, r"error: shots must be >= 0", manifest={"session": {"shots": -1}}),
    Row("topic-index-negative", RUN, r"error: topic_index must be 0 or 1, not -1", manifest={"session": {"topic_index": -1}}),
    Row("topic-index-2", RUN, r"error: topic_index must be 0 or 1, not 2", manifest={"session": {"topic_index": 2}}),
    Row("session-max-iterations-0", RUN, r"error: invalid session template: max_iterations must be >= 1",
        manifest={"session": {"max_iterations": 0}}),
    Row("session-temperature-nan", RUN, r"error: invalid session template: temperature must be >= 0 and finite, not nan",
        manifest={"session": {"temperature": math.nan}}),
    Row("session-temperature-inf", RUN, r"error: invalid session template: temperature must be >= 0 and finite, not inf",
        manifest={"session": {"temperature": math.inf}}),
    Row("backend-mode-unknown", RUN, r"error: backend mode must be one of \('live', 'replay', 'scripted'\)",
        manifest={"backend": {"mode": "mystery"}}),
    Row("scripted-without-script", RUN, r"error: scripted mode requires a script path", manifest={"backend": {"script": None}}),
    Row("replay-manifest-without-cache", REPLAY, r"error: replay mode requires a cache path", manifest={"backend": {"cache": None}}),
    Row("max-attempts-0", RUN, r"error: max_attempts must be >= 1", manifest={"backend": {"max_attempts": 0}}),
    Row("rpm-negative", RUN, r"error: rpm must be >= 1 when set", manifest={"backend": {"rpm": -3}}),
    Row("timeout-0", RUN, r"error: timeout must be > 0 and finite, not 0\.0", manifest={"backend": {"timeout": 0}}),
    Row("timeout-negative", RUN, r"error: timeout must be > 0 and finite, not -1\.0", manifest={"backend": {"timeout": -1.0}}),
    Row("timeout-nan", RUN, r"error: timeout must be > 0 and finite, not nan", manifest={"backend": {"timeout": math.nan}}),
    Row("run-exp-workers-0", (*RUN, "--workers", "0"), r"error: workers must be >= 1"),
    Row("run-exp-empty-out", (*RUN, "--out", ""), r"error: --out must name a directory"),
    Row("replay-workers-0", (*REPLAY, "--workers", "0"), r"error: workers must be >= 1"),
    Row("replay-empty-out", (*REPLAY, "--out", ""), r"error: --out must name a directory"),
    Row("live-without-yes", RUN,
        r"error: live run would issue up to 20 calls \(2 documents x 10\); pass --yes to proceed \(see the estimate command\)",
        manifest={"backend": {"mode": "live", "base_url": "http://localhost:1"}}),
    Row("out-a-file", (*RUN, "--out", "out"), r"error: \[Errno 20\] Not a directory: '<dir>/out/traces'",
        files={"out": "x"}, absent=("cache.jsonl",)),
    Row("out-traces-a-file", (*RUN, "--out", "out"), r"error: \[Errno 17\] File exists: '<dir>/out/traces'", files={"out/traces": "x"},
        absent=("cache.jsonl", "out/manifest.json")),
    # Documents, corpora and release files.
    Row("document-not-utf8", ("summarize", "--backend", "scripted", "--script", "script.json", "--doc", "bad.txt"),
        r"error: document bad\.txt is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte",
        files={"bad.txt": b"A report \xff on the pier."}),
    Row("stdin-not-utf8", ("summarize", "--backend", "scripted", "--script", "script.json"),
        r"error: document on stdin is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte",
        stdin=b"A report \xff on the pier."),
    Row("corpus-line-torn", RUN, bad_line(r"<dir>/corpus\.jsonl", 4, "not valid JSON: Unterminated string starting at: column 28"),
        files={"corpus.jsonl": corpus(RECORDS[0], RECORDS[1], RECORDS[2][:40], RECORDS[3])}),
    *(
        Row(f"{command}-corpus-line-not-utf8", (command, "manifest.json"),
            bad_line(r"<dir>/corpus\.jsonl", 6, "not UTF-8: invalid start byte at byte 37"),
            files={"corpus.jsonl": corpus(*RECORDS).encode() + b'{"id": "bad", "document": "A report \xff on the pier.", "summaries": ["Pier."]}\n'})
        for command in ("run-exp", "replay")
    ),
    *(
        Row(f"id-{name}", RUN, bad_line(r"<dir>/corpus\.jsonl", 6, f"id {re.escape(repr(bad_id))} {problem}"),
            files={"corpus.jsonl": corpus(*RECORDS, json.dumps({"id": bad_id, "document": DOC_TEXT, "summaries": ["Pier."]}))})
        for name, bad_id, problem in [
            ("nul", "doc\0nul", "cannot name a trace file"),
            ("too-long-for-a-file-name", "d" * 250, "cannot name a trace file"),
            ("lone-surrogate", "doc\ud800", "cannot name a trace file"),
            ("null", None, "is not a string or a number"),
            ("an-object", {"a": 1}, "is not a string or a number"),
        ]
    ),
    *(
        Row(f"convert-{name}", CONVERT, bad_line(r"xsum\.jsonl", 2, problem), absent=("canonical.jsonl",),
            files={"xsum.jsonl": b'{"id": "x1", "document": "body text", "summary": "short"}\n' + line + b"\n"})
        for name, line, problem in [
            ("missing-summary", b'{"id": "x2", "document": "second body"}', "missing field: 'summary'"),
            ("empty-summary", b'{"id": "x2", "document": "second body", "summary": ""}', "at least one non-empty reference summary is required"),
            ("torn-line", b'{"id": "x2", "document": "sec', "not valid JSON: Unterminated string starting at: column 26"),
            ("line-not-utf8", b'{"id": "y1", "document": "A report \xff on the pier.", "summary": "Pier."}',
             "not UTF-8: invalid start byte at byte 36"),
            ("id-true", b'{"id": true, "document": "second body", "summary": "short"}', "id True is not a string or a number"),
        ]
    ),
    # report.
    Row("report-missing-stats", REPORT, r"error: no stats\.json in run", files={"run/.keep": ""}),
    Row("stats-torn", REPORT, r"error: run/stats\.json is not valid JSON: Expecting value: line 1 column 9", files={"run/stats.json": '{"run": '}),
    Row("stats-not-an-object", REPORT, NOT_STATS, files={"run/stats.json": "[1, 2]"}),
    Row("stats-no-schema", REPORT, NOT_STATS, files={"run/stats.json": '{"run": {}}'}),
    Row("stats-run-not-an-object", REPORT, r"error: run/stats\.json: 'run' is not an object with a string name",
        files={"run/stats.json": '{"schema": "summit/stats", "run": 5}'}),
    Row("stats-metric-without-mean", REPORT, r"error: run/stats\.json: metrics\.final\.rouge1 has no numeric mean",
        files={"run/stats.json": '{"schema": "summit/stats", "metrics": {"final": {"rouge1": 3}}}'}),
]

# One header rule for every headed file: a wrong version or a foreign schema
# is refused, naming the file. (A missing version reads as the current one.)
for kind, source, write in [
    ("manifest", r"manifest\.json", lambda header: ({}, header)),
    ("script", r"<dir>/script\.json", lambda header: ({"script.json": json.dumps({**SCRIPT, **header})}, {})),
    ("corpus", r"<dir>/corpus\.jsonl:1", lambda header: ({"corpus.jsonl": "".join(f"{line}\n" for line in (json.dumps(header), *RECORDS))}, {})),
    ("cache", r"<dir>/cache\.jsonl:1", lambda header: ({"cache.jsonl": json.dumps(header) + "\n"}, {})),
    ("prompts", r"<dir>/prompts/manifest\.json", lambda header: ({"prompts/manifest.json": json.dumps(header)}, PROMPTS)),
    ("stats", r"run/stats\.json", lambda header: ({"run/stats.json": json.dumps({**header, "run": {"name": "run"}, "metrics": {}})}, {})),
]:
    for name, header, problem in [
        ("version-2", {"version": 2}, f"{source} is summit/{kind} version 2; this summit reads version 1 only"),
        ("version-a-string", {"version": "1"}, f"{source} is summit/{kind} version '1'; this summit reads version 1 only"),
        ("foreign-schema", {"schema": "summit/elsewhere"}, f"not a {kind} file: {source} must be a JSON object whose schema is 'summit/{kind}'"),
    ]:
        files, manifest = write({"schema": f"summit/{kind}", "version": 1, **header})
        ROWS.append(Row(f"{kind}-header-{name}", REPORT if kind == "stats" else RUN, f"error: {problem}", files, manifest,
                        absent=("out",) if kind == "cache" else ("out", "cache.jsonl")))


# --- the two runners -----------------------------------------------------------------


def _merge(base: dict, patch: dict) -> dict:
    merged = dict(base)
    for key, value in patch.items():
        both = isinstance(value, dict) and isinstance(base.get(key), dict)
        merged[key] = _merge(base[key], value) if both else value
    return merged


def prepare(row: Row, directory: Path) -> Path:
    """Write the base files and the row's manifest and files into
    ``directory``; the directory, resolved."""
    directory = directory.resolve()
    files = {**BASE, "manifest.json": json.dumps(_merge(MANIFEST, row.manifest)), **row.files}
    for name, content in files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return directory


def problems(row: Row, directory: Path, code: int, stderr: str) -> list[str]:
    """How a command run for ``row`` in ``directory`` broke its expectations."""
    found = [] if code == row.code else [f"exit code {code}, not {row.code}"]
    pattern = row.stderr.replace("<dir>", re.escape(str(directory)))
    if not re.fullmatch(pattern, stderr.removesuffix("\n")):
        found.append(f"stderr {stderr!r} does not match {pattern!r}")
    return found + [f"{name} exists" for name in row.absent if (directory / name).exists()]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_a_refusal_exits_with_its_code_and_error_line_and_leaves_nothing(row, tmp_path, monkeypatch):
    from click.testing import CliRunner

    from summit.cli import main  # here, so that the script runner imports no summit

    directory = prepare(row, tmp_path)
    monkeypatch.chdir(directory)
    result = CliRunner().invoke(main, list(row.argv), input=row.stdin, env=row.env)
    assert isinstance(result.exception, SystemExit), result.exc_info  # an error line, not a traceback
    assert problems(row, directory, result.exit_code, result.stderr) == []


def command_env() -> dict:
    """The environment, with PYTHONPATH made absolute: commands run in their own directories."""
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, env["PYTHONPATH"].split(os.pathsep)))
    return env


def run_all(command: list[str]) -> int:
    """Run every row as a subprocess of ``command``; 1 if any fails."""
    env = command_env()
    failed = 0
    for row in ROWS:
        with tempfile.TemporaryDirectory() as temp:
            directory = prepare(row, Path(temp))
            row_env = {key: value for key, value in {**env, **row.env}.items() if value is not None}
            run = subprocess.run(
                [*command, *row.argv], cwd=directory, input=row.stdin or b"", env=row_env, capture_output=True, timeout=120
            )
            found = problems(row, directory, run.returncode, run.stderr.decode("utf-8", "backslashreplace"))
        if found:
            failed += 1
            print(f"FAILED {row.id}: {'; '.join(found)}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} refusals as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_all(sys.argv[1:]) if sys.argv[1:] else "usage: python tests/test_refusals.py COMMAND...")
