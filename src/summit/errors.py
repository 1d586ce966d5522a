"""Exception hierarchy shared across the package, and the one rule by which
it reads and writes its files. Each exception class carries the
exit code a command ends with when it escapes: 2 for bad input, 3 for a
backend failure, 1 for an internal error (library code misused).
Every JSON file the package reads is read by ``read_json`` or
``read_json_lines``: one rule for its ``{schema, version}`` header, and a
ConfigError naming the file, or its line, when it is not UTF-8 JSON.
Every file it writes is written by ``write_json``, ``write_json_lines`` or
through ``open_for_writing``: UTF-8 under ``ESCAPING``."""

from __future__ import annotations

import json
from pathlib import Path


class SummitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(SummitError):
    """Invalid session or run configuration, or an unusable input file."""

    exit_code = 2


class BackendError(SummitError):
    """Base class for completion-backend and remote-endpoint failures."""

    exit_code = 3


class TransportError(BackendError):
    """HTTP/network failure after retries were exhausted."""


class AuthError(BackendError):
    """Authentication rejected (401/403); never retried."""


class ScriptExhausted(BackendError):
    """A scripted backend received more requests than it has steps."""


class ScriptMismatch(BackendError):
    """The next scripted step's matcher does not match the incoming request."""


class ReplayMiss(BackendError):
    """Replay mode was asked for a request that is not in the cache."""


class BudgetExceeded(BackendError):
    """The session's configured token budget was hit."""

    def __init__(self, message: str, partial_trace=None):
        super().__init__(message)
        self.partial_trace = partial_trace


class ParseError(BackendError):
    """Evaluator output could not be parsed (strict mode only)."""


class MissingSlot(ConfigError):
    """A template references a slot the render context does not supply."""

    def __init__(self, slot: str):
        super().__init__(f"missing template slot: {slot!r}")
        self.slot = slot


class RemoteUnavailable(BackendError):
    """A remote annotation/scoring endpoint could not be reached."""


class DegenerateDistribution(SummitError):
    """A score distribution with zero total mass."""


class EmptyInput(SummitError):
    """An aggregation was asked to summarize zero values."""


class SampleTooLarge(ConfigError):
    """Requested sample size exceeds the corpus size."""


class SchemaViolation(ConfigError):
    """Corpus records failed validation (strict loading)."""

    def __init__(self, message: str, line_numbers: list[int] | None = None):
        super().__init__(message)
        self.line_numbers = line_numbers or []


class MissingStats(ConfigError):
    """A report was requested for a run directory without a readable stats file."""


def _problem(data: bytes, in_line: bool) -> str:
    """Why ``data``, a file or (``in_line``) one of its lines, is not UTF-8 JSON."""
    try:
        text = data.decode("utf-8")
        json.loads(text.rstrip("\r\n") if in_line else text)
    except UnicodeDecodeError as exc:
        return f"not UTF-8: {exc.reason} at byte {exc.start + 1}"
    except json.JSONDecodeError as exc:
        where = f"column {exc.pos + 1}" if in_line else f"line {exc.lineno} column {exc.colno}"
        return f"not valid JSON: {exc.msg}: {where}"
    except (ValueError, RecursionError) as exc:  # a number too long or nesting too deep
        return f"not valid JSON: {exc}"
    return "not valid JSON"


def _check_header(value, header: dict, source: str) -> None:
    schema, version = header["schema"], header["version"]
    if not isinstance(value, dict) or value.get("schema") != schema:
        raise ConfigError(f"not a {schema.split('/')[-1]} file: {source} must be a JSON object whose schema is {schema!r}")
    found = value.get("version", version)  # a missing version reads as the current one
    if type(found) is not int or found != version:
        raise ConfigError(f"{source} is {schema} version {found!r}; this summit reads version {version} only")


def read_json(path: Path, header: dict | None = None):
    """The JSON value of the file ``path``, whose ``{schema, version}`` must
    be ``header`` when given; ConfigError naming the file otherwise."""
    data = path.read_bytes()
    try:
        value = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):
        raise ConfigError(f"{path} is {_problem(data, in_line=False)}") from None
    if header is not None:
        _check_header(value, header, str(path))
    return value


#: The whitespace JSON allows around a value, and the decoder of one value at an index.
_JSON_WHITESPACE = " \t\r\n"
_raw_decode = json.JSONDecoder().raw_decode


def read_json_lines(path, header: dict | None = None, on_error=None, header_optional: bool = False):
    """Yield ``(line number, value)`` for each non-blank line of the JSON-lines
    file ``path`` after its ``header``, the first line, blank or not (with
    ``header_optional``, only a first line holding a ``schema``). A line that
    is not UTF-8 JSON is a ConfigError naming ``PATH:LINE`` and the column
    within it, or, but for the header, ``on_error(line number, why)``."""
    headed = header is not None and not header_optional
    with Path(path).open("rb") as fh:
        for lineno, data in enumerate(fh, start=1):
            try:
                # What json.loads accepts, without its Python around the C scanner: one
                # value between JSON whitespace. A bad line is parsed again for its message.
                text = data.decode("utf-8")
                value, end = _raw_decode(text, len(text) - len(text.lstrip(_JSON_WHITESPACE)))
                if text[end:].strip(_JSON_WHITESPACE):
                    raise ValueError("extra data")
            except (ValueError, RecursionError):
                if data.isspace() and not (lineno == 1 and headed):
                    continue
                if on_error is None or (lineno == 1 and headed):
                    raise ConfigError(f"{path}:{lineno} is {_problem(data, in_line=True)}") from None
                on_error(lineno, _problem(data, in_line=True))
                continue
            if lineno == 1 and header is not None and (headed or isinstance(value, dict) and "schema" in value):
                _check_header(value, header, f"{path}:1")
            else:
                yield lineno, value


#: The error handler of every file and stream summit writes: a lone surrogate is written as its \uXXXX escape.
ESCAPING = "backslashreplace"


def open_for_writing(path, mode: str = "w"):
    """``path`` opened to write (``"w"``) or append (``"a"``) UTF-8 text
    under ``ESCAPING``, no newline translated."""
    return Path(path).open(mode, encoding="utf-8", errors=ESCAPING, newline="")


def json_line(value) -> str:
    """``value`` as one JSON line, ending in a newline: its keys in their own
    order, a non-ASCII character as itself."""
    return json.dumps(value, ensure_ascii=False) + "\n"


def write_json(path, value) -> None:
    """Write ``value`` to ``path`` as one JSON document: indented by two
    spaces, keys sorted, every non-ASCII character escaped."""
    with open_for_writing(path) as fh:
        fh.write(json.dumps(value, indent=2, sort_keys=True) + "\n")


def write_json_lines(path, values, header: dict | None = None) -> None:
    """Write ``path`` as the ``header`` line, when given, then one ``json_line`` per value."""
    with open_for_writing(path) as fh:
        if header is not None:
            fh.write(json_line(header))
        fh.writelines(map(json_line, values))
