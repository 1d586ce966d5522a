"""Exception hierarchy shared across the package. Each class carries the
exit code a command ends with when it escapes: 2 for bad input, 3 for a
backend failure, 1 for an internal error (library code misused).
``parse_json`` reads a JSON input file, or one of its lines, and names the
file and line in the ConfigError when they are not UTF-8 JSON."""

from __future__ import annotations

import json


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


def parse_json(data: bytes, path, line: int | None = None):
    """The JSON value of ``data``, the bytes of the file ``path`` or of its
    ``line``-th line. ConfigError naming the file, and the line, when they
    are not UTF-8 or not JSON."""
    source = f"{path}:{line}" if line else str(path)
    try:
        text = data.decode("utf-8")
        # A line is parsed without its line end, so an error's column lies within it.
        return json.loads(text.rstrip("\r\n") if line else text)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{source} is not UTF-8: {exc.reason} at byte {exc.start + 1}") from None
    except json.JSONDecodeError as exc:
        where = f"column {exc.pos + 1}" if line else f"line {exc.lineno} column {exc.colno}"
        raise ConfigError(f"{source} is not valid JSON: {exc.msg}: {where}") from None
