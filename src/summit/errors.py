"""Exception hierarchy shared across the package. Each class carries the
exit code a command ends with when it escapes: 2 for bad input, 3 for a
backend failure, 1 for an internal error (library code misused)."""

from __future__ import annotations


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
