"""Core domain types for the iterative refinement loop."""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import ConfigError


class Setting(enum.Enum):
    QUALITY = "quality"
    CONTROL = "control"
    FAITHFULNESS = "faithfulness"


class SummaryOrigin(enum.Enum):
    INITIAL = "initial"
    REFINED = "refined"
    UNCHANGED = "unchanged"


class EditKind(enum.Enum):
    ADD = "add"
    REMOVE = "remove"
    REPHRASE = "rephrase"
    SIMPLIFY = "simplify"
    KEEP = "keep"


#: Edit kinds that carry a free-text target.
TARGETED_KINDS = frozenset({EditKind.ADD, EditKind.REMOVE, EditKind.REPHRASE})


class StopReason(enum.Enum):
    EVALUATOR_STOP = "evaluator_stop"
    MAX_ITERATIONS = "max_iterations"
    KEEP_ONLY = "keep_only"


class ServedFrom(enum.Enum):
    LIVE = "live"
    CACHE = "cache"
    SCRIPT = "script"


class CompletionResponse(NamedTuple):
    """One backend reply: its text, its two token counts and where it was
    served from. The cache keeps this object per key, served from CACHE."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    served_from: ServedFrom


def token_counts(usage) -> tuple[int, int]:
    """The prompt and completion token counts of a reply's ``usage`` object,
    as a live body or a cache record gives it.

    Each count is an ``int`` (not a ``bool``) of 0 or more; a missing count,
    or a missing (``None``) ``usage``, is 0. ValueError otherwise."""
    if usage is None:
        return 0, 0
    if not isinstance(usage, dict):
        raise ValueError("usage is not an object")
    prompt, completion = usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0)
    if type(prompt) is not int or type(completion) is not int or prompt < 0 or completion < 0:
        raise ValueError(f"token counts must be integers of 0 or more, not {prompt!r} and {completion!r}")
    return prompt, completion


def usage_of(calls) -> dict[str, int]:
    """The usage object of the replies ``calls``, which a trace and
    ``calls.json`` write: how many were served from the cache, and their
    summed completion and prompt tokens."""
    return {
        "cache_hits": sum(call.served_from is ServedFrom.CACHE for call in calls),
        "completion_tokens": sum(call.completion_tokens for call in calls),
        "prompt_tokens": sum(call.prompt_tokens for call in calls),
    }


class EditOp(NamedTuple):
    """One revision command parsed from evaluator feedback: a kind in
    ``TARGETED_KINDS`` carries a non-empty target, any other kind none."""

    kind: EditKind
    target: str | None = None


class Document(NamedTuple):
    """A source text to summarize."""

    id: str
    text: str


class Summary(NamedTuple):
    """A candidate summary at one iteration of the loop; iteration 0 is the
    INITIAL draft."""

    text: str
    iteration: int
    origin: SummaryOrigin


class Feedback(NamedTuple):
    """Evaluator output: verbatim rationale plus its parsed structure.

    ``distribution_parsed`` is False when no score distribution could be
    recovered and the uniform fallback (0.2 each, expected 3.0) was used.
    """

    raw: str
    score_distribution: dict[int, float]
    expected_score: float
    edit_ops: list[EditOp]
    stop_requested: bool
    distribution_parsed: bool = True


class Exemplar(NamedTuple):
    """An in-context example; evaluator exemplars also carry an explanation."""

    document: str
    summary: str
    explanation: str | None = None


class SessionConfig(NamedTuple):
    """Everything a refinement session needs beyond the document itself.
    The defaults are ``SessionConfig._field_defaults``."""

    model_id: str = "default"
    setting: Setting = Setting.QUALITY
    max_iterations: int = 5
    topic_query: str | None = None
    exemplars: tuple[Exemplar, ...] = ()
    temperature: float = 0.0
    max_output_tokens: int = 512
    stop_marker: str = "<STOP>"
    strict_parsing: bool = False
    min_document_tokens: int = 10
    token_budget: int | None = None

    def check(self) -> SessionConfig:
        """This config, unless a value is out of range (ConfigError)."""
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.setting is Setting.CONTROL and not (self.topic_query or "").strip():
            raise ConfigError("control setting requires a topic_query")
        if not 0 <= self.temperature < math.inf:
            raise ConfigError(f"temperature must be >= 0 and finite, not {self.temperature!r}")
        if self.max_output_tokens < 1:
            raise ConfigError("max_output_tokens must be positive")
        if not self.stop_marker:
            raise ConfigError("stop_marker must be non-empty")
        if self.token_budget is not None and self.token_budget < 1:
            raise ConfigError("token_budget must be positive when set")
        return self


class TraceStep(NamedTuple):
    summary: Summary
    feedback: Feedback


class SessionTrace(NamedTuple):
    """The drafts, feedback and stop reason of one session, and its backend
    replies in call order, which the trace file records (see trace_io)."""

    document_id: str
    steps: list[TraceStep]
    stopped_by: StopReason
    calls: list[CompletionResponse]

    @property
    def final_summary(self) -> Summary:
        return self.steps[-1].summary

    @property
    def final_feedback(self) -> Feedback:
        return self.steps[-1].feedback
