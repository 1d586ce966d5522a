"""Iterative summarization engine with an offline evaluation harness."""

from ._version import __version__
from .backend import (
    CachedBackend,
    ChatMessage,
    CompletionRequest,
    CompletionResponse,
    HttpBackend,
    ReplayBackend,
    Role,
    ScriptedBackend,
    ScriptStep,
    ServedFrom,
    cache_key,
)
from .cache import ResponseCache
from .corpus import CorpusSchema, DatasetRecord, SampleSpec, Split, load_corpus, sample
from .knowledge import NaiveExtractor, RemoteExtractor, Triplet, extract_triplets, render_triplets
from .metrics import (
    CorpusStats,
    RougeScore,
    aggregate,
    expected_score,
    rouge_l,
    rouge_n,
    tokenize,
    topic_similarity,
)
from .parsing import parse_edit_ops, parse_feedback
from .prompting import Exemplar, PromptRegistry, PromptRole, RenderedPrompt, Stage
from .session import run_session, should_stop
from .throttle import RateLimiter
from .trace_io import read_trace, write_trace
from .types import (
    Document,
    EditKind,
    EditOp,
    Feedback,
    SessionConfig,
    SessionTrace,
    Setting,
    StopReason,
    Summary,
    SummaryOrigin,
)

__all__ = [
    "__version__",
    "CachedBackend",
    "ChatMessage",
    "CompletionRequest",
    "CompletionResponse",
    "CorpusSchema",
    "CorpusStats",
    "DatasetRecord",
    "Document",
    "EditKind",
    "EditOp",
    "Exemplar",
    "Feedback",
    "HttpBackend",
    "NaiveExtractor",
    "PromptRegistry",
    "PromptRole",
    "RateLimiter",
    "RemoteExtractor",
    "RenderedPrompt",
    "ReplayBackend",
    "ResponseCache",
    "Role",
    "RougeScore",
    "SampleSpec",
    "ScriptStep",
    "ScriptedBackend",
    "ServedFrom",
    "SessionConfig",
    "SessionTrace",
    "Setting",
    "Split",
    "Stage",
    "StopReason",
    "Summary",
    "SummaryOrigin",
    "Triplet",
    "aggregate",
    "cache_key",
    "expected_score",
    "extract_triplets",
    "load_corpus",
    "parse_edit_ops",
    "parse_feedback",
    "read_trace",
    "render_triplets",
    "rouge_l",
    "rouge_n",
    "run_session",
    "sample",
    "should_stop",
    "tokenize",
    "topic_similarity",
    "write_trace",
]
