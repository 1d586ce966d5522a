"""Chat-completion access: live HTTP client, scripted mock, cache, replay.

The live client targets the common chat-completions wire shape: POST
``{base_url}/chat/completions`` with ``{model, messages, temperature,
max_tokens}`` and bearer-token auth, reading
``choices[0].message.content`` and ``usage`` back. Any compatible server
works; nothing is vendor-specific.
"""

from __future__ import annotations

import enum
import json
import re
import time
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Protocol

from .cache import CachedReply, ResponseCache
from .errors import AuthError, ConfigError, ReplayMiss, ScriptExhausted, ScriptMismatch, TransportError
from .throttle import RateLimiter
from .types import SessionConfig

# SHA-256 for cache_key and PromptRegistry.fingerprint, from CPython's
# built-in module: hashlib maps OpenSSL's libcrypto, over 3 MiB resident.
# hashlib remains the fallback where neither built-in is compiled. The
# name stays ``hashlib`` because perfbench/tracer.py and the tests replace
# summit.backend.hashlib to count the bytes cache_key hashes.
try:
    import _sha256 as hashlib  # CPython 3.10-3.11
except ImportError:
    try:
        import _sha2 as hashlib  # CPython 3.12+
    except ImportError:
        import hashlib

DEFAULT_MAX_ATTEMPTS = 4
DEFAULT_TIMEOUT = 120.0
_BACKOFF_BASE = 0.5
_BACKOFF_CAP = 30.0

BACKEND_MODES = ("live", "replay", "scripted")


class Role(enum.Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


class ServedFrom(enum.Enum):
    LIVE = "live"
    CACHE = "cache"
    SCRIPT = "script"


@dataclass(frozen=True)
class ChatMessage:
    """One turn of a chat. A thread resends all its messages on every call,
    so what a call needs from a message is computed once and kept in the
    instance ``__dict__``; equality and hashing see only role and content.

    ``parts`` is the content cut into pieces that join to it (``ValueError``
    otherwise); none given means the single part ``(content,)``. ``tokens``
    and ``key_fragment`` are assembled from per-part values that are memoized
    by the part's text, so a piece that recurs across messages (a session's
    document, embedded in every evaluate prompt) is counted and escaped once.
    """

    role: Role
    content: str
    parts: tuple[str, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts) or (self.content,))
        if "".join(self.parts) != self.content:
            raise ValueError("a message's parts must join to its content")

    def to_wire(self) -> dict:
        return {"role": self.role.value, "content": self.content}

    @cached_property
    def tokens(self) -> int:
        """``estimate_tokens`` of the content: the parts' word counts, less
        one for each word that a boundary between two parts cuts in two."""
        tokens = 0
        in_word = False  # the previous non-empty part ended inside a word
        for part in self.parts:
            if part:
                tokens += _memoized(_PART_WORDS, part, estimate_tokens)
                if in_word and not part[0].isspace():
                    tokens -= 1
                in_word = not part[-1].isspace()
        return tokens

    @cached_property
    def key_fragment(self) -> bytes:
        """This message's element of the messages array ``cache_key`` hashes:
        ``_canonical([role, content])``. ASCII-escaping works one code point
        at a time, so the content's escape is its parts' escapes joined."""
        body = b"".join(_memoized(_PART_ESCAPES, part, _escaped) for part in self.parts)
        return b'["%s","%s"]' % (self.role.value.encode("ascii"), body)


# Per-part values of ``ChatMessage``, keyed by the part's text. A memo is
# cleared when it reaches the limit, which bounds how long it keeps a
# finished session's document alive.
_PART_WORDS: dict[str, int] = {}
_PART_ESCAPES: dict[str, bytes] = {}
_PART_MEMO_LIMIT = 32


def _memoized(memo: dict, key, compute: Callable, limit: int = _PART_MEMO_LIMIT):
    """``memo[key]``, stored as ``compute(key)`` first if missing; a full memo is cleared."""
    value = memo.get(key)
    if value is None:
        if len(memo) >= limit:
            memo.clear()
        value = memo[key] = compute(key)
    return value


def _escaped(text: str) -> bytes:
    """The body of ``text``'s ASCII-escaped JSON string, without the quotes."""
    return encode_basestring_ascii(text)[1:-1].encode("ascii")


@dataclass(frozen=True)
class CompletionRequest:
    """One call's input. ``parent`` is the same thread's previous request,
    whose messages begin this one's; ``cache_key`` continues the hash it
    saved on the parent, and checks that claim before it does (see there).
    It takes no part in equality."""

    model_id: str
    messages: tuple[ChatMessage, ...]
    temperature: float
    max_output_tokens: int
    request_tag: str = ""
    parent: CompletionRequest | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.messages:
            raise ValueError("messages must be non-empty")
        if self.messages[0].role is not Role.SYSTEM:
            raise ValueError("first message must be the system prompt")

    @property
    def last_user_content(self) -> str:
        for message in reversed(self.messages):
            if message.role is Role.USER:
                return message.content
        return ""


@dataclass(frozen=True)
class TokenUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    usage: TokenUsage
    served_from: ServedFrom


class CompletionBackend(Protocol):
    def complete(self, request: CompletionRequest) -> CompletionResponse: ...


def _canonical(value) -> bytes:
    return json.dumps(value, ensure_ascii=True, separators=(",", ":")).encode("ascii")


# The bytes around the messages, per distinct (max_output_tokens, model,
# temperature); see ``cache_key``.
_KEY_ENDS: dict[tuple, tuple[bytes, bytes]] = {}
_KEY_ENDS_LIMIT = 64


def _exact(value) -> tuple:
    """A memo key part that two scalars share only if ``_canonical`` encodes
    them alike: the type keeps ``1``, ``True`` and ``1.0`` apart, and a
    float's hex form keeps ``0.0`` and ``-0.0`` apart."""
    return (float, float.hex(value)) if isinstance(value, float) else (type(value), value)


def cache_key(request: CompletionRequest) -> str:
    """SHA-256 over content that determines the completion.

    The hashed bytes are the compact, key-sorted, ASCII-escaped JSON of
    ``{"max_output_tokens", "messages", "model", "temperature"}``, with each
    message as ``[role, content]``. Sorted keys put ``messages`` second, so
    the bytes are the scalars' encoding (memoized per distinct triple) around
    each message's memoized ``key_fragment``. ``request_tag`` is deliberately
    excluded so identical content collides.

    The hash state after the head and the messages is saved on the request.
    A request continues its parent's saved state, hashing only its new
    messages, when the parent's head bytes are the same and the parent's
    messages are the very objects (``is``) that begin this request's;
    otherwise it hashes from scratch. Either way the bytes are the same.
    """
    temperature = float(request.temperature)
    scalars = (_exact(request.max_output_tokens), _exact(request.model_id), _exact(temperature))

    def ends(_) -> tuple[bytes, bytes]:
        head = b'{"max_output_tokens":%s,"messages":[' % _canonical(request.max_output_tokens)
        tail = b'],"model":%s,"temperature":%s}' % (_canonical(request.model_id), _canonical(temperature))
        return head, tail

    head, tail = _memoized(_KEY_ENDS, scalars, ends, _KEY_ENDS_LIMIT)
    messages, parent = request.messages, request.parent
    # (head, state) as saved by the parent's own cache_key, in its __dict__
    saved = None if parent is None else vars(parent).get("_key_state")
    if (
        saved is not None
        and saved[0] == head
        and len(parent.messages) <= len(messages)
        and all(a is b for a, b in zip(parent.messages, messages))
    ):
        state = saved[1].copy()
        for message in messages[len(parent.messages) :]:
            state.update(b"," + message.key_fragment)
    else:
        state = hashlib.sha256(head + b",".join(m.key_fragment for m in messages))
    vars(request)["_key_state"] = (head, state)
    final = state.copy()
    final.update(tail)
    return final.hexdigest()


def _request_summary(request: CompletionRequest) -> dict:
    last = request.last_user_content
    return {
        "model": request.model_id,
        "tag": request.request_tag,
        "messages": len(request.messages),
        "last_user": last[:120],
    }


def estimate_tokens(text: str) -> int:
    """Whitespace word count; the usage proxy for scripted responses."""
    return len(text.split())


# --- live client -----------------------------------------------------------

#: transport(url, headers, payload, timeout) -> (status_code, body_text)
Transport = Callable[[str, dict, dict, float], tuple[int, str]]


def _requests_transport(url: str, headers: dict, payload: dict, timeout: float) -> tuple[int, str]:
    import requests  # here, so that offline runs do not pay for importing it

    resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    return resp.status_code, resp.text


class HttpBackend:
    """Live client with bounded exponential-backoff retries and throttling."""

    def __init__(
        self,
        base_url: str,
        api_key: str = "",
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        timeout: float = DEFAULT_TIMEOUT,
        limiter: RateLimiter | None = None,
        transport: Transport = _requests_transport,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.url = base_url.rstrip("/") + "/chat/completions"
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self.max_attempts = max_attempts
        self.timeout = timeout
        self._limiter = limiter
        self._transport = transport
        self._sleep = sleep

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        payload = {
            "model": request.model_id,
            "messages": [m.to_wire() for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        last_error = ""
        for attempt in range(1, self.max_attempts + 1):
            if self._limiter is not None:
                self._limiter.acquire()
            try:
                status, body = self._transport(self.url, dict(self._headers), payload, self.timeout)
            except Exception as exc:
                last_error = f"transport failure: {exc}"
                status = None
            else:
                if status == 200:
                    return self._parse_body(body)
                if status in (401, 403):
                    raise AuthError(f"authentication rejected (HTTP {status})")
                if status == 429 or status >= 500:
                    last_error = f"HTTP {status}"
                else:
                    raise TransportError(f"HTTP {status}: {body[:200]}")
            if attempt < self.max_attempts:
                self._sleep(min(_BACKOFF_BASE * 2 ** (attempt - 1), _BACKOFF_CAP))
        raise TransportError(f"{last_error} after {self.max_attempts} attempts")

    @staticmethod
    def _parse_body(body: str) -> CompletionResponse:
        try:
            data = json.loads(body)
            text = data["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content is {type(text).__name__}, not a string")
            usage = data.get("usage") or {}
            usage = TokenUsage(
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            )
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc
        return CompletionResponse(text=text, usage=usage, served_from=ServedFrom.LIVE)


# --- scripted mock ---------------------------------------------------------


@dataclass(frozen=True)
class ScriptStep:
    """A matcher against the last user message plus the canned reply."""

    response: str
    match: str | None = None
    regex: bool = False

    def matches(self, last_user: str) -> bool:
        if self.match is None:
            return True
        if self.regex:
            return re.search(self.match, last_user, re.DOTALL) is not None
        return self.match in last_user


class ScriptedBackend:
    """Deterministic mock: steps are consumed strictly in order.

    Single-consumer by design (positional cursor); create one per session.
    """

    def __init__(self, steps: list[ScriptStep]):
        self.steps = list(steps)
        self.cursor = 0

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        if self.cursor >= len(self.steps):
            raise ScriptExhausted(
                f"script exhausted after {len(self.steps)} steps (tag={request.request_tag!r})"
            )
        step = self.steps[self.cursor]
        last_user = request.last_user_content
        if not step.matches(last_user):
            raise ScriptMismatch(
                f"script step {self.cursor} expected {step.match!r} in the last "
                f"user message (tag={request.request_tag!r})"
            )
        self.cursor += 1
        prompt_tokens = sum(m.tokens for m in request.messages)
        return CompletionResponse(
            text=step.response,
            usage=TokenUsage(prompt_tokens, estimate_tokens(step.response)),
            served_from=ServedFrom.SCRIPT,
        )


SCRIPT_SCHEMA = "summit/script"


def load_script(path: str | Path) -> list[ScriptStep]:
    """Read a script file: ``{"schema", "version", "steps": [...]}``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != SCRIPT_SCHEMA:
        raise ValueError(f"not a script file: {path}")
    return [
        ScriptStep(
            response=step["response"],
            match=step.get("match"),
            regex=bool(step.get("regex", False)),
        )
        for step in data["steps"]
    ]


# --- cache wrapper and replay ----------------------------------------------


@dataclass
class CachedBackend:
    """Serve from the cache when possible; store every inner response.

    Works in front of both live and scripted backends, so a scripted or live
    run leaves behind a cache file that replay mode can consume.
    """

    inner: CompletionBackend
    cache: ResponseCache

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        key = cache_key(request)
        hit = self.cache.get(key)
        if hit is not None:
            return _response_from_reply(hit)
        response = self.inner.complete(request)
        usage = response.usage
        reply = CachedReply(response.text, usage.prompt_tokens, usage.completion_tokens)
        self.cache.put(key, _request_summary(request), reply.record())
        return response


class ReplayBackend:
    """Cache-only backend: a miss is an error, never a live call."""

    def __init__(self, cache: ResponseCache):
        self.cache = cache

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        hit = self.cache.get(cache_key(request))
        if hit is None:
            raise ReplayMiss(
                f"no cached response for request (tag={request.request_tag!r}); "
                "run the experiment once with a cache configured before replaying"
            )
        return _response_from_reply(hit)


def _response_from_reply(reply: CachedReply) -> CompletionResponse:
    usage = TokenUsage(prompt_tokens=reply.prompt_tokens, completion_tokens=reply.completion_tokens)
    return CompletionResponse(text=reply.text, usage=usage, served_from=ServedFrom.CACHE)


# --- construction -------------------------------------------------------------


@dataclass
class BackendSettings:
    """Where completions come from. ``model`` is the model id sessions
    request; every source of backend settings can set it."""

    mode: str = "live"
    script: Path | None = None
    cache: Path | None = None
    base_url: str | None = None
    api_key: str = ""
    model: str = SessionConfig.model_id
    rpm: int | None = None
    timeout: float = DEFAULT_TIMEOUT
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __post_init__(self):
        if self.mode not in BACKEND_MODES:
            raise ConfigError(f"backend mode must be one of {BACKEND_MODES}")
        if self.mode == "scripted" and self.script is None:
            raise ConfigError("scripted mode requires a script path")
        if self.mode == "replay" and self.cache is None:
            raise ConfigError("replay mode requires a cache path")


def backend_factory(settings: BackendSettings, cache: ResponseCache | None) -> Callable[[], CompletionBackend]:
    """A function giving each session its backend: a fresh cursor per
    scripted session (scripts are positional), one shared live or replay one.
    ``cache`` is the loaded cache at ``settings.cache``; the caller closes it."""
    if settings.mode == "scripted":
        steps = load_script(settings.script)
        if cache is None:
            return lambda: ScriptedBackend(steps)
        return lambda: CachedBackend(ScriptedBackend(steps), cache)
    if settings.mode == "replay":
        shared: CompletionBackend = ReplayBackend(cache)
    else:
        if not settings.base_url:
            raise ConfigError("live mode requires a base URL (--base-url, backend.base_url or SUMMIT_BASE_URL)")
        shared = HttpBackend(
            settings.base_url,
            api_key=settings.api_key,
            max_attempts=settings.max_attempts,
            timeout=settings.timeout,
            limiter=RateLimiter(settings.rpm) if settings.rpm else None,
        )
        if cache is not None:
            shared = CachedBackend(shared, cache)
    return lambda: shared
