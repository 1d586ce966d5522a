"""Chat-completion access: live HTTP client, scripted mock, cache, replay.

The live client targets the common chat-completions wire shape: POST
``{base_url}/chat/completions`` with ``{model, messages, temperature,
max_tokens}`` and bearer-token auth, reading
``choices[0].message.content`` and ``usage`` back. Any compatible server
works; nothing is vendor-specific.
"""

from __future__ import annotations

import enum
import hashlib
import json
import re
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Protocol

from .cache import ResponseCache
from .errors import AuthError, ConfigError, ReplayMiss, ScriptExhausted, ScriptMismatch, TransportError
from .throttle import RateLimiter
from .types import SessionConfig

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
    instance ``__dict__``; equality and hashing see only the fields."""

    role: Role
    content: str

    def to_wire(self) -> dict:
        return {"role": self.role.value, "content": self.content}

    @cached_property
    def tokens(self) -> int:
        """``estimate_tokens`` of the content."""
        return estimate_tokens(self.content)

    @cached_property
    def key_fragment(self) -> bytes:
        """This message's element of the messages array ``cache_key`` hashes."""
        return _canonical([self.role.value, self.content])


@dataclass(frozen=True)
class CompletionRequest:
    model_id: str
    messages: tuple[ChatMessage, ...]
    temperature: float
    max_output_tokens: int
    request_tag: str = ""

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
    the bytes are assembled from the scalars' encoding (memoized per distinct
    triple) around each message's memoized ``key_fragment``, and a call costs
    only its new messages' encoding. ``request_tag`` is deliberately excluded
    so identical content collides.
    """
    temperature = float(request.temperature)
    memo = (_exact(request.max_output_tokens), _exact(request.model_id), _exact(temperature))
    ends = _KEY_ENDS.get(memo)
    if ends is None:
        if len(_KEY_ENDS) >= _KEY_ENDS_LIMIT:
            _KEY_ENDS.clear()
        head = b'{"max_output_tokens":%s,"messages":[' % _canonical(request.max_output_tokens)
        tail = b'],"model":%s,"temperature":%s}' % (_canonical(request.model_id), _canonical(temperature))
        ends = _KEY_ENDS[memo] = (head, tail)
    messages = b",".join(m.key_fragment for m in request.messages)
    return hashlib.sha256(ends[0] + messages + ends[1]).hexdigest()


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
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc
        usage = data.get("usage") or {}
        return CompletionResponse(
            text=text,
            usage=TokenUsage(
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            ),
            served_from=ServedFrom.LIVE,
        )


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
            return _response_from_record(hit)
        response = self.inner.complete(request)
        self.cache.put(key, _request_summary(request), _response_to_record(response))
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
        return _response_from_record(hit)


def _response_to_record(response: CompletionResponse) -> dict:
    return {
        "text": response.text,
        "usage": {
            "prompt_tokens": response.usage.prompt_tokens,
            "completion_tokens": response.usage.completion_tokens,
        },
    }


def _response_from_record(record: dict) -> CompletionResponse:
    usage = record.get("usage") or {}
    return CompletionResponse(
        text=record["text"],
        usage=TokenUsage(
            prompt_tokens=int(usage.get("prompt_tokens", 0)),
            completion_tokens=int(usage.get("completion_tokens", 0)),
        ),
        served_from=ServedFrom.CACHE,
    )


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
