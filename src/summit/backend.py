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
import math
import re
import time
from functools import cached_property, partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple, Protocol

from .cache import ResponseCache
from .errors import AuthError, ConfigError, ReplayMiss, ScriptExhausted, ScriptMismatch, TransportError, read_json
from .throttle import RateLimiter
from .types import CompletionResponse, ServedFrom, SessionConfig, token_counts

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


class ChatMessage:
    """One turn of a chat. A thread resends all its messages on every call,
    so what a call needs from a message is computed once and kept in the
    instance ``__dict__``; equality and hashing see only role and content.
    A message is immutable: assigning an attribute raises AttributeError.

    ``parts`` is the content cut into pieces that join to it (``ValueError``
    otherwise); none given means the single part ``(content,)``. ``tokens``
    and ``key_fragment`` are assembled from per-part values that are memoized
    by the part's text, so a piece that recurs across messages (a session's
    document, embedded in every evaluate prompt) is counted and escaped once.
    """

    def __init__(self, role: Role, content: str, parts: tuple[str, ...] = ()):
        parts = tuple(parts) or (content,)
        if "".join(parts) != content:
            raise ValueError("a message's parts must join to its content")
        vars(self).update(role=role, content=content, parts=parts)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a ChatMessage is immutable")

    def __eq__(self, other):
        return (self.role, self.content) == (other.role, other.content) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.role, self.content))

    def __repr__(self) -> str:
        return f"ChatMessage(role={self.role!r}, content={self.content!r})"

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


class CompletionRequest:
    """One call's input. ``parent`` is the same thread's previous request,
    whose messages begin this one's; ``cache_key`` continues the hash it
    saved on the parent, and checks that claim before it does (see there).
    It takes no part in equality or the repr. A request is immutable:
    assigning an attribute raises AttributeError."""

    def __init__(
        self,
        model_id: str,
        messages: tuple[ChatMessage, ...],
        temperature: float,
        max_output_tokens: int,
        request_tag: str = "",
        parent: CompletionRequest | None = None,
    ):
        if not messages:
            raise ValueError("messages must be non-empty")
        if messages[0].role is not Role.SYSTEM:
            raise ValueError("first message must be the system prompt")
        vars(self).update(
            model_id=model_id,
            messages=messages,
            temperature=temperature,
            max_output_tokens=max_output_tokens,
            request_tag=request_tag,
            parent=parent,
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a CompletionRequest is immutable")

    def _compared(self) -> tuple:
        return self.model_id, self.messages, self.temperature, self.max_output_tokens, self.request_tag

    def __eq__(self, other):
        return self._compared() == other._compared() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        return (
            f"CompletionRequest(model_id={self.model_id!r}, messages={self.messages!r}, "
            f"temperature={self.temperature!r}, max_output_tokens={self.max_output_tokens!r}, "
            f"request_tag={self.request_tag!r})"
        )

    @property
    def last_user_content(self) -> str:
        for message in reversed(self.messages):
            if message.role is Role.USER:
                return message.content
        return ""


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

#: transport(url, headers, data, timeout) -> (HTTP status, body text)
Transport = Callable[[str, dict, bytes, float], tuple[int, str]]


def requests_transport(url: str, headers: dict, data: bytes, timeout: float) -> tuple[int, str]:
    import requests  # here, so that offline runs do not pay for importing it

    resp = requests.post(url, headers=headers, data=data, timeout=timeout)
    return resp.status_code, resp.text


def post_json(
    url: str, data: bytes, headers: dict, *, name: str, timeout: float, max_attempts: int,
    transport: Transport, sleep: Callable[[float], None], limiter: RateLimiter | None = None,
):
    """POST ``data`` to ``url`` and return the reply's JSON value, by the one
    status rule of every remote: 200 is decoded (TransportError naming the
    ``name`` response if it is not JSON); 401/403 is AuthError; 429, 5xx and
    a transport exception are retried with exponential backoff, and are a
    TransportError once ``max_attempts`` attempts fail; any other status is
    TransportError at once."""
    last_error = ""
    for attempt in range(1, max_attempts + 1):
        if limiter is not None:
            limiter.acquire()
        try:
            status, body = transport(url, dict(headers), data, timeout)
        except Exception as exc:
            last_error = f"transport failure: {exc}"
        else:
            if status == 200:
                try:
                    return json.loads(body)
                except (ValueError, RecursionError) as exc:
                    raise TransportError(f"malformed {name} response: {exc}") from exc
            if status in (401, 403):
                raise AuthError(f"authentication rejected (HTTP {status})")
            if status != 429 and status < 500:
                raise TransportError(f"HTTP {status}: {body[:200]}")
            last_error = f"HTTP {status}"
        if attempt < max_attempts:
            sleep(min(_BACKOFF_BASE * 2 ** (attempt - 1), _BACKOFF_CAP))
    raise TransportError(f"{last_error} after {max_attempts} attempts")


class HttpBackend:
    """Live client with bounded exponential-backoff retries and throttling."""

    def __init__(
        self, base_url: str, api_key: str = "", max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        timeout: float = DEFAULT_TIMEOUT, limiter: RateLimiter | None = None,
        transport: Transport = requests_transport, sleep: Callable[[float], None] = time.sleep,
    ):
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        self._post = partial(
            post_json, base_url.rstrip("/") + "/chat/completions", headers=headers, name="completion",
            timeout=timeout, max_attempts=max_attempts, transport=transport, sleep=sleep, limiter=limiter,
        )

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        payload = {
            "model": request.model_id,
            "messages": [{"role": m.role.value, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        # Encoded as requests encodes a json= argument.
        reply = self._post(json.dumps(payload, allow_nan=False).encode("utf-8"))
        try:
            text = reply["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content is {type(text).__name__}, not a string")
            prompt_tokens, completion_tokens = token_counts(reply.get("usage"))
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc
        return CompletionResponse(text, prompt_tokens, completion_tokens, ServedFrom.LIVE)


# --- scripted mock ---------------------------------------------------------


class ScriptStep(NamedTuple):
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
        return CompletionResponse(step.response, prompt_tokens, estimate_tokens(step.response), ServedFrom.SCRIPT)


SCRIPT_HEADER = {"schema": "summit/script", "version": 1}


def load_script(path: str | Path) -> list[ScriptStep]:
    """Read a script file: ``{"schema", "version", "steps": [...]}``.

    ValueError, naming the step, unless ``steps`` is a list of objects each
    with a string ``response``, a string or null ``match`` and a boolean
    ``regex`` (default false), and each regex ``match`` compiles; so every
    reply a script gives is checked before the first call.
    """
    data = read_json(Path(path), SCRIPT_HEADER)
    if not isinstance(data.get("steps"), list):
        raise ValueError(f"{path}: steps must be a list")
    steps = []
    for index, raw in enumerate(data["steps"]):
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: step {index} is not an object")
        step = ScriptStep(raw.get("response"), raw.get("match"), raw.get("regex", False))
        if not isinstance(step.response, str):
            raise ValueError(f"{path}: step {index} response must be a string")
        if not isinstance(step.match, (str, type(None))):
            raise ValueError(f"{path}: step {index} match must be a string or null")
        if type(step.regex) is not bool:
            raise ValueError(f"{path}: step {index} regex must be true or false")
        if step.regex and step.match is not None:
            try:
                re.compile(step.match)
            except re.error as exc:
                raise ValueError(f"{path}: step {index} match is not a regular expression: {exc}") from None
        steps.append(step)
    return steps


# --- cache wrapper and replay ----------------------------------------------


class CachedBackend:
    """Serve from the cache when possible; store every inner response.

    Works in front of both live and scripted backends, so a scripted or live
    run leaves behind a cache file that replay mode can consume. A script's
    replies go by position, so a hit still takes its step from a scripted
    inner backend, as the request would without the cache.
    """

    def __init__(self, inner: CompletionBackend, cache: ResponseCache):
        self.inner = inner
        self.cache = cache

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        key = cache_key(request)
        hit = self.cache.get(key)
        if hit is not None:
            if isinstance(self.inner, ScriptedBackend):
                self.inner.complete(request)
            return hit
        response = self.inner.complete(request)
        self.cache.put(key, _request_summary(request), response)
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
        return hit


# --- construction -------------------------------------------------------------


class BackendSettings(NamedTuple):
    """Where completions come from. ``model`` is the model id sessions
    request; every source of backend settings can set it."""

    mode: str = "live"
    script: Path | None = None
    cache: Path | None = None
    base_url: str | None = None
    api_key: str = ""
    model: str = SessionConfig._field_defaults["model_id"]
    rpm: int | None = None
    timeout: float = DEFAULT_TIMEOUT
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def check(self) -> BackendSettings:
        """These settings, unless the mode is unknown or lacks the file it
        reads, or a transport setting is out of range (ConfigError)."""
        if self.mode not in BACKEND_MODES:
            raise ConfigError(f"backend mode must be one of {BACKEND_MODES}")
        if self.mode == "scripted" and self.script is None:
            raise ConfigError("scripted mode requires a script path")
        if self.mode == "replay" and self.cache is None:
            raise ConfigError("replay mode requires a cache path")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.rpm is not None and self.rpm < 1:
            raise ConfigError("rpm must be >= 1 when set")
        if not 0 < self.timeout < math.inf:
            raise ConfigError(f"timeout must be > 0 and finite, not {self.timeout!r}")
        return self


def backend_factory(settings: BackendSettings, cache: ResponseCache | None) -> Callable[[], CompletionBackend]:
    """A function giving each session its backend: a fresh cursor per
    scripted session (scripts are positional, and a cache hit takes its step
    too), one shared live or replay one.
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
