from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import summit.backend as backend_module
from helpers import CountingHashlib, cache_key_oracle, write_script
from summit.backend import (
    CachedBackend,
    ChatMessage,
    CompletionRequest,
    HttpBackend,
    ReplayBackend,
    Role,
    ScriptedBackend,
    ScriptStep,
    ServedFrom,
    cache_key,
    estimate_tokens,
    load_script,
)
from summit.cache import CachedReply, ResponseCache
from summit.errors import AuthError, ConfigError, ReplayMiss, ScriptExhausted, ScriptMismatch, TransportError


def make_request(content="hello", tag="t1", system="sys", temperature=0.0):
    return CompletionRequest(
        model_id="m1",
        messages=(ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, content)),
        temperature=temperature,
        max_output_tokens=64,
        request_tag=tag,
    )


def ok_body(text="response text", prompt_tokens=7, completion_tokens=3):
    return json.dumps(
        {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
        }
    )


class FakeTransport:
    """Replays a fixed sequence of (status, body) results; records payloads."""

    def __init__(self, results):
        self.results = list(results)
        self.calls = []

    def __call__(self, url, headers, payload, timeout):
        self.calls.append({"url": url, "headers": headers, "payload": payload, "timeout": timeout})
        result = self.results.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def no_sleep(_):
    pass


# --- request invariants / cache key ----------------------------------------


def test_request_requires_system_first():
    with pytest.raises(ValueError):
        CompletionRequest("m", (ChatMessage(Role.USER, "hi"),), 0.0, 10)
    with pytest.raises(ValueError):
        CompletionRequest("m", (), 0.0, 10)


def test_cache_key_ignores_request_tag():
    assert cache_key(make_request(tag="a")) == cache_key(make_request(tag="b"))


def test_cache_key_sensitive_to_content_and_params():
    base = cache_key(make_request("hello"))
    assert cache_key(make_request("hello!")) != base
    assert cache_key(make_request("hello", temperature=0.7)) != base


def test_cache_key_sensitive_to_message_order():
    m1 = ChatMessage(Role.SYSTEM, "s")
    a = ChatMessage(Role.USER, "first")
    b = ChatMessage(Role.USER, "second")
    req_ab = CompletionRequest("m", (m1, a, b), 0.0, 10)
    req_ba = CompletionRequest("m", (m1, b, a), 0.0, 10)
    assert cache_key(req_ab) != cache_key(req_ba)
    assert cache_key(req_ab) == cache_key(CompletionRequest("m", (m1, a, b), 0.0, 10))


#: Content that stresses the JSON escaping: quotes, backslashes, control
#: characters, non-ASCII text and lone surrogates, among any other character.
_content = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\u2028", "é", "漢", "😀", " "]),
        st.characters(exclude_categories=()),
    ),
    max_size=40,
)


#: Every character for which ``str.isspace()`` is true; ``str.split()``
#: splits on exactly these.
_SPACES = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)

#: Message parts that stress word counting across part boundaries as well as
#: the escaping: every space, a zero-width non-space, quotes, backslashes,
#: control characters, lone surrogates and astral characters.
_part = st.text(
    st.one_of(
        st.sampled_from([*_SPACES, "\u200b", '"', "\\", "\x00", "\x7f", "\ud800", "\udfff", "😀", "a", "é"]),
        st.characters(exclude_categories=()),
    ),
    max_size=12,
)


def test_the_drawn_spaces_are_every_space():
    assert {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()} == set(_SPACES)


@given(st.sampled_from(Role), st.lists(_part, max_size=6))
def test_message_values_from_parts_match_those_of_the_whole_content(role, parts):
    content = "".join(parts)
    message = ChatMessage(role, content, tuple(parts))
    assert message.tokens == estimate_tokens(content)
    assert message.key_fragment == json.dumps([role.value, content], separators=(",", ":")).encode("ascii")


@pytest.mark.parametrize("parts", [("a",), ("b", "a"), ("a", "b", "c"), ("",)])
def test_parts_that_do_not_join_to_the_content_are_refused(parts):
    with pytest.raises(ValueError, match="join"):
        ChatMessage(Role.USER, "ab", parts)


def test_a_message_without_parts_is_its_one_part():
    assert ChatMessage(Role.USER, "ab").parts == ("ab",)
    assert ChatMessage(Role.USER, "").parts == ("",)


@st.composite
def _messages(draw, role=st.sampled_from(Role)) -> ChatMessage:
    parts = draw(st.lists(st.one_of(_content, _part), max_size=3))
    return ChatMessage(draw(role), "".join(parts), tuple(parts))


def _scalars(draw) -> dict:
    return {
        "model_id": draw(st.one_of(st.text(max_size=20), st.sampled_from(['"messages":[]', 'm","messages":[["user"']))),
        "temperature": draw(st.one_of(st.integers(-3, 3), st.floats(), st.sampled_from([0.0, -0.0]))),
        "max_output_tokens": draw(st.one_of(st.integers(), st.booleans())),
    }


@st.composite
def _requests(draw) -> list[tuple[CompletionRequest, bool]]:
    """A chain of requests, each the ``parent`` of the next, and whether each
    is keyed. A link extends its parent's messages, or first replaces one of
    them, copies them all (equal, not identical) or changes the scalars; a
    parent left unkeyed has no hash state to continue."""
    scalars = _scalars(draw)
    messages = (draw(_messages(st.just(Role.SYSTEM))),)
    chain: list[tuple[CompletionRequest, bool]] = []
    for _ in range(draw(st.integers(1, 4))):
        change = draw(st.sampled_from(["extend", "replace", "copy", "scalars"]))
        if change == "replace":
            i = draw(st.integers(0, len(messages) - 1))
            role = st.just(Role.SYSTEM) if i == 0 else st.sampled_from(Role)
            messages = (*messages[:i], draw(_messages(role)), *messages[i + 1 :])
        elif change == "copy":
            messages = tuple(ChatMessage(m.role, m.content, m.parts) for m in messages)
        elif change == "scalars":
            scalars = _scalars(draw)
        messages += tuple(draw(st.lists(_messages(), max_size=3)))
        parent = chain[-1][0] if chain else None
        request = CompletionRequest(messages=messages, request_tag=draw(st.text(max_size=5)), parent=parent, **scalars)
        chain.append((request, draw(st.booleans())))
    chain[-1] = (chain[-1][0], True)
    return chain


@given(_requests(), st.booleans())
def test_cache_key_matches_the_one_call_serialization(chain, counting):
    with pytest.MonkeyPatch.context() as patch:
        if counting:  # as the benchmark's tracer does
            patch.setattr(backend_module, "hashlib", CountingHashlib())
        for request, keyed in chain:
            if keyed:
                assert cache_key(request) == cache_key_oracle(request)
        request = chain[-1][0]
        assert cache_key(request) == cache_key_oracle(request)  # again, from the filled memos
    response = ScriptedBackend([ScriptStep(response="r")]).complete(request)
    assert response.usage.prompt_tokens == sum(estimate_tokens(m.content) for m in request.messages)


def test_a_keyed_parent_is_continued_rather_than_hashed_again(monkeypatch):
    counter = CountingHashlib()
    monkeypatch.setattr(backend_module, "hashlib", counter)
    system, user = ChatMessage(Role.SYSTEM, "s"), ChatMessage(Role.USER, "u", ("", "u"))
    first = CompletionRequest("m", (system, user), 0.0, 8)
    second = CompletionRequest("m", (system, user, ChatMessage(Role.ASSISTANT, "a"), user), 0.0, 8, parent=first)
    keys = [cache_key(first), cache_key(second)]
    assert keys == [cache_key_oracle(first), cache_key_oracle(second)]
    assert counter.started == 1


def test_keys_and_fingerprint_are_the_same_where_only_hashlib_gives_sha256():
    # In a fresh interpreter that blocks CPython's built-in SHA-256 modules.
    code = (
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import hashlib\n"
        "from summit.backend import ChatMessage, CompletionRequest, Role, cache_key, hashlib as source\n"
        "from importlib import resources\n"
        "from summit import PromptRegistry\n"
        "from helpers import cache_key_oracle, fingerprint_oracle\n"
        "assert source is hashlib, source\n"
        "system, user = ChatMessage(Role.SYSTEM, 's'), ChatMessage(Role.USER, 'caf\\u00e9 \\ud800')\n"
        "first = CompletionRequest('m', (system, user), 0.7, 8)\n"
        "second = CompletionRequest('m', (system, user, ChatMessage(Role.ASSISTANT, 'a'), user), 0.7, 8, parent=first)\n"
        "for request in (first, second):\n"
        "    assert cache_key(request) == cache_key_oracle(request), request\n"
        "assert PromptRegistry.load().fingerprint() == fingerprint_oracle(resources.files('summit') / 'templates')\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("temperatures", [(0.0, -0.0), (-0.0, 0.0)])
def test_equal_scalars_that_encode_apart_key_apart(monkeypatch, temperatures):
    monkeypatch.setattr(backend_module, "_KEY_ENDS", {})
    requests = [CompletionRequest("m", (ChatMessage(Role.SYSTEM, "s"),), t, 1) for t in temperatures]
    requests += [CompletionRequest("m", (ChatMessage(Role.SYSTEM, "s"),), 0.0, flag) for flag in (1, True)]
    keys = [cache_key(request) for request in requests]
    assert keys == [cache_key_oracle(request) for request in requests]
    assert keys[0] != keys[1]
    assert keys[2] != keys[3]


def test_memoized_message_equals_and_hashes_like_a_fresh_one():
    used = ChatMessage(Role.USER, "two words")
    assert (used.tokens, used.key_fragment) == (2, b'["user","two words"]')
    fresh = ChatMessage(Role.USER, "two words")
    assert "tokens" in vars(used) and "tokens" not in vars(fresh)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert {fresh: "found"}[used] == "found"
    assert repr(used) == repr(fresh)


# --- live client --------------------------------------------------------------


def test_live_success_parses_wire_shape():
    transport = FakeTransport([(200, ok_body("done"))])
    backend = HttpBackend("http://api.example/v1", api_key="k", transport=transport, sleep=no_sleep)
    response = backend.complete(make_request("ping"))
    assert response.text == "done"
    assert response.served_from is ServedFrom.LIVE
    assert response.usage.prompt_tokens == 7
    call = transport.calls[0]
    assert call["url"] == "http://api.example/v1/chat/completions"
    assert call["headers"]["Authorization"] == "Bearer k"
    assert call["payload"]["model"] == "m1"
    assert call["payload"]["messages"][0] == {"role": "system", "content": "sys"}
    assert call["payload"]["max_tokens"] == 64
    assert call["payload"]["temperature"] == 0.0


def test_transient_statuses_retry_until_success():
    transport = FakeTransport([(500, "boom"), (429, "slow down"), (200, ok_body())])
    backend = HttpBackend("http://x", transport=transport, sleep=no_sleep)
    assert backend.complete(make_request()).text == "response text"
    assert len(transport.calls) == 3


def test_retries_bounded_then_transport_error():
    transport = FakeTransport([(500, "a"), (503, "b"), (500, "c"), (502, "d"), (200, ok_body())])
    backend = HttpBackend("http://x", max_attempts=4, transport=transport, sleep=no_sleep)
    with pytest.raises(TransportError):
        backend.complete(make_request())
    assert len(transport.calls) == 4


def test_auth_error_not_retried():
    transport = FakeTransport([(401, "no"), (200, ok_body())])
    backend = HttpBackend("http://x", transport=transport, sleep=no_sleep)
    with pytest.raises(AuthError):
        backend.complete(make_request())
    assert len(transport.calls) == 1


def test_non_transient_client_error_fails_fast():
    transport = FakeTransport([(404, "missing"), (200, ok_body())])
    backend = HttpBackend("http://x", transport=transport, sleep=no_sleep)
    with pytest.raises(TransportError):
        backend.complete(make_request())
    assert len(transport.calls) == 1


def test_network_exception_is_retried():
    transport = FakeTransport([ConnectionError("reset"), (200, ok_body())])
    backend = HttpBackend("http://x", transport=transport, sleep=no_sleep)
    assert backend.complete(make_request()).text == "response text"


def test_backoff_is_exponential():
    sleeps = []
    transport = FakeTransport([(500, "x"), (500, "y"), (500, "z"), (500, "w")])
    backend = HttpBackend("http://x", transport=transport, sleep=sleeps.append)
    with pytest.raises(TransportError):
        backend.complete(make_request())
    assert sleeps == [0.5, 1.0, 2.0]


@pytest.mark.parametrize(
    "body",
    [
        json.dumps({"choices": [{"message": {"content": None}}]}),
        json.dumps({"choices": [{"message": {"content": "x"}}], "usage": {"prompt_tokens": "many"}}),
        json.dumps({"choices": [{"message": {"content": "x"}}], "usage": [3]}),
    ],
    ids=["null-content", "count-not-a-number", "usage-not-an-object"],
)
def test_a_reply_the_cache_could_not_hold_is_a_transport_error(body):
    backend = HttpBackend("http://x", transport=FakeTransport([(200, body)]), sleep=no_sleep)
    with pytest.raises(TransportError, match="malformed completion response"):
        backend.complete(make_request())


def test_malformed_body_is_transport_error():
    transport = FakeTransport([(200, "not json")])
    backend = HttpBackend("http://x", transport=transport, sleep=no_sleep)
    with pytest.raises(TransportError):
        backend.complete(make_request())


# --- scripted backend ------------------------------------------------------------


def test_scripted_returns_matching_step():
    backend = ScriptedBackend([ScriptStep(response="Do nothing. <STOP>", match="evaluate")])
    response = backend.complete(make_request("please evaluate this"))
    assert response.text == "Do nothing. <STOP>"
    assert response.served_from is ServedFrom.SCRIPT
    assert response.usage.prompt_tokens > 0


def test_scripted_exhaustion():
    backend = ScriptedBackend([])
    with pytest.raises(ScriptExhausted):
        backend.complete(make_request())


def test_scripted_mismatch():
    backend = ScriptedBackend([ScriptStep(response="x", match="summarize")])
    with pytest.raises(ScriptMismatch):
        backend.complete(make_request("please evaluate"))


def test_scripted_regex_matcher():
    step = ScriptStep(response="ok", match=r"^(?!.*POISON).*summarize", regex=True)
    assert ScriptedBackend([step]).complete(make_request("please summarize")).text == "ok"
    with pytest.raises(ScriptMismatch):
        ScriptedBackend([step]).complete(make_request("POISON please summarize"))


def test_scripted_is_deterministic():
    steps = [ScriptStep(response="one"), ScriptStep(response="two")]

    def run():
        backend = ScriptedBackend(steps)
        return [backend.complete(make_request(c)).text for c in ("a", "b")]

    assert run() == run() == ["one", "two"]


def test_load_script_roundtrip(tmp_path):
    path = write_script(
        tmp_path / "script.json",
        [{"match": "evaluate", "response": "Do nothing."}, {"response": "free"}],
    )
    steps = load_script(path)
    assert steps[0].match == "evaluate"
    assert steps[1].match is None


# --- cache wrapper / replay ---------------------------------------------------------


def test_cache_hit_skips_inner_and_is_byte_identical():
    transport = FakeTransport([(200, ok_body("cached me"))])
    cache = ResponseCache()
    backend = CachedBackend(HttpBackend("http://x", transport=transport, sleep=no_sleep), cache)
    first = backend.complete(make_request("same content", tag="t1"))
    second = backend.complete(make_request("same content", tag="t2"))
    assert len(transport.calls) == 1
    assert second.served_from is ServedFrom.CACHE
    assert second.text == first.text
    assert second.usage == first.usage


def test_cache_persists_across_instances(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    backend = CachedBackend(ScriptedBackend([ScriptStep(response="persisted")]), cache)
    backend.complete(make_request("q"))
    cache.close()

    fresh = ResponseCache(path)
    replay = ReplayBackend(fresh)
    response = replay.complete(make_request("q"))
    assert response.text == "persisted"
    assert response.served_from is ServedFrom.CACHE


def test_cache_file_has_versioned_header(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k", {"model": "m"}, {"text": "x", "usage": {}})
    cache.close()
    header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert header == {"schema": "summit/cache", "version": 1}


def test_cache_tolerates_torn_tail(tmp_path, caplog):
    naive = json.dumps({"key": "n", "request": {}, "response": {"text": "naïve"}}, ensure_ascii=False)
    cut_inside_a_character = naive.encode("utf-8")[: naive.index("ï") + 1]
    assert cut_inside_a_character.endswith(b"\xc3")
    for i, tail in enumerate((b'{"key": "half', cut_inside_a_character)):
        path = tmp_path / f"cache{i}.jsonl"
        cache = ResponseCache(path)
        cache.put("k", {}, {"text": "x", "usage": {}})
        cache.close()
        with path.open("ab") as fh:
            fh.write(tail)
        caplog.clear()
        reloaded = ResponseCache(path)
        assert reloaded.get("k") == CachedReply("x", 0, 0)
        assert reloaded.get("n") is None
        assert f"skipping malformed cache record at {path}:3" in caplog.text


def test_get_returns_the_replys_text_and_token_counts(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k", {}, {"text": "x", "usage": {"prompt_tokens": 7, "completion_tokens": 3}})
    cache.close()
    for source in (cache, ResponseCache(path)):
        reply = source.get("k")
        assert reply == CachedReply(text="x", prompt_tokens=7, completion_tokens=3)
        assert reply.record() == {"text": "x", "usage": {"prompt_tokens": 7, "completion_tokens": 3}}


@pytest.mark.parametrize(
    "response",
    [None, "x", {"usage": {}}, {"text": 5}, {"text": "y", "usage": [1]}, {"text": "y", "usage": {"prompt_tokens": "x"}},
     {"text": "y", "usage": {"completion_tokens": 1.5}}, {"text": "y", "usage": {"prompt_tokens": True}}],
    ids=["null", "string", "no-text", "text-not-a-string", "usage-not-an-object", "count-a-string", "count-a-float", "count-a-bool"],
)
def test_a_later_malformed_record_leaves_the_earlier_reply(tmp_path, caplog, response):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k", {}, {"text": "x", "usage": {}})
    cache.close()
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"key": "k", "request": {}, "response": response}) + "\n")
        fh.write(json.dumps(["k"]) + "\n")
    assert ResponseCache(path).get("k") == CachedReply("x", 0, 0)
    assert f"skipping malformed cache record at {path}:3" in caplog.text
    assert f"skipping malformed cache record at {path}:4" in caplog.text
    with pytest.raises(ValueError):
        ResponseCache(path).put("k", {}, response)
    assert len(path.read_text(encoding="utf-8").splitlines()) == 4


def test_a_header_that_is_not_an_object_is_not_a_cache_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("[1]\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a cache file"):
        ResponseCache(path)


def test_second_writer_is_refused_until_the_first_closes(tmp_path):
    path = tmp_path / "cache.jsonl"
    first, second = ResponseCache(path), ResponseCache(path)
    first.put("a", {}, {"text": "x", "usage": {}})
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        second.put("b", {}, {"text": "y", "usage": {}})
    assert second.get("b") is None
    first.close()
    second.put("b", {}, {"text": "y", "usage": {}})
    second.close()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line).get("key") for line in lines] == [None, "a", "b"]


def test_threads_share_one_append_handle(tmp_path):
    # More writers than cores and frequent thread switches: an interleaved or
    # lost line would show as a malformed record or a short count.
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)

    def write(prefix: str) -> None:
        for i in range(50):
            cache.put(f"{prefix}{i}", {}, {"text": prefix * 200, "usage": {}})

    threads = [threading.Thread(target=write, args=(p,)) for p in "abcd"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        cache.close()
    assert not any(thread.is_alive() for thread in threads)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 201
    assert len({json.loads(line)["key"] for line in lines[1:]}) == 200


def test_replay_miss_is_an_error():
    with pytest.raises(ReplayMiss):
        ReplayBackend(ResponseCache()).complete(make_request("never seen"))
