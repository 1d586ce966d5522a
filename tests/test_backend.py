from __future__ import annotations

import json
import re
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import summit.backend as backend_module
from helpers import cache_key_oracle, write_script
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
from summit.cache import ResponseCache
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


@st.composite
def _requests(draw) -> CompletionRequest:
    system = ChatMessage(Role.SYSTEM, draw(_content))
    rest = draw(st.lists(st.builds(ChatMessage, st.sampled_from(Role), _content), max_size=5))
    return CompletionRequest(
        model_id=draw(st.one_of(st.text(max_size=20), st.sampled_from(['"messages":[]', 'm","messages":[["user"']))),
        messages=(system, *rest),
        temperature=draw(st.one_of(st.integers(-3, 3), st.floats(), st.sampled_from([0.0, -0.0]))),
        max_output_tokens=draw(st.one_of(st.integers(), st.booleans())),
        request_tag=draw(st.text(max_size=5)),
    )


@given(_requests())
def test_cache_key_matches_the_one_call_serialization(request):
    assert cache_key(request) == cache_key_oracle(request)
    assert cache_key(request) == cache_key_oracle(request)  # again, from the filled memos
    response = ScriptedBackend([ScriptStep(response="r")]).complete(request)
    assert response.usage.prompt_tokens == sum(estimate_tokens(m.content) for m in request.messages)


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


def test_cache_tolerates_torn_tail(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k", {}, {"text": "x", "usage": {}})
    cache.close()
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"key": "half')
    reloaded = ResponseCache(path)
    assert reloaded.get("k") == {"text": "x", "usage": {}}


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
