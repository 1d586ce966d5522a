from __future__ import annotations

import threading

import pytest

from summit.backend import CompletionRequest, ChatMessage, HttpBackend, Role, ScriptedBackend, ScriptStep, CachedBackend
from summit.cache import ResponseCache
from summit.throttle import WINDOW_SECONDS, RateLimiter


class VirtualClock:
    """Deterministic clock whose sleep() advances time atomically."""

    def __init__(self):
        self._now = 0.0
        self._lock = threading.Lock()

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self._now += max(seconds, 0.0)


def window_bound_holds(stamps: list[float], rpm: int) -> bool:
    ordered = sorted(stamps)
    return all(
        ordered[i + rpm] - ordered[i] >= WINDOW_SECONDS - 1e-9
        for i in range(len(ordered) - rpm)
    )


def test_five_requests_at_rpm_two():
    clock = VirtualClock()
    limiter = RateLimiter(2, clock=clock.monotonic, sleep=clock.sleep)
    stamps = [limiter.acquire() for _ in range(5)]
    assert stamps == [0.0, 0.0, 60.0, 60.0, 120.0]
    assert window_bound_holds(stamps, 2)


def test_under_limit_dispatches_immediately():
    clock = VirtualClock()
    limiter = RateLimiter(1000, clock=clock.monotonic, sleep=clock.sleep)
    stamps = [limiter.acquire() for _ in range(5)]
    assert stamps == [0.0] * 5


def test_window_slides():
    clock = VirtualClock()
    limiter = RateLimiter(2, clock=clock.monotonic, sleep=clock.sleep)
    limiter.acquire()
    clock.sleep(30)
    limiter.acquire()
    stamp = limiter.acquire()  # must wait for the t=0 admission to expire
    assert stamp == 60.0


def test_rpm_must_be_positive():
    with pytest.raises(ValueError):
        RateLimiter(0)


def test_concurrent_submitters_respect_bound():
    clock = VirtualClock()
    limiter = RateLimiter(3, clock=clock.monotonic, sleep=clock.sleep)
    stamps: list[float] = []
    stamps_lock = threading.Lock()

    def worker():
        for _ in range(6):
            stamp = limiter.acquire()
            with stamps_lock:
                stamps.append(stamp)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(stamps) == 24
    assert window_bound_holds(stamps, 3)


def _request(content: str) -> CompletionRequest:
    return CompletionRequest(
        model_id="m",
        messages=(ChatMessage(Role.SYSTEM, "s"), ChatMessage(Role.USER, content)),
        temperature=0.0,
        max_output_tokens=16,
    )


def test_live_dispatches_are_throttled_per_attempt():
    clock = VirtualClock()
    limiter = RateLimiter(1, clock=clock.monotonic, sleep=clock.sleep)
    dispatch_times = []

    def transport(url, headers, data, timeout):
        dispatch_times.append(clock.monotonic())
        return 200, '{"choices": [{"message": {"content": "ok"}}], "usage": {}}'

    backend = HttpBackend("http://x", limiter=limiter, transport=transport, sleep=clock.sleep)
    backend.complete(_request("a"))
    backend.complete(_request("b"))
    assert dispatch_times == [0.0, 60.0]


def test_cached_hits_bypass_throttle():
    clock = VirtualClock()
    limiter = RateLimiter(1, clock=clock.monotonic, sleep=clock.sleep)
    calls = []

    def transport(url, headers, data, timeout):
        calls.append(clock.monotonic())
        return 200, '{"choices": [{"message": {"content": "ok"}}], "usage": {}}'

    backend = CachedBackend(
        HttpBackend("http://x", limiter=limiter, transport=transport, sleep=clock.sleep),
        ResponseCache(),
    )
    backend.complete(_request("same"))
    for _ in range(5):
        backend.complete(_request("same"))
    assert calls == [0.0]
    assert clock.monotonic() == 0.0


def test_script_hits_are_not_throttled():
    backend = ScriptedBackend([ScriptStep(response=str(i)) for i in range(5)])
    for i in range(5):
        assert backend.complete(_request("x")).text == str(i)
