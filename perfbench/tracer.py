"""In-memory span tracing of summit's layers, installed from outside the package.

``Tracer.install()`` replaces public functions and methods with timing
wrappers at the place their caller looks them up (``summit.experiment.
rouge_l_multi``, ``summit.session.parse_feedback``, ``ResponseCache.get`` and
so on), so nothing under ``src/summit`` changes. Each span is a list
``[name, start, end, parent_index, document_id, value]``; the layer is the
part of the name before the first dot. ``value`` is an optional count taken
from the call's arguments and result after the span has ended. Spans stay in
memory until the run ends.

Call only with ``workers=1``: the span stack is not thread-safe.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, DOC, VALUE = range(6)


class _CountingHash:
    """A hashlib object that adds the length of everything it hashes to a counter."""

    def __init__(self, real, counter: list[int], data: bytes):
        self._real = real
        self._counter = counter
        self.update(data)

    def update(self, data: bytes) -> None:
        self._counter[0] += len(data)
        self._real.update(data)

    def __getattr__(self, name):
        return getattr(self._real, name)


class _CountingHashlib:
    def __init__(self, real, counter: list[int]):
        self._real = real
        self._counter = counter

    def sha256(self, data: bytes = b""):
        return _CountingHash(self._real.sha256(), self._counter, data)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._document = ""
        self._restore: list[tuple[object, str, object]] = []
        self.tokenize_calls = [0]
        self.lcs_cells = [0]
        self.hashed_bytes = [0]

    def _replace(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, value=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``value(args, result)``, when given, is stored in the span.
        """
        real = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self
        starts_document = name == "session.run_session"

        @functools.wraps(real)
        def traced(*args, **kwargs):
            if starts_document:
                tracer._document = args[0].id
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._document, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = real(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if value is not None:
                span[VALUE] = value(args, result)
            return result

        self._replace(owner, attr, traced)

    def count(self, owner, attr: str, counter: list[int], amount=None) -> None:
        """Add ``amount(*args)`` (default 1) to ``counter`` on every call of ``owner.attr``; no span."""
        real = getattr(owner, attr)

        @functools.wraps(real)
        def counted(*args, **kwargs):
            counter[0] += 1 if amount is None else amount(*args)
            return real(*args, **kwargs)

        self._replace(owner, attr, counted)

    def install(self) -> None:
        import summit.backend as backend
        import summit.experiment as experiment
        import summit.metrics as metrics
        import summit.session as session
        from summit.cache import ResponseCache
        from summit.prompting import PromptRegistry

        self.wrap(experiment, "run_experiment", "experiment.run_experiment")
        self.wrap(experiment, "load_corpus", "corpus.load_corpus")
        self.wrap(experiment, "sample", "corpus.sample")
        self.wrap(experiment, "run_session", "session.run_session", lambda a, r: len(r.steps))
        self.wrap(experiment, "rouge_l_multi", "metrics.rouge_l")
        self.wrap(experiment, "rouge_n_multi", "metrics.rouge_n")
        self.wrap(experiment, "topic_similarity", "metrics.topic_similarity")
        self.wrap(experiment, "write_trace", "trace_io.write_trace")
        self.wrap(session, "extract_triplets", "knowledge.extract_triplets", lambda a, r: len(r))
        self.wrap(session, "parse_feedback", "parsing.parse_feedback", lambda a, r: r.distribution_parsed)
        self.wrap(
            PromptRegistry, "render", "prompting.render", lambda a, r: len(r.system) + len(r.user)
        )
        history_chars = lambda a, r: sum(len(m.content) for m in a[1].messages)  # noqa: E731
        for cls in (backend.ScriptedBackend, backend.CachedBackend, backend.ReplayBackend):
            self.wrap(cls, "complete", "backend.complete", history_chars)
        self.wrap(backend, "cache_key", "backend.cache_key")
        self.wrap(ResponseCache, "__init__", "cache.load", lambda a, r: len(a[0]))
        self.wrap(ResponseCache, "get", "cache.get", lambda a, r: r is not None)
        self.wrap(ResponseCache, "put", "cache.put")

        for module in (metrics, session):
            self.count(module, "tokenize", self.tokenize_calls)
        self.count(metrics, "lcs_length", self.lcs_cells, lambda a, b: len(a) * len(b))
        self._replace(backend, "hashlib", _CountingHashlib(backend.hashlib, self.hashed_bytes))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, real = self._restore.pop()
            setattr(owner, attr, real)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            out[span[NAME]] += span[END] - span[START] - child_time[index]
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:VALUE]) + "\n")

    def layer_metrics(self, documents: int) -> dict[str, float]:
        """The per-layer metrics of one traced run of ``documents`` documents."""
        by_name: dict[str, list[list]] = defaultdict(list)
        for span in self.spans:
            by_name[span[NAME]].append(span)
        self_time = self.self_times()

        def total(name: str) -> float:
            return sum(span[END] - span[START] for span in by_name[name])

        def values(name: str) -> list:
            return [span[VALUE] for span in by_name[name]]

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        outer_calls = [
            span[VALUE]
            for span in by_name["backend.complete"]
            if span[PARENT] < 0 or self.spans[span[PARENT]][NAME] != "backend.complete"
        ]
        gets = values("cache.get")
        parsed = values("parsing.parse_feedback")
        return {
            "metrics.rouge_l_s": total("metrics.rouge_l"),
            "metrics.rouge_l_calls": len(by_name["metrics.rouge_l"]),
            "metrics.lcs_cells": self.lcs_cells[0],
            "metrics.rouge_n_s": total("metrics.rouge_n"),
            "metrics.tokenize_calls": self.tokenize_calls[0],
            "metrics.topic_similarity_s": total("metrics.topic_similarity"),
            "session.self_s": self_time["session.run_session"],
            "session.iterations_per_doc": ratio(sum(values("session.run_session")), documents),
            "session.history_chars_per_call": ratio(sum(outer_calls), len(outer_calls)),
            "prompting.render_calls": len(by_name["prompting.render"]),
            "prompting.render_s": total("prompting.render"),
            "prompting.rendered_chars": sum(values("prompting.render")),
            "backend.complete_calls": len(outer_calls),
            "backend.complete_self_s": self_time["backend.complete"],
            "backend.cache_key_s": total("backend.cache_key"),
            "backend.cache_key_bytes": self.hashed_bytes[0],
            "cache.load_s": total("cache.load"),
            "cache.load_records": sum(values("cache.load")),
            "cache.get_calls": len(gets),
            "cache.hit_ratio": ratio(sum(gets), len(gets)),
            "cache.put_calls": len(by_name["cache.put"]),
            "cache.put_s": total("cache.put"),
            "parsing.parse_feedback_calls": len(parsed),
            "parsing.parse_feedback_s": total("parsing.parse_feedback"),
            "parsing.distribution_parsed_ratio": ratio(sum(parsed), len(parsed)),
            "knowledge.extract_s": total("knowledge.extract_triplets"),
            "knowledge.triplets_per_doc": ratio(sum(values("knowledge.extract_triplets")), documents),
            "corpus.load_s": total("corpus.load_corpus"),
            "corpus.sample_s": total("corpus.sample"),
            "trace_io.write_s": total("trace_io.write_trace"),
            "experiment.self_s": self_time["experiment.run_experiment"],
        }
