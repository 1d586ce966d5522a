"""Content-addressed response cache with an append-only file format.

File layout: one header line ``{"schema": "summit/cache", "version": 1}``
followed by one JSON record per line: ``{"key", "request", "response"}``.
The whole file is loaded at startup (last record wins per key) and every
write is appended and flushed immediately, so a cache file doubles as a
replay log for an entire experiment.

A record's ``response`` is ``{"text", "usage": {"prompt_tokens",
"completion_tokens"}}``; this module alone reads and writes that shape. In
memory each key keeps one ``CompletionResponse`` served from ``CACHE``, and
``get`` returns that very object. A reply is checked once, where it enters:
a loaded record by ``_load``, which skips one of the wrong shape, a live
reply when its body is parsed and a scripted one when its script is loaded.
So ``put`` parses nothing.

A writer holds one append handle, with an exclusive lock on the file, from
``claim()`` or its first write until ``close()``; a second writer is
refused rather than left to interleave lines. Reading takes no lock.
"""

from __future__ import annotations

import fcntl
import os
import threading
from pathlib import Path
from typing import TextIO

from .errors import ConfigError, json_line, open_for_writing, read_json_lines
from .types import CompletionResponse, ServedFrom, token_counts

CACHE_HEADER = {"schema": "summit/cache", "version": 1}


class ResponseCache:
    """In-memory key -> reply map, persisted append-only when given a path."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._entries: dict[str, CompletionResponse] = {}
        self._fh: TextIO | None = None
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        def skip(lineno: int, problem: str | None = None) -> None:
            # A torn tail record from an interrupted run, or a record of the
            # wrong shape; an earlier good one for its key stays.
            import logging  # here, so that a run that logs nothing does not pay for importing it

            logging.getLogger(__name__).warning("skipping malformed cache record at %s:%d", self.path, lineno)

        cached = ServedFrom.CACHE  # an enum member costs an attribute lookup each time it is named
        for lineno, record in read_json_lines(self.path, CACHE_HEADER, on_error=skip):
            try:
                key, response = record["key"], record["response"]
                text = response["text"]
                prompt, completion = token_counts(response.get("usage"))
                if type(key) is not str or type(text) is not str:
                    raise ValueError("key or text is not a string")
                self._entries[key] = CompletionResponse(text, prompt, completion, cached)
            except (ValueError, KeyError, TypeError, AttributeError):
                skip(lineno)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> CompletionResponse | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, request_summary: dict, response: CompletionResponse) -> None:
        """Append the record ``{key, request, response: {text, usage}}`` and
        keep ``response``, as served from the cache."""
        usage = {"prompt_tokens": response.prompt_tokens, "completion_tokens": response.completion_tokens}
        record = {"key": key, "request": request_summary, "response": {"text": response.text, "usage": usage}}
        with self._lock:
            if self.path is not None:
                if self._fh is None:
                    self._fh = self._open_for_append()
                self._fh.write(json_line(record))
                self._fh.flush()
            self._entries[key] = response._replace(served_from=ServedFrom.CACHE)

    def claim(self) -> None:
        """Take the append handle and its lock now rather than at the first
        put, so a file another writer holds is refused (ConfigError) before
        any work is done that the cache could not keep."""
        with self._lock:
            if self.path is not None and self._fh is None:
                self._fh = self._open_for_append()

    def _open_for_append(self) -> TextIO:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open_for_writing(self.path, "a")
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            fh.close()
            raise ConfigError(f"cache file {self.path} is being written by another run") from None
        # At the end of a new or empty file the position is 0.
        if fh.seek(0, os.SEEK_END) == 0:
            fh.write(json_line(CACHE_HEADER))
        return fh

    def close(self) -> None:
        """Close the append handle, releasing the file lock; a later put reopens it."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
