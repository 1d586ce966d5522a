"""Content-addressed response cache with an append-only file format.

File layout: one header line ``{"schema": "summit/cache", "version": 1}``
followed by one JSON record per line: ``{"key", "request", "response"}``.
The whole file is loaded at startup (last record wins per key) and every
write is appended and flushed immediately, so a cache file doubles as a
replay log for an entire experiment. A writer holds one append handle, with
an exclusive lock on the file, from its first write until ``close()``; a
second writer is refused rather than left to interleave lines. Reading
takes no lock.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import threading
from pathlib import Path
from typing import TextIO

from .errors import ConfigError

log = logging.getLogger(__name__)

CACHE_SCHEMA = "summit/cache"
CACHE_VERSION = 1


class ResponseCache:
    """In-memory key -> response map, persisted append-only when given a path."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self._fh: TextIO | None = None
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        with self.path.open("r", encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                return
            meta = json.loads(header)
            if meta.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"not a cache file: {self.path}")
            if meta.get("version") != CACHE_VERSION:
                raise ValueError(f"unsupported cache version {meta.get('version')!r}")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    self._entries[record["key"]] = record["response"]
                except (ValueError, KeyError):
                    # Tolerate a torn tail record from an interrupted run.
                    log.warning("skipping malformed cache record at %s:%d", self.path, lineno)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> dict | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, request_summary: dict, response: dict) -> None:
        with self._lock:
            if self.path is not None:
                if self._fh is None:
                    self._fh = self._open_for_append()
                self._fh.write(
                    json.dumps(
                        {"key": key, "request": request_summary, "response": response},
                        ensure_ascii=False,
                    )
                    + "\n"
                )
                self._fh.flush()
            self._entries[key] = response

    def _open_for_append(self) -> TextIO:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = self.path.open("a", encoding="utf-8")
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            fh.close()
            raise ConfigError(f"cache file {self.path} is being written by another run") from None
        # At the end of a new or empty file the position is 0.
        if fh.seek(0, os.SEEK_END) == 0:
            fh.write(json.dumps({"schema": CACHE_SCHEMA, "version": CACHE_VERSION}) + "\n")
        return fh

    def close(self) -> None:
        """Close the append handle, releasing the file lock; a later put reopens it."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
