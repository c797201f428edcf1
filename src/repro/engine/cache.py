"""Plan-result cache: in-memory map plus optional JSON-lines spill.

The cache maps content-addressed plan keys (:mod:`repro.engine.keys`)
to manifestation values (``"success"``/``"failed"``/``"crashed"``).
With a ``cache_dir`` every store is appended to
``<cache_dir>/plan_results.jsonl`` as it happens, which makes the file
double as a campaign checkpoint: a killed campaign that already
finished some shards resumes by replaying the file and skipping every
recorded plan.  Appending line-by-line keeps partial files valid —
a truncated final line (crash mid-write) is simply dropped on load,
and the next writer terminates it before its first append.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Optional

from repro.engine.keys import KEY_VERSION

SPILL_NAME = "plan_results.jsonl"


# ---------------------------------------------------------------- JSONL
# Shared append-only JSONL primitives (used by PlanCache, the
# cross-experiment ResultStore in :mod:`repro.profiles.store` and the
# service JobQueue in :mod:`repro.service.queue`).

def jsonl_open_append(path: str) -> int:
    """O_APPEND fd for ``path`` (created if missing), torn tail repaired.

    POSIX guarantees each ``os.write`` on an O_APPEND fd lands as one
    atomic append, so concurrent writers interleave whole lines rather
    than shearing each other's records — a plain buffered ``open(path,
    "a")`` only promises that for writes that fit the stdio buffer.

    A writer killed mid-append can leave the file without a final
    newline; appending straight after it would concatenate the next
    record onto the torn fragment and lose *both* lines.  One newline
    quarantines the fragment as an (ignored) invalid line.
    """
    fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_RDWR, 0o644)
    size = os.fstat(fd).st_size
    if size and os.pread(fd, 1, size - 1) != b"\n":
        os.write(fd, b"\n")
    return fd


def jsonl_append(fd: int, record: dict) -> None:
    """Append one record as a single atomic write (line + newline)."""
    line = json.dumps(record, sort_keys=True) + "\n"
    os.write(fd, line.encode())


def jsonl_records(path: str, start: int = 0
                  ) -> Iterator[tuple[dict, int]]:
    """Yield ``(record, end_offset)`` per valid line from ``start``.

    ``end_offset`` is the byte offset just past the record's newline —
    a resume cursor.  Invalid JSON lines (a torn final line of a
    crashed writer) and blank lines are skipped without advancing past
    anything unreadable *silently*: a torn line mid-file is simply not
    yielded, but scanning continues at the next newline.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        offset = start
        for raw in fh:
            offset += len(raw)
            if not raw.endswith(b"\n"):
                break  # torn final line (no newline yet) — ignore
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue
            if isinstance(record, dict):
                yield record, offset


class PlanCache:
    """Content-addressed plan→manifestation store.

    Parameters
    ----------
    cache_dir:
        Directory for the JSONL spill file.  ``None`` keeps the cache
        purely in-memory (still shared across campaigns of one engine).
    resume:
        Load pre-existing spill entries at construction.  ``False``
        starts from an empty view but still appends new results, so a
        later run *can* resume from them.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 resume: bool = True):
        self._mem: dict[str, str] = {}
        self._fd: Optional[int] = None
        self.cache_dir = cache_dir
        self.path: Optional[str] = None
        self.hits = 0
        self.misses = 0
        self.loaded = 0
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            self.path = os.path.join(cache_dir, SPILL_NAME)
            if resume and os.path.exists(self.path):
                self.loaded = self._load(self.path)

    # ------------------------------------------------------------ access
    def get(self, key: str) -> Optional[str]:
        """Manifestation value for ``key`` or ``None`` (counts hit/miss)."""
        value = self._mem.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: str, value: str, meta: Optional[dict] = None) -> None:
        """Record one result; spills immediately when disk-backed.

        A key overwritten with a *different* value (the ``resume=False``
        re-run path) is re-appended so ``_load``'s last-wins replay sees
        the new result; re-putting the same value stays spill-free.

        Each record is one atomic O_APPEND write, so concurrent
        processes spilling into the same cache directory interleave
        whole lines (see :func:`jsonl_append`).
        """
        changed = self._mem.get(key) != value
        self._mem[key] = value
        if changed and self.path is not None:
            record = {"v": KEY_VERSION, "key": key, "m": value}
            if meta:
                record.update(meta)
            if self._fd is None:
                self._fd = jsonl_open_append(self.path)
            jsonl_append(self._fd, record)

    def __contains__(self, key: str) -> bool:
        return key in self._mem

    def __len__(self) -> int:
        return len(self._mem)

    # ------------------------------------------------------------ spill
    def _load(self, path: str) -> int:
        loaded = 0
        for record, _offset in jsonl_records(path):
            if record.get("v") != KEY_VERSION:
                continue
            key, value = record.get("key"), record.get("m")
            if isinstance(key, str) and isinstance(value, str):
                # last-wins: a re-executed result (resume=False rerun)
                # appended later must shadow the stale earlier line
                self._mem[key] = value
                loaded += 1
        return loaded

    def flush(self) -> None:
        if self._fd is not None:
            os.fsync(self._fd)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def stats(self) -> dict:
        return {"entries": len(self._mem), "hits": self.hits,
                "misses": self.misses, "loaded": self.loaded,
                "path": self.path}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.path or "memory"
        return (f"PlanCache({len(self._mem)} entries @ {where}, "
                f"hits={self.hits} misses={self.misses})")
