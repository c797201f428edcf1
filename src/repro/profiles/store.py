"""The persistent cross-experiment profile store.

A :class:`ResultStore` is a content-addressed map from
:func:`~repro.profiles.profile.profile_key` to encoded
:class:`~repro.profiles.profile.RegionProfile` payloads, shared
*between* experiments (and between the service daemon's jobs): the
:class:`~repro.engine.cache.PlanCache` remembers individual plan
results within one cache directory and program build, the store
remembers whole per-region campaign outcomes across builds.

Layout under ``store_dir``:

``profiles.jsonl``
    Append-only records ``{"v": STORE_VERSION, "key": ..., "profile":
    {...}}``, one atomic O_APPEND write per record
    (:func:`repro.engine.cache.jsonl_append`), so concurrent writers
    interleave whole lines and a crashed writer leaves at most one
    torn final line — which is ignored on reopen.
``index.json``
    An atomically-replaced (write-temp + rename) snapshot ``{"v",
    "offset", "profiles"}``: the decoded map plus the byte offset it
    covers.  Reopening loads the snapshot and replays only the JSONL
    tail past ``offset``, so open cost is O(new records), not O(store).
    A missing/stale/corrupt snapshot degrades to a full replay.

Consistency rules:

* keys are **write-once**: re-putting an identical payload is an
  idempotent no-op; a *different* payload for an existing key raises
  :class:`StoreCollisionError` (the caller decides whether that is a
  fatal fingerprint collision or a concurrent-writer race to tolerate);
* on load, the **first** record for a key wins and later conflicting
  records only bump :attr:`ResultStore.conflicts` — so two interleaved
  writers always yield a readable, deterministic store.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Optional

from repro.engine.cache import jsonl_append, jsonl_open_append, jsonl_records

__all__ = ["STORE_NAME", "INDEX_NAME", "STORE_VERSION", "ResultStore",
           "StoreCollisionError"]

STORE_NAME = "profiles.jsonl"
INDEX_NAME = "index.json"

#: bump when the record encoding changes; mismatched lines are ignored
STORE_VERSION = 1


class StoreCollisionError(ValueError):
    """An existing key was re-put with a different payload."""


class ResultStore:
    """Append-only, content-addressed profile store under ``store_dir``."""

    def __init__(self, store_dir: str):
        os.makedirs(store_dir, exist_ok=True)
        self.store_dir = store_dir
        self.path = os.path.join(store_dir, STORE_NAME)
        self.index_path = os.path.join(store_dir, INDEX_NAME)
        self._mem: dict[str, dict] = {}
        self._fd: Optional[int] = None
        #: byte offset of ``profiles.jsonl`` covered by ``_mem``
        self._offset = 0
        self.loaded = 0        #: records adopted at construction
        self.conflicts = 0     #: later records that lost first-wins
        self.puts = 0          #: fresh records appended by this handle
        self._load()

    # ------------------------------------------------------------ access
    def get(self, key: str) -> Optional[dict]:
        """The stored profile payload for ``key``, or ``None``."""
        return self._mem.get(key)

    def put(self, key: str, profile: dict) -> bool:
        """Record one profile; returns True when actually appended.

        Re-putting the identical payload is a no-op (False); a
        different payload for a live key raises
        :class:`StoreCollisionError` without touching the file.
        """
        existing = self._mem.get(key)
        if existing is not None:
            if existing == profile:
                return False
            raise StoreCollisionError(
                f"key {key[:16]}… already maps to a different profile "
                f"(region {existing.get('region')!r} of "
                f"{existing.get('app')!r})")
        if self._fd is None:
            self._fd = jsonl_open_append(self.path)
        jsonl_append(self._fd, {"v": STORE_VERSION, "key": key,
                                "profile": profile})
        self._mem[key] = profile
        self.puts += 1
        return True

    def __contains__(self, key: str) -> bool:
        return key in self._mem

    def __len__(self) -> int:
        return len(self._mem)

    def keys(self) -> Iterator[str]:
        return iter(self._mem)

    def stats(self) -> dict:
        return {"entries": len(self._mem), "loaded": self.loaded,
                "puts": self.puts, "conflicts": self.conflicts,
                "path": self.path}

    # ------------------------------------------------------------ open/close
    def _adopt(self, key, payload) -> None:
        if not isinstance(key, str) or not isinstance(payload, dict):
            return
        if key in self._mem:
            if self._mem[key] != payload:
                self.conflicts += 1
            return
        self._mem[key] = payload
        self.loaded += 1

    def _load(self) -> None:
        start = 0
        snapshot = self._read_snapshot()
        if snapshot is not None:
            for key, payload in snapshot["profiles"].items():
                self._adopt(key, payload)
            start = snapshot["offset"]
        self._offset = start
        if not os.path.exists(self.path):
            return
        for record, end in jsonl_records(self.path, start=start):
            if record.get("v") != STORE_VERSION:
                self._offset = end
                continue
            self._adopt(record.get("key"), record.get("profile"))
            self._offset = end

    def _read_snapshot(self) -> Optional[dict]:
        try:
            with open(self.index_path) as fh:
                snapshot = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(snapshot, dict) \
                or snapshot.get("v") != STORE_VERSION \
                or not isinstance(snapshot.get("profiles"), dict) \
                or not isinstance(snapshot.get("offset"), int):
            return None
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        if snapshot["offset"] > size:
            return None    # JSONL was truncated/replaced; full replay
        return snapshot

    def flush(self) -> None:
        """fsync the JSONL and atomically refresh the snapshot.

        Self-healing against concurrent compaction: if another handle
        :meth:`compact`-ed the store since we opened our O_APPEND
        descriptor, that descriptor points at the *orphaned* inode —
        everything it wrote since the replace is invisible to readers.
        The inode comparison detects this and re-attaches: rescan the
        live file from 0, then re-append any records only this handle
        knows about.
        """
        if self._fd is not None:
            os.fsync(self._fd)
            try:
                attached = os.fstat(self._fd).st_ino \
                    == os.stat(self.path).st_ino
            except OSError:
                attached = False
            if not attached:
                self._reattach()
        else:
            try:
                size = os.path.getsize(self.path)
            except OSError:
                size = 0
            if size < self._offset:
                # the file was compacted/replaced under a read-only
                # handle; its offset no longer addresses this inode
                self._offset = 0
        # catch up on records other writers appended since we loaded,
        # so the snapshot offset is safe to skip to for every reader
        if os.path.exists(self.path):
            for record, end in jsonl_records(self.path,
                                             start=self._offset):
                if record.get("v") == STORE_VERSION:
                    self._adopt(record.get("key"), record.get("profile"))
                self._offset = end
        self._write_snapshot()

    def _write_snapshot(self) -> None:
        """Atomically replace ``index.json`` with the in-memory map."""
        tmp = self.index_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"v": STORE_VERSION, "offset": self._offset,
                       "profiles": self._mem}, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.index_path)

    def _reattach(self) -> None:
        """Recover after the JSONL was replaced under our descriptor."""
        os.close(self._fd)
        self._fd = None
        self._offset = 0
        on_disk: set[str] = set()
        if os.path.exists(self.path):
            for record, end in jsonl_records(self.path, start=0):
                if record.get("v") == STORE_VERSION:
                    self._adopt(record.get("key"),
                                record.get("profile"))
                    on_disk.add(record.get("key"))
                self._offset = end
        # records only this handle holds (appended to the orphaned
        # inode, or adopted before the compaction dropped them) go back
        missing = [key for key in self._mem if key not in on_disk]
        if missing:
            self._fd = jsonl_open_append(self.path)
            for key in missing:
                jsonl_append(self._fd, {"v": STORE_VERSION, "key": key,
                                        "profile": self._mem[key]})
            os.fsync(self._fd)

    def compact(self) -> dict:
        """Rewrite ``profiles.jsonl`` keeping only live keys.

        Duplicate lines (concurrent writers racing the same key,
        conflicting losers of first-wins, stale-version records) are
        dropped; the result holds exactly one record per key in
        ``index.json``/memory, in sorted key order, swapped in with an
        atomic replace.  Safe alongside concurrent writers: their
        O_APPEND descriptors end up on the orphaned inode, which their
        next :meth:`flush` detects and repairs (see there).  Returns
        ``{"records", "bytes", "reclaimed"}``.
        """
        self.flush()
        try:
            old_size = os.path.getsize(self.path)
        except OSError:
            old_size = 0
        tmp = self.path + ".tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            for key in sorted(self._mem):
                jsonl_append(fd, {"v": STORE_VERSION, "key": key,
                                  "profile": self._mem[key]})
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, self.path)
        if self._fd is not None:
            # our own append descriptor now points at the orphan too
            os.close(self._fd)
            self._fd = None
        self._offset = os.path.getsize(self.path)
        self._write_snapshot()
        return {"records": len(self._mem), "bytes": self._offset,
                "reclaimed": max(0, old_size - self._offset)}

    def close(self) -> None:
        if self._fd is not None:
            self.flush()
            # flush() may already have dropped the descriptor while
            # re-attaching after a concurrent compaction
            if self._fd is not None:
                os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({len(self._mem)} profiles @ "
                f"{self.store_dir}, +{self.puts} this handle)")
