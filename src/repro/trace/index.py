"""Per-location read/write position index over a trace.

For every location, the sorted record indices that read and write it,
stored as CSR arrays: the sorted distinct locations, int64 row offsets
and int32 positions.  The build is a handful of array passes over the
columns of a :class:`~repro.trace.columnar.GoldenTrace`.  Every
liveness question the analyses ask ("is this value read again before
it is overwritten?", "which write ends this corrupted interval?") is a
binary search inside one row; the ``*_many`` queries answer it for an
array of locations at once.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from typing import Optional

import numpy as np

from repro.trace.columnar import NO_LOC, GoldenTrace

INF = 1 << 62


class LocPositions(Mapping):
    """``loc -> sorted positions`` as CSR arrays (a read-only mapping
    whose values are lists)."""

    def __init__(self, locs: np.ndarray, pos: np.ndarray, n: int,
                 flags: Optional[np.ndarray] = None):
        order = np.argsort(locs, kind="stable")
        self.pos = pos[order].astype(np.int32, copy=False)
        del pos
        #: a per-position payload, permuted alongside
        self.flags = flags[order] if flags is not None else None
        locs = locs[order]
        del order
        brk = np.flatnonzero(locs[1:] != locs[:-1]) + 1
        self.keys = locs[np.concatenate(([0], brk))] if len(locs) \
            else locs
        self.off = np.concatenate(([0], brk, [len(locs)])).astype(np.int64) \
            if len(locs) else np.zeros(1, dtype=np.int64)
        self.n = n
        #: memoryviews of ``keys``, ``off`` and ``pos``, made on the
        #: first :meth:`between`
        self._views: Optional[tuple[memoryview, memoryview,
                                    memoryview]] = None

    def row(self, loc: int) -> int:
        """Row of ``loc``, or -1 when it has no positions."""
        i = int(self.keys.searchsorted(loc))
        return i if i < len(self.keys) and self.keys[i] == loc else -1

    def positions(self, loc: int) -> np.ndarray:
        """The sorted positions of ``loc`` (an empty array if none)."""
        r = self.row(loc)
        if r < 0:
            return self.pos[:0]
        return self.pos[self.off[r]:self.off[r + 1]]

    def between(self, loc: int, a: int, b: int) -> list:
        """The positions of ``loc`` in ``[a, b)``: a binary search in the
        location's row over memoryviews, which ``bisect`` reads at a
        fraction of the cost of a numpy call per lookup."""
        if self._views is None:
            self._views = (memoryview(self.keys), memoryview(self.off),
                           memoryview(self.pos))
        keys, off, pos = self._views
        r = bisect_left(keys, loc)
        if r == len(keys) or keys[r] != loc:
            return []
        lo, hi = off[r], off[r + 1]
        return pos[bisect_left(pos, a, lo, hi):
                   bisect_left(pos, b, lo, hi)].tolist()

    def __getitem__(self, loc: int) -> list:
        r = self.row(loc)
        if r < 0:
            raise KeyError(loc)
        return self.pos[self.off[r]:self.off[r + 1]].tolist()

    def __iter__(self):
        return iter(self.keys.tolist())

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, loc) -> bool:
        return self.row(loc) >= 0

    def first_at_or_after_many(self, locs, t) -> np.ndarray:
        """First position ``>= t`` of each location (:data:`INF` if none);
        ``t`` is a scalar or one bound per location.

        A vectorized bisection inside each location's row: one step
        halves every row's interval at once.
        """
        locs = np.asarray(locs, dtype=np.int64)
        out = np.full(len(locs), INF, dtype=np.int64)
        if not len(self.keys) or not len(locs):
            return out
        r = np.minimum(self.keys.searchsorted(locs), len(self.keys) - 1)
        found = self.keys[r] == locs
        lo = self.off[r]
        hi = np.where(found, self.off[r + 1], lo)
        t = np.broadcast_to(t, lo.shape)
        while True:
            open_ = lo < hi
            if not open_.any():
                break
            mid = (lo + hi) >> 1
            below = open_ & (self.pos[np.minimum(mid, len(self.pos) - 1)] < t)
            lo = np.where(below, mid + 1, lo)
            hi = np.where(open_ & ~below, mid, hi)
        ok = found & (lo < self.off[r + 1])
        out[ok] = self.pos[lo[ok]]
        return out


class TraceIndex:
    """Sorted read/write positions per location for one trace.

    ``reads`` and ``writes`` map each location to its sorted record
    indices.  A CALL writes its callee's parameter registers as well
    as its own destination (the callee's slot 0, so that slot lists the
    CALL twice); ``writes.flags`` marks the write positions that are a
    record's own destination.
    """

    def __init__(self, g: GoldenTrace):
        n = len(g)
        read = g.sloc != NO_LOC
        self.reads = LocPositions(
            g.sloc[read],
            np.repeat(np.arange(n, dtype=np.int32), np.diff(g.soff))[read],
            n)
        del read

        dt = np.flatnonzero(g.dloc != NO_LOC)
        ct, _slot, ploc = g.param_writes(0, n)
        wt = np.concatenate((dt, ct)).astype(np.int32)
        wl = np.concatenate((g.dloc[dt], ploc))
        is_def = np.concatenate((np.ones(len(dt), dtype=bool),
                                 np.zeros(len(ct), dtype=bool)))
        del dt, ct, ploc
        by_time = np.argsort(wt, kind="stable")
        self.writes = LocPositions(wl[by_time], wt[by_time], n,
                                   is_def[by_time])
        self.n = n
        #: ``writes`` restricted to the flagged defs: the row keys, row
        #: offsets and positions, built on the first
        #: :meth:`last_def_before`
        self._defs: Optional[tuple[memoryview, memoryview,
                                   memoryview]] = None

    # -- read queries ---------------------------------------------------------
    def last_read_in(self, loc: int, a: int, b: int) -> Optional[int]:
        """Last read of ``loc`` in [a, b), or None."""
        lst = self.reads.positions(loc)
        i = int(lst.searchsorted(b)) - 1
        if i >= 0 and lst[i] >= a:
            return int(lst[i])
        return None

    def has_read_in(self, loc: int, a: int, b: int) -> bool:
        lst = self.reads.positions(loc)
        i = int(lst.searchsorted(a))
        return i < len(lst) and lst[i] < b

    def first_read_at_or_after(self, loc: int, t: int) -> int:
        lst = self.reads.positions(loc)
        i = int(lst.searchsorted(t))
        return int(lst[i]) if i < len(lst) else INF

    def read_count(self, loc: int) -> int:
        return len(self.reads.positions(loc))

    # -- write queries --------------------------------------------------------
    def next_write_at_or_after(self, loc: int, t: int) -> int:
        """Index of the first write to ``loc`` at position >= t (INF if none)."""
        lst = self.writes.positions(loc)
        i = int(lst.searchsorted(t))
        return int(lst[i]) if i < len(lst) else INF

    def write_count(self, loc: int) -> int:
        return len(self.writes.positions(loc))

    def last_def_before(self, loc: int, t: int) -> int:
        """Last record before ``t`` whose own destination is ``loc``
        (CALL-parameter writes excluded), or -1: a binary search in the
        location's row of defs."""
        if self._defs is None:
            flags = self.writes.flags
            before = np.zeros(len(flags) + 1, dtype=np.int64)
            np.cumsum(flags, out=before[1:])
            # memoryviews: bisect reads them at a fraction of the cost
            # of a numpy call per lookup
            self._defs = (memoryview(self.writes.keys),
                          memoryview(before[self.writes.off]),
                          memoryview(self.writes.pos[flags]))
        keys, off, pos = self._defs
        r = bisect_left(keys, loc)
        if r == len(keys) or keys[r] != loc:
            return -1
        lo = off[r]
        i = bisect_left(pos, t, lo, off[r + 1])
        return pos[i - 1] if i > lo else -1

    # -- batched queries ------------------------------------------------------
    def first_read_at_or_after_many(self, locs, t) -> np.ndarray:
        return self.reads.first_at_or_after_many(locs, t)

    def next_write_at_or_after_many(self, locs, t) -> np.ndarray:
        return self.writes.first_at_or_after_many(locs, t)
