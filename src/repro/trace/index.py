"""Per-location read/write position index over a trace.

One forward pass builds, for every location, the sorted lists of record
indices that read and write it.  Every liveness question the analyses
ask ("is this value read again before it is overwritten?", "which write
ends this corrupted interval?") becomes a :mod:`bisect` query.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

from repro.ir import opcodes as oc
from repro.trace.events import R_DLOC, R_EXTRA, R_OP, R_SLOCS

from repro.ir.function import SLOT_LIMIT

INF = 1 << 62


class TraceIndex:
    """Sorted read/write positions per location for one trace."""

    def __init__(self, records: Sequence):
        reads: dict[int, list[int]] = {}
        writes: dict[int, list[int]] = {}
        for t, rec in enumerate(records):
            op = rec[R_OP]
            for sloc in rec[R_SLOCS]:
                if sloc is not None:
                    lst = reads.get(sloc)
                    if lst is None:
                        reads[sloc] = [t]
                    else:
                        lst.append(t)
            dloc = rec[R_DLOC]
            if dloc is not None:
                lst = writes.get(dloc)
                if lst is None:
                    writes[dloc] = [t]
                else:
                    lst.append(t)
            if op == oc.CALL:
                # parameter registers of the callee frame are defined here
                uid, _callee, nargs = rec[R_EXTRA]
                rbase = -(uid * SLOT_LIMIT) - 1
                for i in range(nargs):
                    loc = rbase - i
                    lst = writes.get(loc)
                    if lst is None:
                        writes[loc] = [t]
                    else:
                        lst.append(t)
        self.reads = reads
        self.writes = writes
        self.n = len(records)

    # -- read queries ---------------------------------------------------------
    def last_read_in(self, loc: int, a: int, b: int) -> Optional[int]:
        """Last read of ``loc`` in [a, b), or None."""
        lst = self.reads.get(loc)
        if not lst:
            return None
        i = bisect.bisect_left(lst, b) - 1
        if i >= 0 and lst[i] >= a:
            return lst[i]
        return None

    def has_read_in(self, loc: int, a: int, b: int) -> bool:
        lst = self.reads.get(loc)
        if not lst:
            return False
        i = bisect.bisect_left(lst, a)
        return i < len(lst) and lst[i] < b

    def first_read_at_or_after(self, loc: int, t: int) -> int:
        lst = self.reads.get(loc)
        if not lst:
            return INF
        i = bisect.bisect_left(lst, t)
        return lst[i] if i < len(lst) else INF

    def read_count(self, loc: int) -> int:
        return len(self.reads.get(loc, ()))

    # -- write queries --------------------------------------------------------
    def next_write_at_or_after(self, loc: int, t: int) -> int:
        """Index of the first write to ``loc`` at position >= t (INF if none)."""
        lst = self.writes.get(loc)
        if not lst:
            return INF
        i = bisect.bisect_left(lst, t)
        return lst[i] if i < len(lst) else INF

    def write_count(self, loc: int) -> int:
        return len(self.writes.get(loc, ()))
