"""Input / output / internal classification of region-instance locations.

Paper Section III-A: *input variables* are declared outside the region
and referenced inside it; *output variables* are written inside and read
after it; everything else the region touches is *internal*.  At the
trace level "variables" are locations, so for an instance spanning
records [a, b):

* **inputs**    — locations read in [a, b) before any write in [a, b);
* **outputs**   — locations written in [a, b) whose last write is read
  again at or after ``b`` before being overwritten;
* **internals** — locations written in [a, b) that are not outputs.

These sets drive isolated fault injection (inject into inputs/internals
of an instance) and the Case-1/Case-2 region fault-tolerance checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.regions.model import RegionInstance
from repro.trace.columnar import NO_LOC, GoldenTrace
from repro.trace.index import INF, TraceIndex


@dataclass
class RegionIO:
    """Classified locations of one region instance, with boundary values."""

    instance: RegionInstance
    inputs: dict[int, object] = field(default_factory=dict)   # loc -> entry value
    outputs: dict[int, object] = field(default_factory=dict)  # loc -> exit value
    internals: set[int] = field(default_factory=set)
    written: set[int] = field(default_factory=set)

    def summary(self) -> str:
        return (f"{self.instance.region.name}#{self.instance.index}: "
                f"{len(self.inputs)} in / {len(self.outputs)} out / "
                f"{len(self.internals)} internal")


#: records per block of :func:`classify_io` (bounds its temporaries)
_BLOCK = 1 << 16

#: where a write's value lives: a record's ``dval``, a source slot, none
_DVAL, _SVAL, _NONE = 0, 1, 2


def _group_ends(keys: np.ndarray):
    """Stable grouping of ``keys``: ``(order, heads, tails)`` with each
    group's first and last position in ``order``."""
    order = np.argsort(keys, kind="stable")
    grouped = keys[order]
    heads = np.flatnonzero(np.concatenate(
        ([True], grouped[1:] != grouped[:-1])))[:len(grouped)]
    tails = np.append(heads[1:], len(grouped))[:len(heads)] - 1
    return order, heads, tails


def _block_writes(g, lo: int, hi: int, seq: int):
    """Each location's first and last write among records [lo, hi).

    Returns ``(locs, first_seq, first_t, last_kind, last_ref)`` and
    the block's write count; the sequence numbers count write events
    in execution order from ``seq`` (a record's own write first, then
    its CALL parameters).
    """
    dt = lo + np.flatnonzero(g.dloc[lo:hi] != NO_LOC)
    ct, slot, ploc = g.param_writes(lo, hi)
    order = np.argsort(np.concatenate((dt, ct)), kind="stable")
    loc = np.concatenate((g.dloc[dt], ploc))[order]
    time = np.concatenate((dt, ct))[order]
    # the value source of every event: dval, a parameter's source
    # slot, or none (a parameter beyond the CALL's sources)
    in_slots = slot < g.soff[ct + 1] - g.soff[ct]
    kind = np.concatenate((np.full(len(dt), _DVAL),
                           np.where(in_slots, _SVAL, _NONE)))[order]
    ref = np.concatenate((dt, g.soff[ct] + slot))[order]
    by_loc, heads, tails = _group_ends(loc)
    first, last = by_loc[heads], by_loc[tails]
    return (loc[first], seq + first, time[first], kind[last],
            ref[last]), len(loc)


def classify_io(g: GoldenTrace, index: TraceIndex,
                instance: RegionInstance) -> RegionIO:
    """Classify locations for one instance (see module docstring).

    Works on the golden trace's columns, a block of records at a
    time.  Reads happen before a record's own writes, and a CALL
    writes its destination (the callee's slot 0, value ``None``) and
    then each parameter ``i`` with ``svals[i]``.  ``inputs`` keep the
    order of their first reads and ``written`` the order of first
    writes, so every dict and set below is built in the order a
    record-by-record scan would build it.
    """
    a, b = instance.start, instance.end
    io = RegionIO(instance)

    # -- writes: per block, then the earliest block's first write and
    #    the latest block's last write of every location
    blocks = []
    seq = 0
    for lo in range(a, b, _BLOCK):
        summary, count = _block_writes(g, lo, min(b, lo + _BLOCK), seq)
        blocks.append(summary)
        seq += count
    cols = [np.concatenate(c) for c in zip(*blocks)] if blocks else \
        [np.zeros(0, dtype=np.int64)] * 5
    by_loc, heads, tails = _group_ends(cols[0])
    locs = cols[0][by_loc[heads]]
    first_seq, first_t = cols[1][by_loc[heads]], cols[2][by_loc[heads]]
    kind, ref = cols[3][by_loc[tails]], cols[4][by_loc[tails]]
    del blocks, cols, by_loc
    values = np.empty(len(locs), dtype=object)
    for k, decode in ((_DVAL, g.dvals_at), (_SVAL, g.svals_at)):
        m = kind == k
        values[m] = decode(ref[m])
    last_val = dict(zip(locs.tolist(), values.tolist()))
    written = set(locs[np.argsort(first_seq)].tolist())

    # -- inputs: read no later than their first write in [a, b)
    found = []
    for lo in range(a, b, _BLOCK):
        hi = min(b, lo + _BLOCK)
        s0, s1 = int(g.soff[lo]), int(g.soff[hi])
        sl = g.sloc[s0:s1]
        slot_t = np.repeat(np.arange(lo, hi), np.diff(g.soff[lo:hi + 1]))
        fw = np.full(len(sl), INF, dtype=np.int64)
        if len(locs):
            w = np.minimum(np.searchsorted(locs, sl), len(locs) - 1)
            hit = locs[w] == sl
            fw[hit] = first_t[w[hit]]
        found.append(s0 + np.flatnonzero((sl != NO_LOC) & (slot_t <= fw)))
    k = np.concatenate(found) if found else np.zeros(0, dtype=np.int64)
    _, first_read = np.unique(g.sloc[k], return_index=True)
    k = k[np.sort(first_read)]
    io.inputs.update(zip(g.sloc[k].tolist(), g.svals_at(k)))

    # -- outputs: read at or after b before the next write
    io.written = written
    wlist = list(written)
    if wlist:
        out = index.first_read_at_or_after_many(wlist, b) < \
            index.next_write_at_or_after_many(wlist, b)
        for loc, is_out in zip(wlist, out.tolist()):
            if is_out:
                io.outputs[loc] = last_val[loc]
            else:
                io.internals.add(loc)
    return io


def location_width(module, loc: int, value) -> int:
    """Bit width for injections into ``loc`` holding ``value``.

    Memory locations take the declared element width of the global they
    belong to (i32 arrays -> 32); registers and stack words default to
    the value's natural width (binary64 for floats, 64 for ints).
    """
    if loc >= 0:
        info = module.addr_info(loc)
        if info is not None:
            _name, vtype, _idx = info
            if vtype.is_int:
                return vtype.bits
    return 64
