"""Alive Corrupted Locations (ACL) tracking — paper Section III-C.

Given a faulty trace and its matching fault-free trace, this pass
reconstructs, after every dynamic instruction, the set of locations that
are (a) *corrupted* — hold a value different from the fault-free run —
and (b) *alive* — will still be referenced.  The per-instruction count
of such locations is the curve plotted in the paper's Fig. 3 (toy) and
Fig. 7 (LULESH), and the *death events* (the instructions at which
corrupted locations stop being alive-corrupted) are the candidate
members of resilience computation patterns (Section III-D).

Corruption detection is **hybrid**:

* while the faulty run's control path still matches the fault-free run
  (instruction streams aligned), corruption is decided by *bit-exact
  value comparison* — this is what lets masking operations (a shift
  that drops the flipped bit, a multiply by zero, a comparison that
  lands on the same side) visibly *end* a corrupted lineage;
* after the first control-flow divergence, value alignment is
  meaningless, and the pass degrades to classic taint propagation
  (conservative over-approximation), recording the divergence point.

The value-aligned window is walked **by events**.  Only the records
whose golden side reads or writes a *watched* location (every location
born so far, never dropped), the injection record and the RETs while
something is corrupted are visited.  Any other record runs the same
static instruction as golden on sources whose values equal golden's,
so it writes golden's value to golden's destination: it cannot birth,
kill, mask or read anything corrupted, and skipping it changes no
field of the result (:func:`build_acl` states the rule in full).  The
same pass hands Repeated Additions its accumulator updates, which are
events too.

Death causes (consumed by the pattern detectors):

=============  ==========================================================
``overwrite``  clean value from clean sources replaced the corrupted one
               (Pattern 6, Data Overwriting)
``masked``     an operation *with corrupted inputs* produced the correct
               value (Shifting / Truncation / Conditional-Statement /
               arithmetic masking — detectors refine by opcode)
``free``       the frame or stack block holding the location was
               released (DCL evidence; dominant in KMEANS ``k_d``)
``dead``       the corrupted value is never referenced again
               (DCL evidence)
``end``        still alive-corrupted when the program finished
=============  ==========================================================
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, islice
from typing import Optional

import numpy as np

from repro.ir import opcodes as oc
from repro.ir.function import SLOT_LIMIT
from repro.trace.columnar import GoldenTrace, decode_locs
from repro.trace.events import R_DLOC, R_DVAL, R_EXTRA, R_SLOCS, R_SVALS, Trace
from repro.trace.index import TraceIndex


def same_value(a, b) -> bool:
    """Bit-meaningful equality: NaNs compare equal to each other."""
    if a == b:
        # guard against 0.0 == -0.0 (different bit patterns, same math)
        return True
    return a != a and b != b  # both NaN


@dataclass
class DeathEvent:
    """A corrupted location stopped being alive at record ``time``."""

    loc: int
    time: int
    cause: str   # overwrite | masked | free | dead | end
    op: int = -1
    line: int = 0
    fn: int = -1
    pc: int = -1
    birth: int = 0
    #: read at some record in [birth, time] (the birth record included)
    read: bool = False

    def __str__(self) -> str:
        opn = oc.op_name(self.op) if self.op >= 0 else "-"
        return (f"loc {self.loc} died at t={self.time} ({self.cause}, "
                f"{opn}, line {self.line})")


@dataclass
class MaskEvent:
    """An operation consumed corrupted input yet produced a correct value.

    These are the signatures the Shifting / Truncation / Conditional
    Statement detectors classify by opcode (only observable while the
    faulty run is still value-aligned with the fault-free run).
    """

    time: int
    op: int
    line: int
    fn: int
    pc: int


@dataclass
class ACLResult:
    """Output of :func:`build_acl`."""

    counts: np.ndarray                 # counts[t] = alive corrupted after record t
    births: list[tuple[int, int]]      # (loc, time)
    deaths: list[DeathEvent]
    divergence: Optional[int]          # first control-divergence index, if any
    corrupted_at_end: set[int]
    injected_loc: Optional[int] = None
    intervals: list[tuple[int, int, int]] = field(default_factory=list)
    # (loc, birth, death) alive spans, death exclusive
    maskings: list[MaskEvent] = field(default_factory=list)
    #: first record of the pass: the faulty trace equals the golden
    #: one before it, and no birth precedes it
    start: int = 0
    #: end of the control-aligned prefix: the divergence, else the
    #: shorter trace's length
    aligned: int = 0
    #: loc -> the accumulator updates of ``loc`` in ``[start, aligned)``
    #: at or after its first birth (what Repeated Additions reads)
    updates: dict[int, list[int]] = field(default_factory=dict)
    #: loc -> (sorted births, running max of deaths), built on first use
    _spans: Optional[dict] = field(default=None, init=False, repr=False,
                                   compare=False)

    @property
    def peak(self) -> int:
        return int(self.counts.max()) if len(self.counts) else 0

    def deaths_by_cause(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for d in self.deaths:
            out[d.cause] = out.get(d.cause, 0) + 1
        return out

    def corrupted_at(self, loc: int, t: int) -> bool:
        """Was ``loc`` alive-corrupted after record ``t``?

        Some interval of ``loc`` with ``birth <= t`` must reach past
        ``t``: one bisect over the location's births, then the largest
        death among those intervals.
        """
        if self._spans is None:
            self._spans = {}
            for iloc, b, d in sorted(self.intervals):
                births, reach = self._spans.setdefault(iloc, ([], []))
                births.append(b)
                reach.append(max(d, reach[-1]) if reach else d)
        births, reach = self._spans.get(loc, ((), ()))
        i = bisect_right(births, t)
        return i > 0 and reach[i - 1] > t


def _frame_locs(corrupted: dict, dead_uid: int, stack_lo: int,
                stack_hi: int) -> list[int]:
    """Corrupted locations released when a frame dies."""
    rb_hi = -(dead_uid * SLOT_LIMIT) - 1          # slot 0 (largest loc value)
    rb_lo = rb_hi - SLOT_LIMIT + 1                # last slot
    out = []
    for loc in corrupted:
        if loc >= 0:
            if stack_lo <= loc < stack_hi:
                out.append(loc)
        elif rb_lo <= loc <= rb_hi:
            out.append(loc)
    return out


#: golden records per chunk of the aligned window's event walk
EVENT_CHUNK = 4096


def _identical(a, b) -> bool:
    """Are two values indistinguishable: the same type and bits?

    Stricter than :func:`same_value`, which equates ``0.0`` with
    ``-0.0`` and any two NaNs: a later division (or a format) can tell
    the zeros apart, so the event walk keeps watching a location that
    holds such a value.
    """
    if type(a) is not type(b):
        return False
    if type(a) is not float or (a == a and a != 0.0):
        return a == b
    return struct.pack("<d", a) == struct.pack("<d", b)


def _hits(locs: np.ndarray, watched: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``locs`` found in the sorted ``watched``."""
    if not len(watched):
        return np.zeros(len(locs), dtype=bool)
    i = np.minimum(watched.searchsorted(locs), len(watched) - 1)
    return watched[i] == locs


def accumulator_hit(op: int, dloc: int, vloc: int, def_of,
                    op_slocs) -> bool:
    """Is the STORE (or MOV) of register ``vloc`` into ``dloc`` an
    accumulator update ``x = x + ...``?

    Its value must come from an FADD/ADD whose def chain includes a
    LOAD of ``dloc`` itself; for a MOV, the add must read ``dloc``.
    ``def_of(loc)`` is the record of a register's latest def before the
    update (-1 when it has none, and for a memory location), and
    ``op_slocs(t)`` the op and source locations of record ``t``.
    """
    t_def = def_of(vloc)
    if t_def < 0:
        return False
    def_op, def_srcs = op_slocs(t_def)
    if def_op not in oc.ACCUM_CANDIDATES:
        return False
    if op == oc.MOV:
        return dloc in (def_srcs or ())
    return _walk(op_slocs, def_of, t_def, dloc)


def _walk(op_slocs, def_of, t_def: int, target_loc: int,
          depth: int = 6) -> bool:
    """Depth-limited def-chain walk over the *current* latest defs.

    Sound for the straight-line accumulator idiom (load -> adds ->
    store all adjacent), which is the shape the frontend emits for
    ``u[i] = u[i] + ...``.
    """
    stack = [(t_def, depth)]
    seen = set()
    while stack:
        t, d = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        op, srcs = op_slocs(t)
        if op == oc.LOAD and srcs and srcs[0] == target_loc:
            return True
        if d == 0:
            continue
        for sloc in srcs:
            if sloc is not None and sloc < 0:
                prev = def_of(sloc)
                if 0 <= prev < t:  # only walk defs that happened earlier
                    stack.append((prev, d - 1))
    return False


def build_acl(ff: GoldenTrace, faulty: Trace,
              injected_loc: Optional[int] = None,
              injected_time: Optional[int] = None,
              taint_only: bool = False, start: int = 0, *,
              index: TraceIndex) -> ACLResult:
    """Run the hybrid corrupted-location pass (see module docstring).

    Parameters
    ----------
    ff, faulty:
        Matching fault-free and faulty traces of the same program/input;
        the fault-free one in columnar form.
    injected_loc, injected_time:
        Where/when the fault fired (from the VM's
        :class:`~repro.vm.fault.FaultRecord`).  Required for
        "loc"-mode injections, whose flip leaves no trace record;
        "result"-mode flips are visible in the value comparison, but
        without ``injected_time`` the pass visits every record of the
        value-aligned window instead of its events.
    taint_only:
        Disable the value-alignment hybrid and run classic forward
        taint propagation throughout: any operation with a corrupted
        source corrupts its destination, and no masking events are
        observable.  This is the ablation baseline showing why the
        hybrid matters — taint alone cannot see a shift/truncation/
        conditional kill a corruption (Section III-C's motivation).
    start:
        First record to scan; at most ``injected_time``, or the trace
        length when the fault never fired.  Before the injection the
        faulty trace *is* the golden one record for record, so the
        prefix is provably inert: nothing is corrupted yet, no value
        differs (no birth, no masking, no death) and no write is
        redirected.  Skipping it changes no field of the result.
    index:
        The :class:`~repro.trace.index.TraceIndex` of ``ff``.

    **Events.**  In the value-aligned window ``[start, aligned)`` the
    pass visits only event records: the injection, a RET while
    anything is corrupted, and any record whose *golden* side reads or
    writes a watched location.  The watched set holds every location
    born so far, plus every location that holds a value
    :func:`same_value`-equal to golden but not identical to it (a
    ``-0.0``), and it never shrinks: a stack cell freed while
    corrupted and read by a later call stays covered.  So every
    location whose faulty value differs from golden is watched.  A
    record that is not an event runs the same static instruction as
    golden on sources outside that set.  Its address registers hold
    golden's values, so it reads golden's locations with golden's
    values and writes golden's value to golden's destination (a CALL
    writes only its fresh frame's registers).  It births nothing,
    kills nothing (the location it writes was never corrupted), reads
    nothing corrupted and masks nothing, so skipping it changes no
    field.  The one state no location holds is the stack pointer: once
    an ALLOCA's size differs from golden, every later ALLOCA is an
    event.  Event positions come a chunk of :data:`EVENT_CHUNK` golden
    records at a time from the golden ``dloc``/``sloc``/``op``
    columns; a location first watched inside a chunk adds the rest of
    its chunk's positions from ``index``.  Faulty records are indexed,
    and golden values decoded, only at events.

    Past that window (everywhere, under ``taint_only``) the pass is a
    taint walk over every record.  Once nothing is corrupted, the
    injection is behind and the aligned window is done, a birth would
    need a corrupted source, so no later record can change any field
    and the walk stops there.  One handler processes every visited
    record of both walks.

    Reads are tracked in the same pass: each record marks the
    corrupted locations it reads, and a birth marks its location when
    the birth record itself reads it.  That gives every death its
    ``read`` flag (read at some record in ``[birth, time]``), and
    every location still corrupted at the end its last read — no
    second scan of the trace and no read index.

    The pass also collects the accumulator updates Repeated Additions
    needs (``ACLResult.updates``): the STORE/MOV records in
    ``[start, aligned)`` that write a location at or after its first
    birth and pass :func:`accumulator_hit`.  No earlier update can
    count, since the location is not corrupted before its first birth.
    Each such record writes a watched location, so the event walk
    visits it.  The register defs its chain reaches are golden's (the
    runs are aligned), looked up in ``index``.
    """
    RET, CBR, EMIT, CALL, ALLOCA, STORE, MOV = (   # hot-loop locals
        oc.RET, oc.CBR, oc.EMIT, oc.CALL, oc.ALLOCA, oc.STORE, oc.MOV)
    frecs_n = len(faulty)
    div = ff.first_divergence(faulty, start)
    aligned = div if div is not None else min(frecs_n, len(ff))
    # under taint_only the taint walk handles every record
    aligned_until = 0 if taint_only else aligned
    # the faulty records: raw suffix records from `base` on, read with
    # the static table
    view = faulty.records
    suffix, base = view.suffix, view.base
    table = ff.table
    ops, lines, fns, pcs, nsrcs = (table.ops, table.lines, table.fns,
                                   table.pcs, table.nsrcs)
    g = ff.records

    corrupted: dict[int, int] = {}   # loc -> birth time
    births: list[tuple[int, int]] = []
    deaths: list[DeathEvent] = []
    intervals: list[tuple[int, int, int]] = []
    maskings: list[MaskEvent] = []
    # loc -> latest record that read it while corrupted, or that read
    # it at its birth record (the read happens before the write)
    last_read: dict[int, int] = {}
    born: set[int] = set()
    watched: set[int] = set()
    updates: dict[int, list[int]] = {}
    # positions, inside the current chunk, of the locations first
    # watched there; chunk_hi is 0 outside the event walk
    added: list[int] = []
    chunk_hi = 0
    # the stack pointer is state no location holds: once an ALLOCA's
    # size differs from golden, every later ALLOCA is an event
    sp_moved = False

    def op_slocs(t: int):
        rec = suffix[t - base] if t >= base else view.raw(t)
        sid = rec[0]
        return ops[sid], rec[3:3 + 2 * nsrcs[sid]:2]

    def def_before(loc: int, t: int) -> int:
        """Latest def of register ``loc`` before ``t``, golden's and so
        the faulty run's (the runs are aligned before ``t``)."""
        return index.last_def_before(loc, t) if loc < 0 else -1

    def watch(loc: int, t: int) -> None:
        if loc in watched:
            return
        watched.add(loc)
        if t + 1 < chunk_hi:
            for rows in (index.reads, index.writes):
                for p in rows.between(loc, t + 1, chunk_hi).tolist():
                    heappush(added, p)

    def kill(loc: int, time: int, cause: str, sid=None) -> None:
        birth = corrupted.pop(loc)
        read = last_read.get(loc, -1) >= birth
        if sid is not None:
            deaths.append(DeathEvent(loc, time, cause, ops[sid], lines[sid],
                                     fns[sid], pcs[sid], birth, read))
        else:
            deaths.append(DeathEvent(loc, time, cause, birth=birth,
                                     read=read))
        intervals.append((loc, birth, time))

    def birth_loc(loc: int, time: int, slocs) -> None:
        if loc not in corrupted:
            corrupted[loc] = time
            births.append((loc, time))
            born.add(loc)
            if loc in slocs:
                last_read[loc] = time
            watch(loc, time)

    # The injected birth is registered when the scan *reaches* the
    # injection time, not up front: a clean write to the target
    # location before the flip fires must not count as a death (the
    # location simply was not corrupted yet).  "loc"-mode flips apply
    # before their trigger record executes, so the birth lands just
    # before processing record t == injected_time.
    pending_injection = (injected_loc is not None
                         and injected_time is not None)

    def visit(t: int, rec, ff_dloc, ff_dval) -> None:
        """Process raw record ``t``; ``ff_dloc``/``ff_dval`` are
        golden's inside the aligned window."""
        nonlocal pending_injection, sp_moved
        in_window = t < aligned_until
        sid = rec[0]
        op = ops[sid]
        end = 3 + 2 * nsrcs[sid]    # the payload's index, if any
        slocs = rec[3:end:2]
        if op == ALLOCA and in_window and not sp_moved and \
                not _identical(rec[4], g.field(t, R_SVALS)[0]):
            sp_moved = True
            rest = g.op[t + 1:chunk_hi] == ALLOCA
            for p in (np.flatnonzero(rest) + t + 1).tolist():
                heappush(added, p)
        if pending_injection and t == injected_time:
            birth_loc(injected_loc, t, slocs)
            pending_injection = False
        corrupted_src = False
        if corrupted and slocs:
            for sloc in slocs:
                if sloc in corrupted:
                    corrupted_src = True
                    last_read[sloc] = t

        if op == RET:
            dead_uid, stack_lo, stack_hi = rec[end]
            for loc in _frame_locs(corrupted, dead_uid, stack_lo, stack_hi):
                kill(loc, t, "free", sid)

        elif op == CBR and corrupted_src and in_window:
            # corrupted condition, same branch direction: the conditional
            # masked the fault (Pattern 3 signature)
            if same_value(rec[2], ff_dval):
                maskings.append(MaskEvent(t, op, lines[sid], fns[sid],
                                          pcs[sid]))

        elif op == EMIT and in_window:
            svals_differ = any(not same_value(a, b) for a, b in
                               zip(rec[4:end:2], g.field(t, R_SVALS)))
            if (corrupted_src or svals_differ) and \
                    rec[end] == g.field(t, R_EXTRA):
                # corrupted value, identical formatted output: the format
                # precision truncated the corruption away (Pattern 5)
                maskings.append(MaskEvent(t, op, lines[sid], fns[sid],
                                          pcs[sid]))

        dloc = rec[1]
        if dloc is not None:
            if in_window:
                if dloc == ff_dloc:
                    dval = rec[2]
                    is_corrupt = not same_value(dval, ff_dval)
                    if not is_corrupt and dloc not in watched and \
                            not _identical(dval, ff_dval):
                        watch(dloc, t)
                else:
                    # a corrupted address redirected the write: the cell
                    # actually written is corrupted, and so is the cell
                    # that *should* have been written (it kept stale data)
                    is_corrupt = True
                    if ff_dloc is not None:
                        birth_loc(ff_dloc, t, slocs)
            else:
                # taint fallback; a "result"-mode flip corrupts the
                # trigger record's destination by fiat (its sources are
                # clean, so source taint alone would never register it)
                is_corrupt = corrupted_src or (
                    t == injected_time and dloc == injected_loc)
            if corrupted_src and not is_corrupt and in_window:
                maskings.append(MaskEvent(t, op, lines[sid], fns[sid],
                                          pcs[sid]))
            if is_corrupt:
                birth_loc(dloc, t, slocs)
            elif dloc in corrupted:
                kill(dloc, t, "masked" if corrupted_src else "overwrite", sid)

        if op == CALL:
            uid, _callee, nargs = rec[end]
            rbase = -(uid * SLOT_LIMIT) - 1
            svals = rec[4:end:2]
            ffvals = g.field(t, R_SVALS) if in_window else ()
            for i in range(nargs):
                ploc = rbase - i
                arg_corrupt = False
                if in_window:
                    if i < len(ffvals):
                        arg_corrupt = not same_value(svals[i], ffvals[i])
                        if not arg_corrupt and ploc not in watched and \
                                not _identical(svals[i], ffvals[i]):
                            watch(ploc, t)
                else:
                    sloc = slocs[i] if i < len(slocs) else None
                    arg_corrupt = sloc is not None and sloc in corrupted
                if arg_corrupt:
                    birth_loc(ploc, t, slocs)
                elif ploc in corrupted:
                    kill(ploc, t, "overwrite", sid)

        if t < aligned and dloc in born and (op == STORE or op == MOV):
            vloc = slocs[0]
            if vloc is not None and accumulator_hit(
                    op, dloc, vloc,
                    lambda loc: def_before(loc, t), op_slocs):
                updates.setdefault(dloc, []).append(t)

    # the event walk over the value-aligned window
    lo = start
    while lo < aligned_until:
        if not watched and injected_time is not None and injected_time > lo:
            # nothing is watched before the injection: no events
            lo = min(injected_time, aligned_until)
            continue
        hi = chunk_hi = min(lo + EVENT_CHUNK, aligned_until)
        if injected_time is None:
            ev = np.arange(lo, hi)
            ret_only = [False] * len(ev)
        else:
            warr = np.fromiter(watched, dtype=np.int64, count=len(watched))
            warr.sort()
            mask = _hits(g.dloc[lo:hi], warr)
            soff = g.soff[lo:hi + 1]
            slots = np.flatnonzero(_hits(g.sloc[soff[0]:soff[-1]], warr))
            mask[soff.searchsorted(soff[0] + slots, "right") - 1] = True
            rets = g.op[lo:hi] == RET
            if sp_moved:
                mask |= g.op[lo:hi] == ALLOCA
            if lo <= injected_time < hi:
                mask[injected_time - lo] = True
            rets &= ~mask
            mask |= rets
            ev = np.flatnonzero(mask)
            ret_only = rets[ev].tolist()
            ev += lo
        ts = ev.tolist()
        ff_dlocs = decode_locs(g.dloc[ev])
        ff_dvals = g.dvals_at(ev)
        added.clear()
        i, n, last = 0, len(ts), -1
        while True:
            if added and (i == n or added[0] < ts[i]):
                t = heappop(added)
                if t != last:
                    last = t
                    visit(t, suffix[t - base] if t >= base else view.raw(t),
                          g.field(t, R_DLOC), g.field(t, R_DVAL))
            elif i < n:
                t = ts[i]
                # a RET that reads and writes nothing watched matters
                # only while something is corrupted
                if t != last and (corrupted or not ret_only[i]):
                    last = t
                    visit(t, suffix[t - base] if t >= base else view.raw(t),
                          ff_dlocs[i], ff_dvals[i])
                i += 1
            else:
                break
        lo = hi
    chunk_hi = 0

    # the taint walk past it, over the raw suffix in place
    lo = max(start, aligned_until)
    walk = islice(suffix, lo - base, None) if lo >= base else \
        chain(map(view.raw, range(lo, base)), suffix)
    corrupted_locs = corrupted.keys()
    for t, rec in enumerate(walk, lo):
        if t >= aligned and t != injected_time:
            if not corrupted and not pending_injection and \
                    (injected_time is None or t > injected_time):
                # a birth needs a corrupted source or the injection
                # record: nothing later changes any field
                break
            # a record with no payload (not a CALL, RET or EMIT: odd
            # length) that neither writes nor reads a corrupted location
            # (dloc, then the slocs at odd indices) changes nothing
            n = len(rec)
            if n & 1 and rec[1] not in corrupted and \
                    (n < 5 or rec[3] not in corrupted) and \
                    (n < 7 or rec[5] not in corrupted) and \
                    (n < 9 or corrupted_locs.isdisjoint(rec[7::2])):
                continue
        visit(t, rec, None, None)

    # a flip planned beyond the end of execution (e.g. the run crashed
    # first) never fired; record it if the caller says it did fire at
    # exactly the trace end
    if pending_injection and injected_time == frecs_n:
        t = frecs_n - 1 if frecs_n else 0
        birth_loc(injected_loc, t,
                  faulty.field(t, R_SLOCS) if frecs_n else ())
        start = min(start, t)

    # close out locations still corrupted at the end of the trace:
    # alive until their last read (never referenced again -> 'dead'
    # at that point; alive-through-the-end when read near the end).
    # A location has been corrupted since its birth, so its latest
    # read while corrupted is its last read in (birth, end).
    end_set = set(corrupted)
    for loc, birth in list(corrupted.items()):
        read = last_read.get(loc, -1)
        if read <= birth:
            kill(loc, birth + 1, "dead")
        elif read >= frecs_n - 1:
            kill(loc, frecs_n, "end")
        else:
            kill(loc, read + 1, "dead")

    counts = np.zeros(frecs_n + 1, dtype=np.int32)
    for _loc, b, d in intervals:
        b = min(b, frecs_n)
        d = min(d, frecs_n)
        if d > b:
            counts[b] += 1
            counts[d] -= 1
    counts = np.cumsum(counts[:-1], dtype=np.int32)

    return ACLResult(counts=counts, births=births, deaths=deaths,
                     divergence=div, corrupted_at_end=end_set,
                     injected_loc=injected_loc, intervals=intervals,
                     maskings=maskings, start=start, aligned=aligned,
                     updates=updates)
