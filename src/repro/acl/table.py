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

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.ir import opcodes as oc
from repro.ir.function import SLOT_LIMIT
from repro.trace.columnar import records_view
from repro.trace.events import (R_DLOC, R_DVAL, R_EXTRA, R_FN, R_LINE, R_OP,
                                R_PC, R_SLOCS, R_SVALS, Trace)


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


def build_acl(ff: Trace, faulty: Trace,
              injected_loc: Optional[int] = None,
              injected_time: Optional[int] = None,
              taint_only: bool = False, start: int = 0) -> ACLResult:
    """Run the hybrid corrupted-location pass (see module docstring).

    Parameters
    ----------
    ff, faulty:
        Matching fault-free and faulty traces of the same program/input.
    injected_loc, injected_time:
        Where/when the fault fired (from the VM's
        :class:`~repro.vm.fault.FaultRecord`).  Required for
        "loc"-mode injections, whose flip leaves no trace record;
        "result"-mode flips are visible in the value comparison, but
        passing them is still recommended for exact birth attribution.
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

    The golden side of the value-aligned window is read as column
    lists, never as record tuples.  Past that window, once nothing is
    corrupted and the injection is behind the scan, a birth would need
    a corrupted source, so no later record can change any field and
    the scan stops there.

    Reads are tracked in the same pass: each record marks the
    corrupted locations it reads, and a birth marks its location when
    the birth record itself reads it.  That gives every death its
    ``read`` flag (read at some record in ``[birth, time]``), and
    every location still corrupted at the end its last read — no
    second scan of the trace and no read index.
    """
    frecs_n = len(faulty)
    div = ff.first_divergence(faulty, start)
    aligned = div if div is not None else min(frecs_n, len(ff))
    # under taint_only the taint fallback path handles every record
    aligned_until = 0 if taint_only else aligned
    # the golden side of the value-aligned window, as column lists
    ff_dlocs = ff.column(R_DLOC, start, aligned_until)
    ff_dvals = ff.column(R_DVAL, start, aligned_until)

    corrupted: dict[int, int] = {}   # loc -> birth time
    births: list[tuple[int, int]] = []
    deaths: list[DeathEvent] = []
    intervals: list[tuple[int, int, int]] = []
    maskings: list[MaskEvent] = []
    # loc -> latest record that read it while corrupted, or that read
    # it at its birth record (the read happens before the write)
    last_read: dict[int, int] = {}

    def kill(loc: int, time: int, cause: str, rec=None) -> None:
        birth = corrupted.pop(loc)
        read = last_read.get(loc, -1) >= birth
        if rec is not None:
            deaths.append(DeathEvent(loc, time, cause, rec[R_OP], rec[R_LINE],
                                     rec[R_FN], rec[R_PC], birth, read))
        else:
            deaths.append(DeathEvent(loc, time, cause, birth=birth,
                                     read=read))
        intervals.append((loc, birth, time))

    def birth_loc(loc: int, time: int, slocs) -> None:
        if loc not in corrupted:
            corrupted[loc] = time
            births.append((loc, time))
            if loc in slocs:
                last_read[loc] = time

    # The injected birth is registered when the scan *reaches* the
    # injection time, not up front: a clean write to the target
    # location before the flip fires must not count as a death (the
    # location simply was not corrupted yet).  "loc"-mode flips apply
    # before their trigger record executes, so the birth lands just
    # before processing record t == injected_time.
    pending_injection = (injected_loc is not None
                         and injected_time is not None)

    for t, rec in enumerate(records_view(faulty.records).window(start),
                            start):
        if not corrupted and not pending_injection and \
                t >= aligned_until and \
                (injected_time is None or t > injected_time):
            # past the aligned window a birth needs a corrupted source
            # or the injection record: nothing later changes any field
            break
        op = rec[R_OP]
        slocs = rec[R_SLOCS]
        if pending_injection and t == injected_time:
            birth_loc(injected_loc, t, slocs)
            pending_injection = False
        corrupted_src = False
        if corrupted and slocs:
            for sloc in slocs:
                if sloc in corrupted:
                    corrupted_src = True
                    last_read[sloc] = t

        if op == oc.RET:
            extra = rec[R_EXTRA]
            if extra is not None:
                dead_uid, stack_lo, stack_hi = extra
                for loc in _frame_locs(corrupted, dead_uid, stack_lo,
                                       stack_hi):
                    kill(loc, t, "free", rec)

        elif op == oc.CBR and corrupted_src and t < aligned_until:
            # corrupted condition, same branch direction: the conditional
            # masked the fault (Pattern 3 signature)
            if same_value(rec[R_DVAL], ff_dvals[t - start]):
                maskings.append(MaskEvent(t, op, rec[R_LINE], rec[R_FN],
                                          rec[R_PC]))

        elif op == oc.EMIT and t < aligned_until:
            svals_differ = any(not same_value(a, b) for a, b in
                               zip(rec[R_SVALS], ff.field(t, R_SVALS)))
            if (corrupted_src or svals_differ) and \
                    rec[R_EXTRA] == ff.field(t, R_EXTRA):
                # corrupted value, identical formatted output: the format
                # precision truncated the corruption away (Pattern 5)
                maskings.append(MaskEvent(t, op, rec[R_LINE], rec[R_FN],
                                          rec[R_PC]))

        dloc = rec[R_DLOC]
        if dloc is not None:
            if t < aligned_until:
                ff_dloc = ff_dlocs[t - start]
                if dloc == ff_dloc:
                    is_corrupt = not same_value(rec[R_DVAL],
                                                ff_dvals[t - start])
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
            if corrupted_src and not is_corrupt and t < aligned_until:
                maskings.append(MaskEvent(t, op, rec[R_LINE], rec[R_FN],
                                          rec[R_PC]))
            if is_corrupt:
                birth_loc(dloc, t, slocs)
            elif dloc in corrupted:
                kill(dloc, t, "masked" if corrupted_src else "overwrite", rec)

        if op == oc.CALL:
            uid, _callee, nargs = rec[R_EXTRA]
            rbase = -(uid * SLOT_LIMIT) - 1
            svals = rec[R_SVALS]
            ffvals = ff.field(t, R_SVALS) if t < aligned_until else ()
            for i in range(nargs):
                ploc = rbase - i
                arg_corrupt = False
                if t < aligned_until:
                    if i < len(ffvals) and not same_value(svals[i], ffvals[i]):
                        arg_corrupt = True
                else:
                    sloc = slocs[i] if i < len(slocs) else None
                    arg_corrupt = sloc is not None and sloc in corrupted
                if arg_corrupt:
                    birth_loc(ploc, t, slocs)
                elif ploc in corrupted:
                    kill(ploc, t, "overwrite", rec)

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
                     maskings=maskings, start=start, aligned=aligned)
