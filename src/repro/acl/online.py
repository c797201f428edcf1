"""Online-check extraction: golden-trace invariants for in-run detectors.

The ACL machinery in this package explains *post hoc* where corruption
died.  This module turns the same golden evidence into checks cheap
enough to run *inside* a faulty execution, at region-instance exit
boundaries (see :mod:`repro.recovery`):

* **boundary images** — every region instance's record-index span maps
  to *dynamic-instruction* boundaries, and one untraced golden capture
  replay on the tracker's own exec tier stops at every instance exit to
  record the stack pointer, frame depth and a checksum of all live
  state.  The map is exact for any program: a NOP advances the dynamic
  count but appends no record, so record index == dyn index only when
  the golden run executed no NOP (``dyn_count == len(records)``, the
  case for every registered app); otherwise the NOP positions are
  recovered from the golden record stream (:func:`record_dyn_map`),
  and the same map gives each warm-start rung its record count;
* **value ranges** — per instance, the memory locations the region
  wrote in the golden run with their finite value range (the ``range``
  detector's evidence, ACL-informed: these are exactly the locations a
  flip inside the region can leave corrupted);
* **forward-safe regions** — regions whose written locations are
  overwrite-dominated in the golden flow (the next access after the
  instance is a write, not a read — Table I's overwrite pattern), which
  the ``forward-correct`` policy may ride through without restoring.

The same replay snapshots the warm-start ladder's rungs on its way
(:mod:`repro.warmstart`), so the golden execution runs twice per
program in all — the traced golden run and this untraced capture.

Everything here is a pure function of the program (golden trace +
region model), so every worker process, shard server and exec tier
derives the **identical** context — the determinism contract recovery
results inherit from campaigns.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.ir import opcodes as oc
from repro.trace.events import R_DLOC, R_DVAL, R_FN, R_OP, R_PC
from repro.trace.index import TraceIndex
from repro.vm.bitops import MASK64, float64_to_bits

#: an instance is forward-safe when at least this fraction of its
#: written locations are dead-on-exit by overwrite in the golden flow
FORWARD_THRESHOLD = 0.9

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_M64 = MASK64


def state_checksum(mem: Sequence, sp: int, depth: int) -> int:
    """FNV-1a fold of the live state image (``mem[:sp]``, sp, depth).

    Values hash by their bit images (two's-complement for ints, binary64
    for floats) with a type tag, never by Python ``hash()`` — the result
    must be identical across processes regardless of PYTHONHASHSEED.
    """
    h = _FNV_OFFSET
    h = ((h ^ (sp & _M64)) * _FNV_PRIME) & _M64
    h = ((h ^ (depth & _M64)) * _FNV_PRIME) & _M64
    for v in mem[:sp]:
        if v.__class__ is int:
            h = ((h ^ 1) * _FNV_PRIME) & _M64
            h = ((h ^ (v & _M64)) * _FNV_PRIME) & _M64
        else:
            h = ((h ^ 2) * _FNV_PRIME) & _M64
            h = ((h ^ float64_to_bits(v)) * _FNV_PRIME) & _M64
    return h


@dataclass(frozen=True)
class BoundaryInvariant:
    """Golden-run facts about one region instance's exit boundary."""

    region: str
    kind: str            # region kind ("loop"/"straight")
    index: int           # instance index within the region
    entry_dyn: int       # dynamic instruction index of the first instr
    exit_dyn: int        # dynamic instruction index one past the last
    sp: int              # stack pointer at exit
    depth: int           # frame-stack depth at exit
    checksum: int        # state_checksum of the exit state
    locs: tuple          # memory locations the instance wrote (sorted)
    lo: float            # min finite value written (0.0 when no writes)
    hi: float            # max finite value written
    nonfinite: bool      # the golden run itself wrote inf/nan here
    forward_frac: float  # fraction of locs dead-on-exit by overwrite


@dataclass(frozen=True)
class RecoveryContext:
    """Everything the online detectors and policies need, precomputed."""

    invariants: tuple            # BoundaryInvariant, in execution order
    forward_ok: frozenset        # region names safe to forward-correct
    total_dyn: int               # golden run's dynamic instruction count

    def instance_at(self, pos: int) -> BoundaryInvariant:
        return self.invariants[pos]


def _instance_values(records: Sequence, start: int, end: int):
    """Written memory locations + value stats for records [start, end)."""
    locs: set = set()
    lo: Optional[float] = None
    hi: Optional[float] = None
    nonfinite = False
    for t in range(start, end):
        rec = records[t]
        dloc = rec[R_DLOC]
        if dloc is None or dloc < 0:
            continue
        locs.add(dloc)
        v = rec[R_DVAL]
        if v.__class__ is int or math.isfinite(v):
            if lo is None or v < lo:
                lo = v
            if hi is None or v > hi:
                hi = v
        else:
            nonfinite = True
    return locs, (0.0 if lo is None else lo), (0.0 if hi is None else hi), \
        nonfinite


def _forward_fraction(index: TraceIndex, locs, end: int) -> float:
    """Fraction of ``locs`` whose next access at/after ``end`` is a write."""
    if not locs:
        return 0.0
    dead = 0
    for loc in locs:
        nw = index.next_write_at_or_after(loc, end)
        nr = index.first_read_at_or_after(loc, end)
        if nw < nr:
            dead += 1
    return dead / len(locs)


class RecordDynMap:
    """Exact record-index <-> dyn-index map of one golden execution.

    Every executed instruction appends one record except NOP, so the
    two indices coincide exactly when the golden run executed no NOP
    (``total_dyn == n_records``).  Otherwise ``at`` lists the record
    indices preceded by NOPs and ``before`` the running NOP count up
    to each of them.
    """

    __slots__ = ("n_records", "total_dyn", "_at", "_before")

    def __init__(self, n_records: int, total_dyn: int,
                 at: Sequence = (), before: Sequence = ()):
        self.n_records = n_records
        self.total_dyn = total_dyn
        self._at = at
        self._before = before

    def dyn_at(self, s: int) -> int:
        """The dynamic index at which exactly ``s`` records exist (just
        after the instruction that appended record ``s - 1``; 0 for
        ``s == 0``)."""
        if s == 0 or not self._at:
            return s
        i = bisect_right(self._at, s - 1)
        return s + (self._before[i - 1] if i else 0)

    def records_at(self, dyn: int) -> int:
        """Records appended before the instruction at ``dyn`` executes:
        the record index of that instruction, or of the first record
        after it when it is a NOP."""
        return bisect_right(range(self.n_records + 1), dyn,
                            key=self.dyn_at) - 1


def record_dyn_map(records: Sequence, module,
                   total_dyn: int) -> RecordDynMap:
    """The :class:`RecordDynMap` of a golden execution.

    The map is the identity exactly when ``total_dyn == len(records)``.
    Otherwise the NOPs are located from the record stream: each record
    fixes the next pc its frame executes (fall-through, branch target,
    callee entry, or the caller's pc after the matching CALL), and any
    shortfall to the next record's pc was covered by NOPs, which only
    fall through.
    """
    if total_dyn == len(records):
        return RecordDynMap(len(records), total_dyn)
    code = {fn.index: fn.code for fn in module.functions.values()}
    at: list = []        # record indices preceded by NOPs
    before: list = []    # NOPs executed before each of those records
    nops = 0
    calls: list = []     # pc of every CALL whose frame is still live
    expect = 0           # the entry frame starts at pc 0
    for j, rec in enumerate(records):
        pc = rec[R_PC]
        if pc != expect:
            nops += pc - expect
            at.append(j)
            before.append(nops)
        op = rec[R_OP]
        if op == oc.CBR:
            expect = code[rec[R_FN]][pc][3][0 if rec[R_DVAL] else 1]
        elif op == oc.BR:
            expect = code[rec[R_FN]][pc][3]
        elif op == oc.CALL:
            calls.append(pc)
            expect = 0
        elif op == oc.RET:
            expect = calls.pop() + 1 if calls else None
        else:
            expect = pc + 1
    if len(records) + nops != total_dyn:
        raise ValueError(
            f"record stream of {len(records)} records and {nops} NOPs "
            f"does not add up to the golden dyn_count {total_dyn}")
    return RecordDynMap(len(records), total_dyn, at, before)


def build_recovery_context(program, records: Sequence,
                           index: TraceIndex, instances: Sequence, *,
                           record_map: RecordDynMap, exec_tier=None):
    """Derive the online-check context and the warm-start ladder.

    ``records``/``index``/``instances`` are the tracker's golden trace,
    its read/write index and the time-ordered region instances;
    ``record_map`` is the golden run's :func:`record_dyn_map`.
    Boundaries and each rung's record count come from that map, so
    every stop point is known before anything executes.  One untraced
    replay on ``exec_tier`` then walks the program once, stopping at
    every instance exit (stack pointer, frame depth, state checksum)
    and at every ladder point (a snapshot rung); ``run_to`` stops are
    byte-identical on either tier, so the result does not depend on it.

    Returns ``(RecoveryContext, WarmLadder)``.
    """
    from repro.warmstart import (Rung, build_warm_ladder, ladder_points,
                                 ladder_stride)
    total_dyn = record_map.total_dyn
    dyn_at = record_map.dyn_at
    ordered = sorted(instances, key=lambda inst: inst.start)
    spans = [(dyn_at(inst.start), dyn_at(inst.end)) for inst in ordered]
    stride = ladder_stride(total_dyn)
    points = set(ladder_points([entry for entry, _exit in spans],
                               total_dyn, stride))
    exits = {exit_dyn for _entry, exit_dyn in spans}

    interp = program.fresh_interpreter(exec_tier=exec_tier)
    interp.start(program.entry)
    states: dict = {}
    rungs = []
    for stop in sorted(exits | points):
        interp.run_to(stop)
        if stop in exits:
            depth = len(interp.frames)
            states[stop] = (interp.sp, depth,
                            state_checksum(interp.mem, interp.sp, depth))
        if stop in points:
            rungs.append(Rung(stop, record_map.records_at(stop),
                              interp.snapshot(), tuple(interp.output)))

    invariants = []
    for inst, (entry_dyn, exit_dyn) in zip(ordered, spans):
        sp, depth, checksum = states[exit_dyn]
        locs, lo, hi, nonfinite = _instance_values(records, inst.start,
                                                   inst.end)
        invariants.append(BoundaryInvariant(
            region=inst.region.name, kind=inst.region.kind,
            index=inst.index, entry_dyn=entry_dyn, exit_dyn=exit_dyn,
            sp=sp, depth=depth, checksum=checksum,
            locs=tuple(sorted(locs)), lo=lo, hi=hi, nonfinite=nonfinite,
            forward_frac=_forward_fraction(index, locs, inst.end)))

    by_region: dict = {}
    for inv in invariants:
        by_region.setdefault(inv.region, []).append(inv)
    forward_ok = frozenset(
        name for name, invs in by_region.items()
        if all(inv.locs and inv.forward_frac >= FORWARD_THRESHOLD
               for inv in invs))
    ctx = RecoveryContext(invariants=tuple(invariants),
                          forward_ok=forward_ok, total_dyn=total_dyn)
    return ctx, build_warm_ladder(program, rungs, stride, total_dyn)


def detect(detector: str, inv: BoundaryInvariant, interp) -> bool:
    """Run one online detector at ``inv``'s exit boundary.

    Returns True when the live state deviates from the golden boundary
    facts.  Pre-fault state is bit-identical to the golden run, so a
    detector can never fire before the flip.
    """
    if detector == "checksum":
        return (interp.sp != inv.sp
                or len(interp.frames) != inv.depth
                or state_checksum(interp.mem, interp.sp,
                                  len(interp.frames)) != inv.checksum)
    if detector == "invariant":
        if interp.sp != inv.sp or len(interp.frames) != inv.depth:
            return True
        if inv.nonfinite:
            return False
        mem = interp.mem
        for loc in inv.locs:
            v = mem[loc]
            if v.__class__ is not int and not math.isfinite(v):
                return True
        return False
    if detector == "range":
        mem = interp.mem
        lo, hi = inv.lo, inv.hi
        for loc in inv.locs:
            v = mem[loc]
            if v.__class__ is not int and not math.isfinite(v):
                if not inv.nonfinite:
                    return True
                continue
            if v < lo or v > hi:
                return True
        return False
    raise ValueError(f"unknown detector {detector!r}")
