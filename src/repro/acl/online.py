"""Online-check extraction: golden-trace invariants for in-run detectors.

The ACL machinery in this package explains *post hoc* where corruption
died.  This module turns the same golden evidence into checks cheap
enough to run *inside* a faulty execution, at region-instance exit
boundaries (see :mod:`repro.recovery`):

* **boundary images** — every executed instruction appends exactly
  one record, NOPs included, so a region instance's record-index span
  is its *dynamic-instruction* span; one untraced golden capture
  replay on the tracker's own exec tier stops at every instance exit
  to record the stack pointer, frame depth and a checksum of all live
  state;
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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.trace.columnar import T_BOOL, T_FLOAT, T_INT, GoldenTrace
from repro.trace.events import R_DVAL
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


def _instance_values(g: GoldenTrace, start: int, end: int):
    """Written memory locations + value stats for records [start, end).

    ``lo``/``hi`` are the first-written smallest and largest finite
    values, compared exactly across ints and floats, as a forward scan
    with strict comparisons would pick them.
    """
    at = start + np.flatnonzero(g.dloc[start:end] >= 0)
    locs = set(np.unique(g.dloc[at]).tolist())
    tags = g.dtag[at]
    floats = g.dbits[at].view(np.float64)
    is_float = tags == T_FLOAT
    finite = is_float & np.isfinite(floats)
    nonfinite = bool((is_float & ~finite).any())
    numeric = (tags == T_INT) | (tags == T_BOOL)
    lo_picks: list = []
    hi_picks: list = []
    for mask, keys in ((numeric, g.dbits[at]), (finite, floats)):
        if mask.any():
            idx = np.flatnonzero(mask)
            lo_picks.append(int(idx[keys[idx].argmin()]))
            hi_picks.append(int(idx[keys[idx].argmax()]))
    other = np.flatnonzero(~numeric & ~is_float).tolist()
    lo_picks += other
    hi_picks += other

    def first_extreme(picks, better):
        best = None
        for i in sorted(picks):
            v = g.field(int(at[i]), R_DVAL)
            if best is None or better(v, best):
                best = v
        return 0.0 if best is None else best

    return (locs, first_extreme(lo_picks, lambda v, b: v < b),
            first_extreme(hi_picks, lambda v, b: v > b), nonfinite)


def _forward_fraction(index: TraceIndex, locs, end: int) -> float:
    """Fraction of ``locs`` whose next access at/after ``end`` is a write."""
    if not locs:
        return 0.0
    arr = np.fromiter(locs, dtype=np.int64, count=len(locs))
    dead = int((index.next_write_at_or_after_many(arr, end) <
                index.first_read_at_or_after_many(arr, end)).sum())
    return dead / len(locs)


def build_recovery_context(program, records: GoldenTrace,
                           index: TraceIndex, instances: Sequence, *,
                           exec_tier=None):
    """Derive the online-check context and the warm-start ladder.

    ``records``/``index``/``instances`` are the tracker's golden trace,
    its read/write index and the time-ordered region instances.  A
    record index is a dyn index, so every boundary and rung is known
    before anything executes.  One untraced replay on ``exec_tier``
    then walks the program once, stopping at every instance exit
    (stack pointer, frame depth, state checksum) and at every ladder
    point (a snapshot rung); ``run_to`` stops are byte-identical on
    either tier, so the result does not depend on it.

    Returns ``(RecoveryContext, WarmLadder)``.
    """
    from repro.warmstart import (Rung, build_warm_ladder, ladder_points,
                                 ladder_stride)
    total_dyn = len(records)
    ordered = sorted(instances, key=lambda inst: inst.start)
    stride = ladder_stride(total_dyn)
    points = set(ladder_points([inst.start for inst in ordered],
                               total_dyn, stride))
    exits = {inst.end for inst in ordered}

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
            rungs.append(Rung(stop, interp.snapshot(),
                              tuple(interp.output)))

    invariants = []
    for inst in ordered:
        sp, depth, checksum = states[inst.end]
        locs, lo, hi, nonfinite = _instance_values(records, inst.start,
                                                   inst.end)
        invariants.append(BoundaryInvariant(
            region=inst.region.name, kind=inst.region.kind,
            index=inst.index, entry_dyn=inst.start, exit_dyn=inst.end,
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
