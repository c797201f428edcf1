"""Golden snapshot ladder: warm-starting faulty runs mid-program.

Every faulty run is byte-identical to the golden run up to its trigger
``dyn_index`` — the fault pre-hook fires *before* the instruction at
the trigger executes, so the whole prefix is pure re-execution.  This
module amortizes that prefix across a campaign: a **ladder** of
:class:`~repro.vm.interp.VMSnapshot` rungs is captured once per
program along the golden execution, and each faulty run restores the
highest rung at or below its trigger and executes only the suffix.
A traced run (a Table I analysis) also needs the records of the
prefix; they are the golden trace's records up to the rung, so the
run splices those in instead of re-executing them.

Invisibility contract: warm-start must not change a single observable —
record stream, ``dyn_count``, output, memory, :class:`FaultRecord`,
crash surface, ``RecoveryOutcome`` bytes, cache keys.  It is therefore
engaged only when equivalence is provable by construction
(communicator-free runs with a rung strictly below the hang budget,
given the golden records when traced) and falls back to a cold start
otherwise.  The parity matrices in
``tests/test_determinism.py`` and CI's ``REPRO_WARMSTART`` axis lock
the contract.

Rung placement: rung spacing is derived from the golden trace length
(``total_dyn // DEFAULT_RUNGS``, floored at :data:`MIN_STRIDE`) and
aligned to region-instance entry boundaries where they exist, so the
recovery session (:mod:`repro.recovery.run`) can source its periodic
checkpoints from the very same rungs; stretches without boundaries are
filled with synthetic grid rungs (valid ``run_to`` stop points, simply
never matched by recovery's exact-boundary lookup).

Capture: the ladder is a by-product of the one untraced golden capture
replay that also records the recovery context's boundary facts
(:func:`repro.acl.online.build_recovery_context`).  That replay runs on
the tracker's own exec tier — ``run_to`` stops are byte-identical on
either tier — and snapshots at every :func:`ladder_points` point on its
way; :func:`build_warm_ladder` only seals the captured rungs.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from typing import Optional

#: environment channel, mirroring ``REPRO_EXEC`` for execution tiers
ENV_VAR = "REPRO_WARMSTART"

#: accepted string values for the flag/env var
WARMSTART_MODES = ("on", "off")

#: default number of rungs to aim for along one golden execution
DEFAULT_RUNGS = 24

#: never place rungs closer than this many dynamic instructions
MIN_STRIDE = 512

#: process-local engagement counters (never part of any observable;
#: read by ``benchmarks/test_warm_start.py`` and ``stats()`` surfaces)
WARM_STATS = {"hits": 0, "misses": 0, "saved_instr": 0}


def reset_stats() -> None:
    """Zero the process-local engagement counters."""
    WARM_STATS["hits"] = 0
    WARM_STATS["misses"] = 0
    WARM_STATS["saved_instr"] = 0


def resolve_warmstart(warm_start=None) -> bool:
    """Resolve the effective warm-start setting to a bool.

    Precedence mirrors :func:`repro.vm.exec_tier.resolve_exec_tier`:
    an explicit argument (bool, or one of :data:`WARMSTART_MODES`) wins
    over the :data:`ENV_VAR` environment variable, which wins over the
    default — **on**.  Unknown strings raise ``ValueError``.
    """
    if warm_start is not None and not isinstance(warm_start, str):
        return bool(warm_start)
    value = warm_start
    if value is None or value == "":
        value = os.environ.get(ENV_VAR)
    if value is None or value == "":
        return True
    mode = value.strip().lower()
    if mode not in WARMSTART_MODES:
        raise ValueError(
            f"unknown warm-start mode {value!r}; expected one of "
            f"{', '.join(WARMSTART_MODES)}")
    return mode == "on"


class Rung:
    """One ladder rung: the golden state about to execute ``dyn``.

    Carries the snapshot plus a materialized copy of the golden output
    prefix: ``VMSnapshot`` records stream *lengths* only (restore
    truncates), so restoring into a fresh interpreter needs the prefix
    installed explicitly.  ``n_records`` is the number of golden trace
    records appended before ``dyn`` (it differs from ``dyn`` once a NOP
    has executed), the prefix a traced run splices in.
    """

    __slots__ = ("dyn", "n_records", "snap", "output")

    def __init__(self, dyn: int, n_records: int, snap, output: tuple):
        self.dyn = dyn
        self.n_records = n_records
        self.snap = snap
        self.output = output


class WarmLadder:
    """The per-program golden snapshot ladder."""

    __slots__ = ("program_name", "stride", "rungs", "total_dyn",
                 "_dyns", "_by_dyn")

    def __init__(self, program_name: str, stride: int,
                 rungs: list, total_dyn: int):
        self.program_name = program_name
        self.stride = stride
        self.rungs = rungs
        self.total_dyn = total_dyn
        self._dyns = [r.dyn for r in rungs]
        self._by_dyn = {r.dyn: r for r in rungs}

    def rung_for(self, trigger: int) -> Optional[Rung]:
        """Highest rung with ``dyn <= trigger`` (None on a miss)."""
        i = bisect_right(self._dyns, trigger)
        return self.rungs[i - 1] if i else None

    def rung_at(self, dyn: int) -> Optional[Rung]:
        """The rung exactly at ``dyn``, if one exists (recovery reuse)."""
        return self._by_dyn.get(dyn)

    @property
    def words(self) -> int:
        """Total resident state size of every rung, in words."""
        return sum(r.snap.words for r in self.rungs)


def ladder_stride(total_dyn: int) -> int:
    """Rung spacing for a golden execution of ``total_dyn`` instructions."""
    return max(MIN_STRIDE, total_dyn // DEFAULT_RUNGS)


def ladder_points(entries, total_dyn: int, stride: int) -> list:
    """Choose rung dyn-indices along a golden execution.

    ``entries`` are the region-instance entry boundaries (dynamic
    instruction indices).  Greedily picks entries at least ``stride``
    apart (so recovery checkpoints can share rungs), then fills any
    remaining gap of ``2 * stride`` or more — including before the
    first boundary and after the last — with synthetic grid points.
    All points lie strictly inside ``(0, total_dyn)``.
    """
    boundaries = sorted({dyn for dyn in entries if 0 < dyn < total_dyn})
    picks = []
    last = 0
    for b in boundaries:
        if b - last >= stride:
            picks.append(b)
            last = b
    points = set(picks)
    for lo, hi in zip([0] + picks, picks + [total_dyn]):
        if hi - lo >= 2 * stride:
            p = lo + stride
            while p <= hi - stride:
                points.add(p)
                p += stride
    return sorted(points)


def build_warm_ladder(program, rungs: list, stride: int,
                      total_dyn: int) -> WarmLadder:
    """Seal the rungs captured along the golden execution into a ladder.

    The rungs come from the golden capture replay
    (:func:`repro.acl.online.build_recovery_context`), which stops at
    every :func:`ladder_points` point on the way to the region
    boundaries it records, so the ladder costs no execution of its own.
    Rungs must be strictly increasing, lie inside ``(0, total_dyn)``
    and each snapshot must sit exactly at its rung's index.
    """
    last = 0
    for rung in rungs:
        if not last < rung.dyn < total_dyn or \
                rung.snap.dyn_count != rung.dyn:
            raise ValueError(
                f"{program.name}: rung at dyn {rung.dyn} (snapshot at "
                f"{rung.snap.dyn_count}) is out of order or outside "
                f"(0, {total_dyn})")
        last = rung.dyn
    return WarmLadder(program.name, stride, rungs, total_dyn)


def warm_start_interp(interp, ladder: Optional[WarmLadder],
                      plan, records: Optional[list] = None) -> bool:
    """Engage warm-start on a fresh (un-started) interpreter, if valid.

    Returns True when a rung was restored — the caller must then drive
    the interpreter with ``resume_run`` instead of ``run``.  A traced
    interpreter also receives the golden record prefix
    ``records[:rung.n_records]`` (``records`` is the golden trace's
    record list), so its record stream still covers the whole run.
    Returns False (cold start) whenever equivalence is not guaranteed:
    traced runs without ``records``, runs attached to a
    communicator/scheduler, no rung at or below the trigger, or a rung
    at/past the hang budget (the cold run would raise ``HangError``
    from inside the prefix).
    """
    if ladder is None or plan is None:
        return False
    if interp.comm is not None or \
            (interp.records is not None and records is None):
        return False
    trigger = plan.trigger
    if trigger < 0:
        return False
    rung = ladder.rung_for(trigger)
    if rung is None or rung.snap.dyn_count >= interp.max_instr:
        WARM_STATS["misses"] += 1
        return False
    interp.restore(rung.snap)
    # the snapshot only records the output length; install the prefix
    # in place (restore's truncation on a fresh interpreter is a no-op)
    interp.output[:] = rung.output
    if interp.records is not None:
        interp.records[:] = records[:rung.n_records]
    # the rung is golden (trigger -1); re-arm this plan's trigger
    interp._ftrig = trigger
    WARM_STATS["hits"] += 1
    WARM_STATS["saved_instr"] += rung.snap.dyn_count
    return True
