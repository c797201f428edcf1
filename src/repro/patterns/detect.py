"""Pattern detectors over (fault-free trace, faulty trace, ACL result).

Each detector consumes the evidence streams the ACL pass produced
(death events, masking events) plus targeted trace scans, and emits
:class:`PatternInstance` records carrying source locations — the
"provide them to the user for further analysis" step of Section III-D.
"""

from __future__ import annotations

import bisect
from typing import Callable, Optional, Sequence

from repro.acl.table import ACLResult, accumulator_hit, same_value
from repro.ir import opcodes as oc
from repro.patterns.base import PatternInstance
from repro.regions.model import RegionInstance
from repro.trace.events import (R_DLOC, R_FN, R_LINE, R_OP, R_PC, R_SLOCS,
                                Trace)


def region_locator(instances: Sequence[RegionInstance]
                   ) -> Callable[[int], Optional[str]]:
    """Map a dynamic instruction index to its region-instance name."""
    starts = [inst.start for inst in instances]

    def locate(t: int) -> Optional[str]:
        i = bisect.bisect_right(starts, t) - 1
        if i >= 0 and instances[i].start <= t < instances[i].end:
            return instances[i].region.name
        return None

    return locate


def detect_overwriting(acl: ACLResult,
                       region_of: Callable[[int], Optional[str]]
                       ) -> list[PatternInstance]:
    """Pattern 6: clean values overwrote corrupted locations."""
    out = []
    for d in acl.deaths:
        if d.cause == "overwrite":
            out.append(PatternInstance("DO", d.time, d.line, d.fn, d.pc,
                                       loc=d.loc, region=region_of(d.time)))
    return out


def detect_masking_patterns(acl: ACLResult,
                            region_of: Callable[[int], Optional[str]]
                            ) -> list[PatternInstance]:
    """Patterns 3/4/5 from masking events, classified by opcode."""
    out = []
    for m in acl.maskings:
        if m.op in oc.SHIFT_OPS:
            pat = "SHIFT"
        elif m.op in oc.TRUNC_OPS or m.op == oc.EMIT:
            pat = "TRUNC"
        elif m.op in oc.CMP_OPS or m.op == oc.CBR:
            pat = "CS"
        else:
            continue  # arithmetic masking (x*0, fmin clamps, ...)
        out.append(PatternInstance(pat, m.time, m.line, m.fn, m.pc,
                                   region=region_of(m.time)))
    return out


def detect_dcl(acl: ACLResult,
               region_of: Callable[[int], Optional[str]]
               ) -> list[PatternInstance]:
    """Pattern 1: corrupted values were consumed, then their homes died.

    A `dead`/`free` death qualifies as DCL evidence when the location
    was *read at least once while corrupted* — its value flowed into an
    aggregation (LULESH's ``hourgam -> hxx -> hgfz``) — distinguishing
    it from a value that simply was never used.  The ACL pass records
    that as the death's ``read`` flag.
    """
    out = []
    for d in acl.deaths:
        if d.cause not in ("dead", "free"):
            continue
        if d.read:
            out.append(PatternInstance("DCL", d.time, d.line, d.fn, d.pc,
                                       loc=d.loc, region=region_of(d.time),
                                       details={"cause": d.cause,
                                                "birth": d.birth}))
    return out


def find_accumulator_updates(trace: Trace) -> dict[int, list[int]]:
    """Locations updated via ``x = x + ...`` chains -> update times.

    One forward scan over the whole trace tracking each register's
    latest def; a STORE (or MOV) whose value derives from an FADD/ADD
    whose chain includes a LOAD of the destination itself is an
    accumulator update (:func:`~repro.acl.table.accumulator_hit`).
    A traced analysis takes its updates from the ACL pass instead
    (``ACLResult.updates``).
    """
    n = len(trace)
    ops = trace.column(R_OP, 0, n)
    dlocs = trace.column(R_DLOC, 0, n)
    slocs = trace.column(R_SLOCS, 0, n)
    # loc -> record of its latest def so far
    last_def: dict[int, int] = {}
    updates: dict[int, list[int]] = {}

    def def_of(loc: int) -> int:
        return last_def.get(loc, -1)

    def op_slocs(t: int):
        return ops[t], slocs[t]

    for t, op, dloc, srcs in zip(range(n), ops, dlocs, slocs):
        if op == oc.STORE or op == oc.MOV:
            vloc = srcs[0]
            if vloc is not None and dloc is not None and \
                    accumulator_hit(op, dloc, vloc, def_of, op_slocs):
                updates.setdefault(dloc, []).append(t)
        if dloc is not None and dloc < 0:
            last_def[dloc] = t
    return updates


def detect_repeated_additions(ff: Trace, faulty: Trace, acl: ACLResult,
                              region_of: Callable[[int], Optional[str]],
                              min_updates: int = 2
                              ) -> list[PatternInstance]:
    """Pattern 2: corrupted accumulators whose error magnitude shrinks.

    For every accumulator location updated >= ``min_updates`` times
    while corrupted, compare the stored values against the aligned
    fault-free run; a (weakly) decreasing error-magnitude series is the
    RA signature (Table II's behaviour in MG).

    Only updates in ``[acl.start, acl.aligned)`` at or after the
    location's first birth can count: it is not corrupted before that,
    and values are compared only while the runs are aligned.  The ACL
    pass collects exactly those updates (``acl.updates``).
    """
    out = []
    for loc, times in acl.updates.items():
        corrupted_times = [t for t in times if acl.corrupted_at(loc, t)]
        if len(corrupted_times) < min_updates:
            continue
        # was the corruption eventually fully absorbed by an update?
        absorbed = any(not acl.corrupted_at(loc, t)
                       for t in times if t > corrupted_times[-1])
        mags = []
        abs_errs = []
        for v_f, v_c in zip(faulty.records.dvals_at(corrupted_times),
                            ff.records.dvals_at(corrupted_times)):
            if same_value(v_c, v_f):
                mags.append(0.0)
                abs_errs.append(0.0)
                continue
            try:
                abs_errs.append(abs(v_c - v_f))
            except TypeError:
                abs_errs.append(float("inf"))
            if isinstance(v_c, (int, float)) and v_c != 0:
                mags.append(abs(v_c - v_f) / abs(v_c))
            else:
                # the paper's Table II reports infinity when the correct
                # value is 0 (its itr1 row)
                mags.append(float("inf"))
        # require overall decay: last magnitude below first with mostly
        # non-increasing steps, in relative terms when defined, else in
        # absolute error (covers the inf-relative zero-baseline case);
        # full absorption is the strongest possible decay
        def decays(series):
            if len(series) < min_updates or not series[-1] < series[0]:
                return False
            steps = sum(1 for a, b in zip(series, series[1:]) if b <= a)
            return steps >= (len(series) - 1) / 2

        if decays(mags) or decays(abs_errs) or \
                (absorbed and len(corrupted_times) >= min_updates):
            t0 = corrupted_times[0]
            out.append(PatternInstance(
                "RA", t0, faulty.field(t0, R_LINE), faulty.field(t0, R_FN),
                faulty.field(t0, R_PC), loc=loc,
                region=region_of(t0),
                details={"updates": len(corrupted_times),
                         "magnitudes": mags[:16],
                         "abs_errors": abs_errs[:16],
                         "absorbed": absorbed}))
    return out


def detect_all(ff: Trace, faulty: Trace, acl: ACLResult,
               instances: Sequence[RegionInstance]
               ) -> list[PatternInstance]:
    """Run every detector; returns all pattern instances found."""
    region_of = region_locator(instances)
    out: list[PatternInstance] = []
    out.extend(detect_overwriting(acl, region_of))
    out.extend(detect_masking_patterns(acl, region_of))
    out.extend(detect_dcl(acl, region_of))
    out.extend(detect_repeated_additions(ff, faulty, acl, region_of))
    out.sort(key=lambda p: p.time)
    return out
