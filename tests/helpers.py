"""Shared golden-diff helpers for tests and CI smoke jobs.

The repo's acceptance currency is the *canonical envelope*: the
``provenance=False`` JSON image of an
:class:`~repro.api.result.ExperimentResult`, byte-identical across
backends, worker counts, exec tiers and cache/store states.  Several
suites and every CI smoke job compare one of those against a golden;
this module is the single implementation of that comparison, with a
unified diff on failure instead of a bare ``assert a == b``.

Inputs may be an ``ExperimentResult``, a result payload ``dict``, a
JSON string, or a path to a JSON file — whatever form a call site has
in hand.  Everything is re-canonicalized through ``ExperimentResult``,
so a golden file that was saved *with* provenance still compares
correctly.

CI usage (replaces ``diff golden.json actual.json``)::

    PYTHONPATH=src python tests/helpers.py expected.json actual.json
"""

from __future__ import annotations

import difflib
import json
import sys


def canonical_json(result) -> str:
    """The canonical (provenance-free) JSON image of ``result``."""
    from repro.api import ExperimentResult
    if hasattr(result, "to_json"):            # an ExperimentResult
        return result.to_json(indent=2, provenance=False)
    if isinstance(result, dict):              # a payload image
        return ExperimentResult.from_dict(result).to_json(
            indent=2, provenance=False)
    text = str(result)
    if not text.lstrip().startswith("{"):     # a path, not JSON
        with open(text) as fh:
            text = fh.read()
    return ExperimentResult.from_json(text).to_json(indent=2,
                                                    provenance=False)


def assert_canonical_match(expected, actual, context: str = "") -> None:
    """Assert two result images agree canonically; diff on failure."""
    want = canonical_json(expected)
    got = canonical_json(actual)
    if want == got:
        return
    diff = "\n".join(difflib.unified_diff(
        want.splitlines(), got.splitlines(),
        fromfile="expected", tofile="actual", lineterm=""))
    prefix = f"{context}: " if context else ""
    raise AssertionError(f"{prefix}canonical envelopes differ\n{diff}")


def small_experiment_payload() -> dict:
    """A tiny real-app experiment a daemon/runner can execute in ~1s."""
    return {"schema_version": 1, "name": "svc-mini", "apps": ["kmeans"],
            "seed": 20181111,
            "specs": [{"type": "campaign", "target": "region",
                       "region": "k_d", "kind": "internal", "n": 3}]}


def oracle_recovery_context(program, records, index, instances):
    """Reference recovery context by stepping a traced replay.

    The test oracle for :func:`repro.acl.online.build_recovery_context`:
    a traced replay on the interpreter tier is stepped until its record
    count reaches each instance boundary, so the boundary dyn indices
    are observed rather than taken to equal the record indices.  Never
    used by the program itself.
    """
    from repro.acl.online import (FORWARD_THRESHOLD, BoundaryInvariant,
                                  RecoveryContext, _forward_fraction,
                                  _instance_values, state_checksum)
    interp = program.fresh_interpreter(trace=True, exec_tier="interp")
    interp.start(program.entry)
    replay = interp.records
    base = 0  # absolute record index of replay[0]

    def run_to_record(target):
        nonlocal base
        # dyn advances at least one per record appended, so stepping by
        # the outstanding record count never overshoots the target
        while base + len(replay) < target:
            if interp.step(target - base - len(replay)) == "done":
                break
        base += len(replay)
        del replay[:]

    invariants = []
    for inst in sorted(instances, key=lambda inst: inst.start):
        run_to_record(inst.start)
        entry_dyn = interp.dyn_count
        run_to_record(inst.end)
        locs, lo, hi, nonfinite = _instance_values(records, inst.start,
                                                   inst.end)
        depth = len(interp.frames)
        invariants.append(BoundaryInvariant(
            region=inst.region.name, kind=inst.region.kind,
            index=inst.index, entry_dyn=entry_dyn,
            exit_dyn=interp.dyn_count, sp=interp.sp, depth=depth,
            checksum=state_checksum(interp.mem, interp.sp, depth),
            locs=tuple(sorted(locs)), lo=lo, hi=hi, nonfinite=nonfinite,
            forward_frac=_forward_fraction(index, locs, inst.end)))
    while interp.step(1 << 20) != "done":
        del replay[:]
    by_region = {}
    for inv in invariants:
        by_region.setdefault(inv.region, []).append(inv)
    forward_ok = frozenset(
        name for name, invs in by_region.items()
        if all(inv.locs and inv.forward_frac >= FORWARD_THRESHOLD
               for inv in invs))
    return RecoveryContext(invariants=tuple(invariants),
                           forward_ok=forward_ok,
                           total_dyn=interp.dyn_count)


def oracle_warm_ladder(program, ctx):
    """Reference warm-start ladder from a separate replay.

    The replay is traced so each rung's record count is observed and
    checked against its dyn index; the snapshot itself is taken
    untraced, like the real ladder's.
    """
    from repro.warmstart import (Rung, WarmLadder, ladder_points,
                                 ladder_stride)
    stride = ladder_stride(ctx.total_dyn)
    interp = program.fresh_interpreter(trace=True, exec_tier="interp")
    interp.start(program.entry)
    rungs = []
    for point in ladder_points([inv.entry_dyn for inv in ctx.invariants],
                               ctx.total_dyn, stride):
        if interp.run_to(point) == "done":
            break
        records, interp.records = interp.records, None
        assert len(records) == point, (len(records), point)
        rungs.append(Rung(point, interp.snapshot(), tuple(interp.output)))
        interp.records = records
    return WarmLadder(program.name, stride, rungs, ctx.total_dyn)


def rung_image(rung) -> tuple:
    """Every restorable field of a ladder rung, as one comparable value
    (``repr`` so nan-valued memory compares equal to itself)."""
    snap = rung.snap
    return (rung.dyn, rung.output, snap.words, snap.dyn_count, snap.sp,
            snap.next_uid, snap.n_output, repr(snap.mem),
            repr([(fn.name, regs, pc, uid, ret_slot, mark)
                  for fn, regs, pc, uid, ret_slot, mark in snap.frames]),
            snap.fault_state, snap.ftrig, snap.finished, snap.result)


# -------------------------------------------------------------- oracles
# Record-by-record references for the columnar golden passes: the
# tuple-list versions the vectorized code replaced, kept only as test
# oracles.
ORACLE_INF = 1 << 62


class OracleTraceIndex:
    """Reference :class:`~repro.trace.index.TraceIndex`: one forward
    pass over record tuples, positions as bisected lists."""

    def __init__(self, records):
        from repro.ir import opcodes as oc
        from repro.ir.function import SLOT_LIMIT
        reads: dict = {}
        writes: dict = {}
        defs: dict = {}
        for t, rec in enumerate(records):
            for sloc in rec[3]:
                if sloc is not None:
                    reads.setdefault(sloc, []).append(t)
            if rec[1] is not None:
                writes.setdefault(rec[1], []).append(t)
                defs.setdefault(rec[1], []).append(t)
            if rec[0] == oc.CALL:
                uid, _callee, nargs = rec[8]
                rbase = -(uid * SLOT_LIMIT) - 1
                for i in range(nargs):
                    writes.setdefault(rbase - i, []).append(t)
        self.reads = reads
        self.writes = writes
        self.defs = defs     # a record's own destination only
        self.n = len(records)

    def last_read_in(self, loc, a, b):
        import bisect
        lst = self.reads.get(loc, [])
        i = bisect.bisect_left(lst, b) - 1
        return lst[i] if i >= 0 and lst[i] >= a else None

    def has_read_in(self, loc, a, b):
        import bisect
        lst = self.reads.get(loc, [])
        i = bisect.bisect_left(lst, a)
        return i < len(lst) and lst[i] < b

    def first_read_at_or_after(self, loc, t):
        import bisect
        lst = self.reads.get(loc, [])
        i = bisect.bisect_left(lst, t)
        return lst[i] if i < len(lst) else ORACLE_INF

    def read_count(self, loc):
        return len(self.reads.get(loc, ()))

    def next_write_at_or_after(self, loc, t):
        import bisect
        lst = self.writes.get(loc, [])
        i = bisect.bisect_left(lst, t)
        return lst[i] if i < len(lst) else ORACLE_INF

    def write_count(self, loc):
        return len(self.writes.get(loc, ()))

    def last_def_before(self, loc, t):
        last = -1
        for d in self.defs.get(loc, ()):
            if d >= t:
                break
            last = d
        return last


def oracle_classify_io(records, index, instance):
    """Reference :func:`~repro.regions.variables.classify_io`: one
    scan of the instance's record tuples."""
    from repro.ir import opcodes as oc
    from repro.ir.function import SLOT_LIMIT
    from repro.regions.variables import RegionIO
    a, b = instance.start, instance.end
    io = RegionIO(instance)
    inputs = io.inputs
    written: set = set()
    last_val: dict = {}
    for t in range(a, b):
        rec = records[t]
        for sloc, sval in zip(rec[3], rec[4]):
            if sloc is not None and sloc not in written \
                    and sloc not in inputs:
                inputs[sloc] = sval
        if rec[1] is not None:
            written.add(rec[1])
            last_val[rec[1]] = rec[2]
        if rec[0] == oc.CALL:
            uid, _callee, nargs = rec[8]
            rbase = -(uid * SLOT_LIMIT) - 1
            svals = rec[4]
            for i in range(nargs):
                written.add(rbase - i)
                last_val[rbase - i] = svals[i] if i < len(svals) else None
    io.written = written
    for loc in written:
        next_w = index.next_write_at_or_after(loc, b)
        horizon = next_w if next_w != ORACLE_INF else index.n
        if index.has_read_in(loc, b, horizon):
            io.outputs[loc] = last_val.get(loc)
        else:
            io.internals.add(loc)
    return io


def oracle_split_instances(records, model, golden=(), aligned=0):
    """Reference :func:`~repro.regions.model.split_instances`: one scan
    of the record tuples."""
    from bisect import bisect_left
    from repro.ir import opcodes as oc
    from repro.regions.model import RegionInstance
    fn = model.fn
    block_of_pc = fn.block_of_pc
    b2r = model.block_to_region
    last = bisect_left(golden, aligned, key=lambda inst: inst.start) - 1
    instances = list(golden[:max(last, 0)])
    cur_rid = None
    start = golden[last].start if last >= 0 else 0
    count = {inst.region.rid: inst.index + 1 for inst in instances}

    def close(end):
        nonlocal cur_rid
        if cur_rid is not None:
            idx = count.get(cur_rid, 0)
            count[cur_rid] = idx + 1
            instances.append(RegionInstance(model.regions[cur_rid], start,
                                            end, idx))
            cur_rid = None

    for t in range(start, len(records)):
        rec = records[t]
        if rec[6] != fn.index:
            continue
        rid = b2r.get(block_of_pc[rec[7]])
        if rec[0] == oc.RET:
            if rid != cur_rid:
                close(t)
                cur_rid = rid
                start = t
            close(t + 1)
            continue
        if rid != cur_rid:
            close(t)
            cur_rid = rid
            start = t
    close(len(records))
    return instances


def oracle_build_acl(ff, faulty,
                     injected_loc=None, injected_time=None,
                     taint_only=False, start=0):
    """Reference :func:`~repro.acl.table.build_acl`: the full scan
    over record tuples, with no early exit."""
    import numpy as np
    from repro.acl.table import (ACLResult, DeathEvent, MaskEvent,
                                 _frame_locs, same_value)
    from repro.ir import opcodes as oc
    from repro.ir.function import SLOT_LIMIT
    from repro.trace.events import (R_DLOC, R_DVAL, R_EXTRA, R_FN, R_LINE,
                                    R_OP, R_PC, R_SLOCS, R_SVALS)
    frecs = faulty.records
    frecs_n = len(frecs)
    ffrecs = ff.records
    n_common = min(frecs_n, len(ffrecs))
    div = next((t for t in range(start, n_common)
                if (frecs[t][R_FN], frecs[t][R_PC])
                != (ffrecs[t][R_FN], ffrecs[t][R_PC])),
               None if frecs_n == len(ffrecs) else n_common)
    aligned = div if div is not None else min(frecs_n, len(ffrecs))
    # under taint_only the taint fallback path handles every record
    aligned_until = 0 if taint_only else aligned

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

    for t in range(start, frecs_n):
        rec = frecs[t]
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
            if same_value(rec[R_DVAL], ffrecs[t][R_DVAL]):
                maskings.append(MaskEvent(t, op, rec[R_LINE], rec[R_FN],
                                          rec[R_PC]))

        elif op == oc.EMIT and t < aligned_until:
            ffrec = ffrecs[t]
            svals_differ = any(not same_value(a, b) for a, b in
                               zip(rec[R_SVALS], ffrec[R_SVALS]))
            if (corrupted_src or svals_differ) and rec[R_EXTRA] == ffrec[R_EXTRA]:
                # corrupted value, identical formatted output: the format
                # precision truncated the corruption away (Pattern 5)
                maskings.append(MaskEvent(t, op, rec[R_LINE], rec[R_FN],
                                          rec[R_PC]))

        dloc = rec[R_DLOC]
        if dloc is not None:
            if t < aligned_until:
                ffrec = ffrecs[t]
                ff_dloc = ffrec[R_DLOC]
                if dloc == ff_dloc:
                    is_corrupt = not same_value(rec[R_DVAL], ffrec[R_DVAL])
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
            for i in range(nargs):
                ploc = rbase - i
                arg_corrupt = False
                if t < aligned_until:
                    ffrec = ffrecs[t]
                    ffvals = ffrec[R_SVALS]
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
        birth_loc(injected_loc, t, frecs[t][R_SLOCS] if frecs else ())
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


def main(argv) -> int:
    if len(argv) != 2:
        print(f"usage: python {__file__} EXPECTED.json ACTUAL.json",
              file=sys.stderr)
        return 2
    try:
        assert_canonical_match(argv[0], argv[1],
                               context=f"{argv[0]} vs {argv[1]}")
    except (AssertionError, OSError, json.JSONDecodeError) as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"canonical match: {argv[0]} == {argv[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
