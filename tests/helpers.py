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
    are observed rather than derived (record index != dyn index once a
    NOP executes).  Never used by the program itself.
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

    The replay is traced so each rung's record count is observed, not
    derived; the snapshot itself is taken untraced, like the real
    ladder's.
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
        rungs.append(Rung(point, len(records), interp.snapshot(),
                          tuple(interp.output)))
        interp.records = records
    return WarmLadder(program.name, stride, rungs, ctx.total_dyn)


def rung_image(rung) -> tuple:
    """Every restorable field of a ladder rung, as one comparable value
    (``repr`` so nan-valued memory compares equal to itself)."""
    snap = rung.snap
    return (rung.dyn, rung.n_records, rung.output, snap.words,
            snap.dyn_count, snap.sp,
            snap.next_uid, snap.n_output, snap.n_records, repr(snap.mem),
            repr([(fn.name, regs, pc, uid, ret_slot, mark)
                  for fn, regs, pc, uid, ret_slot, mark in snap.frames]),
            snap.fault_state, snap.ftrig, snap.finished, snap.result)


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
