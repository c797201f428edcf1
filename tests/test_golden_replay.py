"""Golden capture replay: one untraced pass builds context and ladder.

Every executed instruction appends exactly one trace record, NOPs
included, so a record index is a dynamic-instruction index.
``repro.acl.online.build_recovery_context`` takes every region
boundary straight from the golden record stream and then replays the
program once, untraced, on the tracker's exec tier — recording boundary
facts at instance exits and snapshotting ladder rungs on the way.  This
suite checks it against the stepping oracle in ``tests/helpers.py`` (a
traced interpreter replay stepped record by record, plus a separate
ladder replay):

* **all ten apps, both tiers** — context and rungs equal the oracle's
  under the default tier and under ``REPRO_EXEC=interp``;
* **NOP kernel** — a hand-built program that executes NOPs records one
  record per instruction on both tiers, matches the oracle, and every
  sampled or probed result-mode plan flips the record it names;
* **one traced run** — building a tracker's context and ladder creates
  exactly one traced interpreter, the golden run;
* **contention** — threads racing on one shared bundle build each
  artifact once and all see the same objects.
"""

import sys
import threading

import pytest

from helpers import (nop_program, oracle_recovery_context, oracle_warm_ladder,
                     rung_image)

from repro.acl.online import build_recovery_context
from repro.apps import ALL_APPS, REGISTRY
import repro.golden
from repro.core import FlipTracker
from repro.engine.keys import program_fingerprint
from repro import warmstart
from repro.ir import opcodes as oc
from repro.trace.events import R_DLOC, static_table
from repro.vm.fault import FaultPlan
from repro.vm.exec_tier import ENV_VAR
from repro.vm.interp import Interpreter

TIERS = {"default": None, "interp": "interp"}


@pytest.fixture(params=sorted(TIERS))
def tier_env(request, monkeypatch):
    """Run the test under the default tier and under REPRO_EXEC=interp."""
    if TIERS[request.param] is None:
        monkeypatch.delenv(ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(ENV_VAR, TIERS[request.param])
    return request.param


def assert_matches_oracle(ft: FlipTracker) -> None:
    records = ft.fault_free_trace().records
    want_ctx = oracle_recovery_context(ft.program, records,
                                       ft.trace_index(), ft.instances())
    want_ladder = oracle_warm_ladder(ft.program, want_ctx)
    assert ft.recovery_context() == want_ctx
    ladder = ft.warm_ladder()
    assert (ladder.program_name, ladder.stride, ladder.total_dyn) == \
        (want_ladder.program_name, want_ladder.stride, want_ladder.total_dyn)
    assert [rung_image(r) for r in ladder.rungs] == \
        [rung_image(r) for r in want_ladder.rungs]


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_capture_matches_oracle_every_app(name, tier_env):
    with FlipTracker(REGISTRY.build(name), workers=1) as ft:
        assert_matches_oracle(ft)


# ------------------------------------------------------------ NOP kernel
@pytest.mark.parametrize("tier", ["interp", "compiled"])
def test_nop_kernel_records_every_instruction(monkeypatch, tier):
    program = nop_program(monkeypatch)
    want = program.run_fault_free(trace=True, exec_tier="interp")
    got = program.run_fault_free(trace=True, exec_tier=tier)
    assert getattr(got, "exec_tier", "interp") == tier
    assert got.dyn_count == len(got.records)
    ops = static_table(program.module).ops
    assert any(ops[rec[0]] == oc.NOP for rec in got.records)
    assert got.records == want.records


def test_capture_matches_oracle_with_nops(monkeypatch, tier_env):
    program = nop_program(monkeypatch)
    with FlipTracker(program, workers=1) as ft:
        assert (ft.fault_free_trace().op == oc.NOP).any()
        assert all((inv.entry_dyn, inv.exit_dyn) == (inst.start, inst.end)
                   for inv, inst in zip(ft.recovery_context().invariants,
                                        ft.instances()))
        assert ft.warm_ladder().rungs
        assert_matches_oracle(ft)


def analysis_image(analysis) -> str:
    acl = analysis.acl
    return repr((analysis.manifestation, list(analysis.faulty.records),
                 [(p.pattern, p.time, p.loc, p.region)
                  for p in analysis.patterns],
                 acl.births, acl.intervals, acl.divergence,
                 acl.counts.tolist(), sorted(acl.corrupted_at_end),
                 [(d.loc, d.time, d.cause, d.birth) for d in acl.deaths],
                 [(m.time, m.op) for m in acl.maskings]))


def test_nop_kernel_plans_flip_their_sampled_record(monkeypatch):
    """Site selection names a record index and the plan fires at that
    dyn index: every sampled and probed result-mode plan's first birth
    is the sampled record's destination, warm and cold."""
    program = nop_program(monkeypatch)
    with FlipTracker(program, workers=1, warm_start="on") as warm, \
            FlipTracker(program, workers=1, exec_tier="interp",
                        warm_start="off") as cold:
        records = warm.fault_free_trace().records
        plans = []
        for inst in warm.instances():
            if inst.region.kind == "loop":
                plans += warm.make_plans(inst, "internal", 5)
                plans += warm.probe_plans(inst, n_sites=2)
        plans = [plan for plan in plans if plan.mode == "result"]
        assert len(plans) >= 20
        for plan in plans:
            want = (records[plan.trigger][R_DLOC], plan.trigger)
            for ft in (warm, cold):
                assert ft.analyze_injection(plan).acl.births[0] == want


def test_warm_traced_analysis_with_nops(monkeypatch):
    """A warm traced analysis past NOPs equals a cold interpreter one,
    and the injected birth sits on the trigger's record."""
    program = nop_program(monkeypatch)
    with FlipTracker(program, workers=1, warm_start="on") as warm, \
            FlipTracker(program, workers=1, exec_tier="interp",
                        warm_start="off") as cold:
        records = warm.fault_free_trace().records
        ladder = warm.warm_ladder()
        # late definitions of a[] (memory writes), each past a rung
        sites = [t for t, rec in enumerate(records)
                 if rec[R_DLOC] is not None and rec[R_DLOC] >= 0
                 and t > ladder.rungs[0].dyn]
        assert sites
        for t in sites[len(sites) // 2::max(1, len(sites) // 4)]:
            for plan in (FaultPlan(trigger=t, mode="result", bit=52),
                         FaultPlan(trigger=t, mode="loc", bit=52,
                                   loc=records[t][R_DLOC])):
                warmstart.reset_stats()
                got = warm.analyze_injection(plan)
                assert warmstart.WARM_STATS["hits"] == 1
                want = cold.analyze_injection(plan)
                assert analysis_image(got) == analysis_image(want)
                assert got.acl.births[0] == (records[t][R_DLOC], t)


# ------------------------------------------------------- one traced run
def test_context_and_ladder_cost_one_traced_run(monkeypatch):
    traced = []
    init = Interpreter.__init__

    def counting_init(self, module, **kwargs):
        traced.append(bool(kwargs.get("trace")))
        init(self, module, **kwargs)

    monkeypatch.setattr(Interpreter, "__init__", counting_init)
    with FlipTracker(REGISTRY.build("kmeans"), workers=1) as ft:
        ft.recovery_context()
        ft.warm_ladder()
    # the traced golden run plus the untraced capture replay
    assert traced == [True, False]


def test_replay_entry_point_returns_context_and_ladder():
    with FlipTracker(REGISTRY.build("ft"), workers=1) as ft:
        records = ft.fault_free_trace().records
        ctx, ladder = build_recovery_context(
            ft.program, records, ft.trace_index(), ft.instances())
        assert ctx == ft.recovery_context()
        assert [rung_image(r) for r in ladder.rungs] == \
            [rung_image(r) for r in ft.warm_ladder().rungs]


# ------------------------------------------------------------ concurrency
def test_bundle_builds_each_artifact_once_under_contention():
    """Service threads share bundles: racing first uses build once."""
    # one build per thread, made up front: the frontend's ast.parse is
    # not safe to run from racing threads on CPython 3.11
    programs = [REGISTRY.build("ft") for _ in range(8)]
    fp = program_fingerprint(programs[0])
    prior = repro.golden.GOLDEN_CACHE.pop(fp, None)
    seen = []
    errors = []
    barrier = threading.Barrier(8)

    def use(program):
        try:
            barrier.wait(timeout=10)
            golden, _reused = repro.golden.shared_golden(program)
            tracker = golden.shared_tracker()
            seen.append((golden, tracker, golden.fault_free_trace(),
                         golden.instances(), golden.recovery_context(),
                         golden.warm_ladder(),
                         golden.io(golden.instances()[0])))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=use, args=(program,))
                   for program in programs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        with repro.golden.GOLDEN_CACHE_LOCK:
            repro.golden.GOLDEN_CACHE.pop(fp, None)
            if prior is not None:
                repro.golden.GOLDEN_CACHE[fp] = prior
    assert not errors
    assert len(seen) == 8
    first = seen[0]
    assert all(all(a is b for a, b in zip(first, other)) for other in seen)
    # trace, index, model, instances, capture replay and one io entry
    assert first[0].builds == 6
