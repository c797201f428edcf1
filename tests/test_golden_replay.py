"""Golden capture replay: one untraced pass builds context and ladder.

``repro.acl.online.build_recovery_context`` derives every region
boundary's dynamic-instruction index from the golden record stream and
then replays the program once, untraced, on the tracker's exec tier —
recording boundary facts at instance exits and snapshotting ladder
rungs on the way.  This suite checks it against the stepping oracle in
``tests/helpers.py`` (a traced interpreter replay stepped record by
record, plus a separate ladder replay):

* **all ten apps, both tiers** — context and rungs equal the oracle's
  under the default tier and under ``REPRO_EXEC=interp``;
* **NOP kernel** — a hand-built program whose NOPs make record index
  differ from dyn index gets the exact record -> dyn map;
* **one traced run** — building a tracker's context and ladder creates
  exactly one traced interpreter, the golden run;
* **contention** — threads racing on one shared bundle build each
  artifact once and all see the same objects.
"""

import sys
import threading

import pytest

from helpers import oracle_recovery_context, oracle_warm_ladder, rung_image

from repro.acl.online import build_recovery_context, record_dyn_map
from repro.apps import ALL_APPS, REGISTRY
from repro.apps.base import Program
import repro.golden
from repro.core import FlipTracker
from repro.engine.keys import program_fingerprint
from repro import warmstart
from repro.frontend import ProgramBuilder
from repro.ir import opcodes as oc
from repro.ir.function import Function
from repro.ir.instructions import Instr
from repro.ir.types import F64, I64
from repro.trace.columnar import GoldenTrace
from repro.trace.events import R_DLOC
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
        # every registered app is NOP-free: record index == dyn index
        ft.fault_free_trace()
        assert ft._golden.dyn_count == len(ft.fault_free_trace())
        assert_matches_oracle(ft)


# ------------------------------------------------------------ NOP kernel
NOP_SOURCE = """
def work(n: int) -> None:
    for i in range(n):
        a[i] = a[i] * 0.5 + 1.0

def main() -> None:
    for i in range(64):
        a[i] = float(i)
    for it in range(12):
        work(64)
    s = 0.0
    for i in range(64):
        s = s + a[i]
    if s > 10.0:
        verified = 1
"""


def nop_program(monkeypatch) -> Program:
    """The kernel above with a NOP opening every basic block and
    following every CALL: NOPs run at the entry, at callee entry, at
    branch targets and on return, so record and dyn indices drift."""
    finalize = Function.finalize

    def finalize_with_nops(fn):
        for block in fn.blocks:
            line = block.instrs[0].line
            padded = [Instr(oc.NOP, None, (), None, line, I64)]
            for instr in block.instrs:
                padded.append(instr)
                if instr.op == oc.CALL:
                    padded.append(Instr(oc.NOP, None, (), None, line, I64))
            block.instrs[:] = padded
        finalize(fn)

    pb = ProgramBuilder("nops")
    pb.array("a", F64, (64,))
    pb.scalar("verified", I64, 0)
    pb.func_source(NOP_SOURCE)
    with monkeypatch.context() as patch:
        patch.setattr(Function, "finalize", finalize_with_nops)
        module = pb.build()
    return Program(name="nops", module=module, region_fn="main",
                   region_prefix="n", main_fn="main")


def test_record_dyn_map_is_exact_with_nops(monkeypatch):
    program = nop_program(monkeypatch)
    interp = program.fresh_interpreter(trace=True, exec_tier="interp")
    interp.start(program.entry)
    observed = [0]  # dyn index at which exactly s records exist
    while interp.step(1) != "done":
        if len(interp.records) == len(observed):
            observed.append(interp.dyn_count)
    observed.append(interp.dyn_count)
    assert len(observed) == len(interp.records) + 1
    assert interp.dyn_count > len(interp.records)  # NOPs executed
    golden = GoldenTrace.from_records(interp.records)
    record_map = record_dyn_map(golden, program.module, interp.dyn_count)
    assert [record_map.dyn_at(s) for s in range(len(observed))] == observed
    # the inverse: records appended before each dyn index executes
    for s, dyn in enumerate(observed[:-1]):
        assert record_map.records_at(dyn) == s
        assert record_map.records_at(observed[s + 1] - 1) == s
    assert record_map.records_at(interp.dyn_count) == len(interp.records)
    with pytest.raises(ValueError):
        record_dyn_map(golden, program.module, interp.dyn_count + 1)


def test_capture_matches_oracle_with_nops(monkeypatch, tier_env):
    program = nop_program(monkeypatch)
    with FlipTracker(program, workers=1) as ft:
        assert ft._golden.dyn_count != len(ft.fault_free_trace())
        assert any(inv.entry_dyn != inst.start for inv, inst in
                   zip(ft.recovery_context().invariants, ft.instances()))
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


def test_warm_traced_analysis_with_nops(monkeypatch):
    """The injected birth sits on the trigger's record even where NOPs
    make record and dyn indices drift, and a warm traced analysis
    equals a cold interpreter one."""
    program = nop_program(monkeypatch)
    with FlipTracker(program, workers=1, warm_start="on") as warm, \
            FlipTracker(program, workers=1, exec_tier="interp",
                        warm_start="off") as cold:
        records = warm.fault_free_trace().records
        record_map = warm._golden.record_map
        ladder = warm.warm_ladder()
        assert any(r.n_records != r.dyn for r in ladder.rungs)
        # late definitions of a[] (memory writes), each past a rung
        sites = [t for t, rec in enumerate(records)
                 if rec[R_DLOC] is not None and rec[R_DLOC] >= 0
                 and record_map.dyn_at(t + 1) - 1 > ladder.rungs[0].dyn]
        assert sites
        for t in sites[len(sites) // 2::max(1, len(sites) // 4)]:
            trigger = record_map.dyn_at(t + 1) - 1
            assert trigger != t
            for plan in (FaultPlan(trigger=trigger, mode="result", bit=52),
                         FaultPlan(trigger=trigger, mode="loc", bit=52,
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
            ft.program, records, ft.trace_index(), ft.instances(),
            record_map=ft._golden.record_map)
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
