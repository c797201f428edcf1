"""Warm-start golden snapshot ladder: invisibility + unit behavior.

The warm-start contract (``repro.warmstart``, ``docs/architecture.md``
"Warm-start execution") is that restoring a golden ladder rung and
executing only the suffix of a faulty run is *invisible* on every
observable: manifestation value, ``FaultRecord``, output, memory,
dynamic instruction count, crash surface, recovery-outcome bytes.
This suite enforces it four ways:

* **property** (Hypothesis) — ``restore rung -> resume_run`` finishes
  byte-identical to the straight run for arbitrary trigger indices on
  both exec tiers, including the materialized output prefix;
* **all ten kernels** — warm (default tier) vs cold (``interp``
  reference tier) campaign outcomes and ``FaultRecord`` images are
  equal across every registered app;
* **traced runs** — a warm traced run holds exactly the golden record
  prefix after the restore, and after ``resume_run`` its records,
  output, ``dyn_count`` and ``FaultRecord`` equal a cold traced run;
* **units** — mode resolution (arg > env > default-on), ladder
  geometry (region-aligned rungs, stride floor), rung selection,
  cold-fallback eligibility rules, stats accounting, the CLI flag,
  and the shard server's fingerprint-keyed tracker reuse.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS, REGISTRY
from repro.core import FlipTracker
from repro.faults.campaign import execute_plan, run_plan
from repro.parallel.comm import SimComm
from repro.trace.events import R_DLOC
from repro.vm.fault import FaultPlan
from repro.vm.interp import Interpreter
from repro import warmstart
from repro.warmstart import (
    WARM_STATS, WarmLadder, build_warm_ladder, ladder_points,
    resolve_warmstart, warm_start_interp,
)

_settings = settings(max_examples=20, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

# one tracker (and ladder) per app, shared across this module
_trackers: dict = {}


def ft_for(name: str) -> FlipTracker:
    if name not in _trackers:
        _trackers[name] = FlipTracker(REGISTRY.build(name), workers=1)
    return _trackers[name]


def record_image(interp) -> str:
    # repr-compare: flipped values can be nan, and two runs produce
    # distinct nan objects that tuple equality rejects (nan != nan)
    r = interp.fault_record
    return repr((r.fired, r.loc, r.old_value, r.new_value, r.dyn_index))


def final_image(interp) -> tuple:
    """Every observable of a finished run, as one comparable value."""
    return (interp.dyn_count, interp.sp, repr(list(interp.mem)),
            tuple(interp.output), interp.finished, record_image(interp))


# ---------------------------------------------------------------- modes
class TestResolveWarmstart:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv(warmstart.ENV_VAR, raising=False)
        assert resolve_warmstart() is True

    def test_env_modes(self, monkeypatch):
        monkeypatch.setenv(warmstart.ENV_VAR, "off")
        assert resolve_warmstart() is False
        monkeypatch.setenv(warmstart.ENV_VAR, "on")
        assert resolve_warmstart() is True
        monkeypatch.setenv(warmstart.ENV_VAR, "")
        assert resolve_warmstart() is True

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv(warmstart.ENV_VAR, "off")
        assert resolve_warmstart(True) is True
        assert resolve_warmstart("on") is True
        monkeypatch.setenv(warmstart.ENV_VAR, "on")
        assert resolve_warmstart(False) is False
        assert resolve_warmstart("off") is False

    def test_unknown_mode_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_warmstart("lukewarm")
        monkeypatch.setenv(warmstart.ENV_VAR, "banana")
        with pytest.raises(ValueError):
            resolve_warmstart()


# --------------------------------------------------------------- ladder
class TestLadderGeometry:
    def test_points_are_region_aligned_where_possible(self):
        ft = ft_for("kmeans")
        ctx = ft.recovery_context()
        ladder = ft.warm_ladder()
        entries = {inv.entry_dyn for inv in ctx.invariants}
        aligned = [r for r in ladder.rungs if r.dyn in entries]
        assert aligned, "no rung landed on a region-instance boundary"

    def test_stride_floor_and_ordering(self):
        ft = ft_for("kmeans")
        ladder = ft.warm_ladder()
        dyns = [r.dyn for r in ladder.rungs]
        assert dyns == sorted(dyns)
        assert len(dyns) == len(set(dyns))
        assert all(0 < d < ladder.total_dyn for d in dyns)
        assert all(b - a >= warmstart.MIN_STRIDE
                   for a, b in zip(dyns, dyns[1:]))

    def test_rung_for_is_highest_at_or_below(self):
        ft = ft_for("kmeans")
        ladder = ft.warm_ladder()
        first = ladder.rungs[0].dyn
        assert ladder.rung_for(first - 1) is None
        assert ladder.rung_for(first).dyn == first
        last = ladder.rungs[-1].dyn
        assert ladder.rung_for(ladder.total_dyn * 2).dyn == last
        mid = ladder.rungs[len(ladder.rungs) // 2]
        assert ladder.rung_for(mid.dyn + 1).dyn == mid.dyn

    def test_rungs_carry_golden_state(self):
        """Each rung is the straight run's state at its dyn index."""
        ft = ft_for("kmeans")
        ladder = ft.warm_ladder()
        program = ft.program
        interp = program.fresh_interpreter(exec_tier="interp")
        interp.start(program.entry)
        for rung in ladder.rungs[:3]:
            interp.run_to(rung.dyn)
            assert interp.dyn_count == rung.snap.dyn_count == rung.dyn
            assert tuple(interp.output) == rung.output
            assert repr(list(interp.mem)) == repr(list(rung.snap.mem))

    def test_ladder_points_empty_context(self):
        ft = ft_for("kmeans")
        ctx = ft.recovery_context()
        pts = ladder_points([inv.entry_dyn for inv in ctx.invariants],
                            ctx.total_dyn, stride=ctx.total_dyn * 2)
        assert pts == []

    def test_memoized_on_tracker(self):
        ft = ft_for("kmeans")
        assert ft.warm_ladder() is ft.warm_ladder()


# ------------------------------------------------------------- property
PROGRAM = REGISTRY.build("kmeans")

fractions = st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_infinity=False)

_COLD: dict = {}


def cold_run(trigger: int, bit: int, tier: str) -> tuple:
    key = (trigger, bit, tier)
    if key not in _COLD:
        plan = FaultPlan(trigger=trigger, mode="result", bit=bit)
        interp = PROGRAM.fresh_interpreter(fault=plan, exec_tier=tier)
        try:
            interp.run(PROGRAM.entry)
        except Exception as exc:
            _COLD[key] = ("crash", type(exc).__name__)
        else:
            _COLD[key] = ("done", final_image(interp))
    return _COLD[key]


@given(at=fractions, bit=st.integers(min_value=0, max_value=63),
       tier=st.sampled_from(["interp", "compiled"]))
@_settings
def test_warm_resume_equals_straight_run(at, bit, tier):
    ladder = ft_for("kmeans").warm_ladder()
    trigger = int(at * (ladder.total_dyn - 1))
    plan = FaultPlan(trigger=trigger, mode="result", bit=bit)
    interp = PROGRAM.fresh_interpreter(fault=plan, exec_tier=tier)
    engaged = warm_start_interp(interp, ladder, plan)
    try:
        if engaged:
            interp.resume_run(PROGRAM.entry)
        else:
            interp.run(PROGRAM.entry)
    except Exception as exc:
        warm = ("crash", type(exc).__name__)
    else:
        warm = ("done", final_image(interp))
    assert warm == cold_run(trigger, bit, tier)


# ------------------------------------------------------- all ten kernels
def _faulty_run(program, plan, ladder, exec_tier=None) -> tuple:
    """One faulty run (warm when a rung applies) -> comparable image."""
    interp = program.fresh_interpreter(fault=plan, exec_tier=exec_tier)
    engaged = (ladder is not None
               and warm_start_interp(interp, ladder, plan))
    try:
        if engaged:
            interp.resume_run(program.entry)
        else:
            interp.run(program.entry)
    except Exception as exc:
        return ("crash", type(exc).__name__, record_image(interp))
    return ("done", final_image(interp))


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_warm_equals_cold_every_app(name):
    ft = ft_for(name)
    ladder = ft.warm_ladder()
    n_dyn = ladder.total_dyn
    plans = [FaultPlan(trigger=(i * 9973 + 17) % n_dyn, mode="result",
                       bit=(i * 13) % 64) for i in range(3)]
    # the cold side runs on the interp reference tier, so each check
    # compares warm default-tier runs against the reference
    for plan in plans:
        # engine-layer outcome value parity
        cold = execute_plan(ft.program, plan, exec_tier="interp",
                            tracker_factory=lambda: ft, warm_start=False)
        warm = execute_plan(ft.program, plan,
                            tracker_factory=lambda: ft, warm_start=True)
        assert cold == warm
        # VM-layer parity: FaultRecord, memory, output, crash surface
        assert _faulty_run(ft.program, plan, None, exec_tier="interp") \
            == _faulty_run(ft.program, plan, ladder)
    assert run_plan(ft.program, plans[0], ladder=ladder) \
        == run_plan(ft.program, plans[0], exec_tier="interp")


# ------------------------------------------------------- traced runs
def _traced_image(interp) -> tuple:
    return (repr(interp.records),) + final_image(interp)


def _drive(interp, warm: bool) -> tuple:
    try:
        if warm:
            interp.resume_run(PROGRAM.entry)
        else:
            interp.run(PROGRAM.entry)
    except Exception as exc:
        return ("crash", type(exc).__name__) + _traced_image(interp)
    return ("done",) + _traced_image(interp)


@pytest.mark.parametrize("tier", ["interp", "compiled"])
@pytest.mark.parametrize("mode", ["result", "loc"])
def test_traced_warm_start_splices_golden_prefix(tier, mode):
    """A traced run restores the rung, receives the golden record prefix
    and, after ``resume_run``, equals a cold traced run: records,
    output, ``dyn_count`` and ``FaultRecord``."""
    ft = ft_for("kmeans")
    ladder = ft.warm_ladder()
    golden = ft.fault_free_trace().records
    for rung in ladder.rungs[1::len(ladder.rungs) // 3]:
        trigger = rung.dyn + 5
        # loc mode: the next heap cell the golden run writes
        target = next(rec[R_DLOC] for rec in golden[trigger:]
                      if rec[R_DLOC] is not None and rec[R_DLOC] >= 0)
        plan = FaultPlan(trigger=trigger, mode=mode, bit=51,
                         loc=target if mode == "loc" else None)
        interp = PROGRAM.fresh_interpreter(trace=True, fault=plan,
                                           exec_tier=tier)
        assert warm_start_interp(interp, ladder, plan, golden) is True
        assert interp.records == golden[:rung.n_records]
        assert interp.dyn_count == rung.dyn
        cold = PROGRAM.fresh_interpreter(trace=True, fault=plan,
                                         exec_tier="interp")
        assert _drive(interp, True) == _drive(cold, False)
        assert interp.fault_record.fired


# ---------------------------------------------------------- eligibility
class TestColdFallback:
    def test_traced_run_without_golden_records_stays_cold(self):
        ft = ft_for("kmeans")
        ladder = ft.warm_ladder()
        plan = FaultPlan(trigger=ladder.rungs[-1].dyn, mode="result",
                         bit=1)
        interp = PROGRAM.fresh_interpreter(trace=True, fault=plan)
        assert warm_start_interp(interp, ladder, plan) is False
        assert interp.dyn_count == 0

    @pytest.mark.parametrize("traced", [False, True])
    def test_early_trigger_stays_cold(self, traced):
        ft = ft_for("kmeans")
        ladder = ft.warm_ladder()
        plan = FaultPlan(trigger=ladder.rungs[0].dyn - 1, mode="result",
                         bit=1)
        interp = PROGRAM.fresh_interpreter(trace=traced, fault=plan)
        warmstart.reset_stats()
        assert warm_start_interp(interp, ladder, plan,
                                 ft.fault_free_trace().records) is False
        assert WARM_STATS["misses"] == 1
        assert interp.dyn_count == 0
        assert not interp.records

    @pytest.mark.parametrize("traced", [False, True])
    def test_communicator_run_stays_cold(self, traced):
        ft = ft_for("kmeans")
        ladder = ft.warm_ladder()
        plan = FaultPlan(trigger=ladder.rungs[-1].dyn, mode="result",
                         bit=1)
        interp = Interpreter(PROGRAM.module, trace=traced, fault=plan,
                             comm=SimComm(1))
        assert warm_start_interp(interp, ladder, plan,
                                 ft.fault_free_trace().records) is False
        assert interp.dyn_count == 0
        assert not interp.records

    def test_no_fault_stays_cold(self):
        ft = ft_for("kmeans")
        ladder = ft.warm_ladder()
        interp = PROGRAM.fresh_interpreter()
        assert warm_start_interp(interp, ladder, None) is False

    @pytest.mark.parametrize("traced", [False, True])
    def test_tight_budget_stays_cold(self, traced):
        """A rung at/past max_instr must not dodge the hang surface."""
        ft = ft_for("kmeans")
        ladder = ft.warm_ladder()
        rung = ladder.rungs[-1]
        plan = FaultPlan(trigger=rung.dyn, mode="result", bit=1)
        interp = PROGRAM.fresh_interpreter(trace=traced, fault=plan,
                                           max_instr=rung.dyn)
        assert warm_start_interp(interp, ladder, plan,
                                 ft.fault_free_trace().records) is False
        assert not interp.records

    def test_engage_counts_saved_instructions(self):
        ft = ft_for("kmeans")
        ladder = ft.warm_ladder()
        rung = ladder.rungs[-1]
        plan = FaultPlan(trigger=rung.dyn + 1, mode="result", bit=1)
        interp = PROGRAM.fresh_interpreter(fault=plan)
        warmstart.reset_stats()
        assert warm_start_interp(interp, ladder, plan) is True
        assert WARM_STATS["hits"] == 1
        assert WARM_STATS["saved_instr"] == rung.dyn
        assert interp.dyn_count == rung.dyn
        assert tuple(interp.output) == rung.output


# -------------------------------------------------------------- rejoin
def test_shard_server_reuses_tracker_by_fingerprint():
    """Satellite: a rejoining server adopts the cached warmed tracker."""
    from repro.engine.backends import server as server_mod
    from repro.golden import GOLDEN_CACHE, GOLDEN_CACHE_LOCK
    program = REGISTRY.build("kmeans")
    first = server_mod.ShardServer(program, port=0)
    # the cache is process-wide: another suite's kmeans server may have
    # populated it already, so start this test from a clean slate and
    # put whatever was there back afterwards
    with GOLDEN_CACHE_LOCK:
        prior = GOLDEN_CACHE.pop(first.fingerprint, None)
    try:
        try:
            tracker = first._analysis_tracker()
            assert first.tracker_reused is False
        finally:
            first.stop()
        second = server_mod.ShardServer(REGISTRY.build("kmeans"), port=0)
        try:
            assert second._analysis_tracker() is tracker
            assert second.tracker_reused is True
        finally:
            second.stop()
    finally:
        with GOLDEN_CACHE_LOCK:
            if prior is None:
                GOLDEN_CACHE.pop(first.fingerprint, None)
            else:
                GOLDEN_CACHE[first.fingerprint] = prior


# ----------------------------------------------------------------- CLI
def test_cli_flag_exports_env(capsys):
    import os

    from repro import cli
    before = os.environ.pop(warmstart.ENV_VAR, None)
    try:
        assert cli.main(["--warm-start", "off", "apps"]) == 0
        assert os.environ.get(warmstart.ENV_VAR) == "off"
    finally:
        if before is None:
            os.environ.pop(warmstart.ENV_VAR, None)
        else:
            os.environ[warmstart.ENV_VAR] = before
    capsys.readouterr()
