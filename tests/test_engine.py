"""Unified execution engine: cache, sharding, resume, pool, classification."""

import gc
import json
import multiprocessing
import os
import warnings

import pytest

from repro.apps.base import Program
from repro.core import FlipTracker
from repro.engine import ExecutionEngine, PlanCache, plan_key
from repro.engine.cache import SPILL_NAME
from repro.engine.core import EngineError
from repro.engine.keys import program_fingerprint
from repro.faults.campaign import (CheckerError, Manifestation,
                                   classify_check, run_campaign, run_plan)
from repro.faults.sites import NoFaultSitesError
from repro.frontend import ProgramBuilder
from repro.ir.types import F64, I64
from repro.vm.fault import FaultPlan


def tiny_program(name="tiny"):
    pb = ProgramBuilder(name)
    pb.array("a", F64, (8,))
    pb.scalar("verified", I64, 0)
    pb.func_source("""
def work() -> None:
    for i in range(8):
        a[i] = a[i] * 0.5 + 1.0

def main() -> None:
    for i in range(8):
        a[i] = float(i)
    for it in range(3):
        work()
    s = 0.0
    for i in range(8):
        s = s + a[i]
    if s > 10.0:
        if s < 50.0:
            verified = 1
""")
    return Program(name=name, module=pb.build(), region_fn="work",
                   region_prefix="w", main_fn="main")


def loop_instance(ft):
    return next(i for i in ft.instances()
                if i.region.kind == "loop" and i.index == 0)


# ---------------------------------------------------------------- PlanCache
class TestPlanCache:
    def test_memory_roundtrip(self):
        c = PlanCache()
        assert c.get("k") is None and c.misses == 1
        c.put("k", "success")
        assert c.get("k") == "success" and c.hits == 1
        assert len(c) == 1 and "k" in c

    def test_spill_and_resume(self, tmp_path):
        c = PlanCache(str(tmp_path))
        c.put("k1", "success", meta={"label": "x"})
        c.put("k2", "crashed")
        c.close()
        text = (tmp_path / SPILL_NAME).read_text()
        assert len(text.strip().splitlines()) == 2
        c2 = PlanCache(str(tmp_path))
        assert c2.loaded == 2
        assert c2.get("k2") == "crashed"

    def test_resume_false_ignores_existing(self, tmp_path):
        c = PlanCache(str(tmp_path))
        c.put("k1", "success")
        c.close()
        c2 = PlanCache(str(tmp_path), resume=False)
        assert c2.loaded == 0 and c2.get("k1") is None
        # ... but still appends, so a third loader sees both
        c2.put("k2", "failed")
        c2.close()
        c3 = PlanCache(str(tmp_path))
        assert c3.loaded == 2

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / SPILL_NAME
        good = json.dumps({"v": 1, "key": "k1", "m": "success"})
        path.write_text(good + "\n" + '{"v": 1, "key": "k2", "m": "cra')
        c = PlanCache(str(tmp_path))
        assert c.loaded == 1 and c.get("k1") == "success"

    def test_version_mismatch_ignored(self, tmp_path):
        path = tmp_path / SPILL_NAME
        path.write_text(json.dumps({"v": 999, "key": "k", "m": "success"})
                        + "\n")
        assert PlanCache(str(tmp_path)).loaded == 0

    def test_load_is_last_wins(self, tmp_path):
        """A re-executed result appended later shadows the stale line."""
        path = tmp_path / SPILL_NAME
        lines = [json.dumps({"v": 1, "key": "k", "m": "success"}),
                 json.dumps({"v": 1, "key": "k", "m": "failed"})]
        path.write_text("\n".join(lines) + "\n")
        assert PlanCache(str(tmp_path)).get("k") == "failed"

    def test_overwrite_with_new_value_respills(self, tmp_path):
        """Regression: re-putting a key with a *different* value used to
        skip the spill (the key was already in ``_mem``), so a resumed
        run replayed the stale first result instead of the re-executed
        one and silently diverged from the non-resumed run."""
        c = PlanCache(str(tmp_path))
        c.put("k", "success")
        c.put("k", "crashed")   # re-execution changed the outcome
        c.put("k", "crashed")   # same value again: must stay spill-free
        c.close()
        lines = (tmp_path / SPILL_NAME).read_text().strip().splitlines()
        assert len(lines) == 2  # one line per *distinct* value
        resumed = PlanCache(str(tmp_path))
        assert resumed.get("k") == "crashed"

    def test_put_after_torn_tail_survives_reopen(self, tmp_path):
        """Regression: a killed writer leaves a final line without its
        newline; the next ``put`` used to append onto that fragment, so
        a resumed run dropped the new record along with the torn one."""
        c = PlanCache(str(tmp_path))
        c.put("k1", "success")
        c.close()
        with open(tmp_path / SPILL_NAME, "ab") as fh:
            fh.write(b'{"v": 1, "key": "k2", "m": "fai')
        torn = PlanCache(str(tmp_path))
        assert "k1" in torn and "k2" not in torn
        torn.put("k3", "crashed")
        torn.close()
        resumed = PlanCache(str(tmp_path))
        assert resumed.get("k1") == "success"
        assert resumed.get("k3") == "crashed"
        assert "k2" not in resumed


class TestTierCrossingSpill:
    def test_spill_compiled_resume_interpreted(self, tmp_path):
        """Cache keys are exec-tier independent — deliberately: the
        tiers are byte-identical observables, so a spill written under
        ``REPRO_EXEC=compiled`` must be fully reusable by an
        interpreted resume (and vice versa) with zero re-execution.
        A tier leaking into :func:`plan_key` would silently fork the
        store into per-tier halves; this crossing locks the seam."""
        compiled = FlipTracker(tiny_program(), seed=9,
                               cache_dir=str(tmp_path), resume=True,
                               exec_tier="compiled")
        plans = compiled.make_plans(loop_instance(compiled),
                                    "internal", 10)
        first = compiled.engine.run_plans(plans,
                                          max_instr=compiled.faulty_budget)
        # duplicate draws may alias in-dispatch; everything else ran
        assert first.executed > 0 and first.total == 10
        compiled.close()

        interp = FlipTracker(tiny_program(), seed=9,
                             cache_dir=str(tmp_path), resume=True,
                             exec_tier="interp")
        replans = interp.make_plans(loop_instance(interp),
                                    "internal", 10)
        second = interp.engine.run_plans(replans,
                                         max_instr=interp.faulty_budget)
        interp.close()
        assert [(p.trigger, p.mode, p.bit, p.loc) for p in plans] == \
            [(p.trigger, p.mode, p.bit, p.loc) for p in replans]
        assert second.executed == 0 and second.cached == 10
        assert (second.success, second.failed, second.crashed) == \
            (first.success, first.failed, first.crashed)


# ---------------------------------------------------------------- engine
class TestEngineCampaigns:
    def test_second_call_fully_cached(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 10)
        with ExecutionEngine(prog) as eng:
            r1 = eng.run_plans(plans, max_instr=ft.faulty_budget)
            r2 = eng.run_plans(plans, max_instr=ft.faulty_budget)
        assert r1.details["executed"] == len(set(
            plan_key(eng.program_fp, p, ft.faulty_budget) for p in plans))
        assert r2.details["executed"] == 0
        assert r2.details["cached"] == 10
        assert (r1.success, r1.failed, r1.crashed) == \
            (r2.success, r2.failed, r2.crashed)
        # a fully cached run on a parallel engine starts no workers
        with ExecutionEngine(prog, workers=2, min_parallel=1,
                             cache=eng.cache) as eng2:
            r3 = eng2.run_plans(plans, max_instr=ft.faulty_budget)
            assert eng2.pool_starts == 0
        assert r3.details["executed"] == 0

    def test_duplicate_plans_execute_once(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plan = ft.make_plans(loop_instance(ft), "internal", 1)[0]
        with ExecutionEngine(prog) as eng:
            r = eng.run_plans([plan, plan, plan],
                              max_instr=ft.faulty_budget)
        assert r.total == 3
        assert r.details["executed"] == 1
        assert r.details["cached"] == 2  # in-call duplicates count cached
        assert r.details["executed"] + r.details["cached"] == r.total
        # all three aliases carry the same outcome
        assert r.success in (0, 3) and r.failed in (0, 3) and \
            r.crashed in (0, 3)

    def test_use_cache_false_reexecutes(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 4)
        with ExecutionEngine(prog) as eng:
            eng.run_plans(plans, max_instr=ft.faulty_budget)
            r = eng.run_plans(plans, max_instr=ft.faulty_budget,
                              use_cache=False)
        assert r.details["executed"] == 4 and r.details["cached"] == 0

    def test_budget_distinguishes_cache_entries(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 2)
        with ExecutionEngine(prog) as eng:
            eng.run_plans(plans, max_instr=ft.faulty_budget)
            r = eng.run_plans(plans, max_instr=ft.faulty_budget + 1)
        assert r.details["executed"] == 2  # different budget, new keys

    def test_disk_resume_across_engines(self, tmp_path):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 8)
        with ExecutionEngine(prog, cache_dir=str(tmp_path)) as eng:
            r1 = eng.run_plans(plans, max_instr=ft.faulty_budget)
        with ExecutionEngine(prog, cache_dir=str(tmp_path)) as eng2:
            r2 = eng2.run_plans(plans, max_instr=ft.faulty_budget)
        unique = len(set(plan_key(eng.program_fp, p, ft.faulty_budget)
                         for p in plans))
        assert r1.details["executed"] == unique
        assert r2.details["executed"] == 0 and r2.details["cached"] == 8
        assert (r1.success, r1.failed, r1.crashed) == \
            (r2.success, r2.failed, r2.crashed)

    def test_sharded_progress_stream(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 10)
        events = []
        with ExecutionEngine(prog, shard_size=3) as eng:
            unique = len(set(plan_key(eng.program_fp, p, ft.faulty_budget)
                             for p in plans))
            n_shards = -(-unique // 3)
            eng.run_plans(plans, max_instr=ft.faulty_budget, label="t",
                          on_progress=events.append)
        assert [e.shard for e in events] == list(range(1, n_shards + 1))
        assert all(e.shards == n_shards and e.phase == "campaign"
                   for e in events)
        assert [e.done for e in events] == sorted(e.done for e in events)
        assert events[-1].done == 10
        # fully cached rerun still announces completion
        with ExecutionEngine(prog, cache=eng.cache) as eng2:
            events2 = []
            eng2.run_plans(plans, max_instr=ft.faulty_budget,
                           on_progress=events2.append)
        assert len(events2) == 1 and events2[0].cached == 10

    def test_closed_engine_raises(self):
        eng = ExecutionEngine(tiny_program())
        eng.close()
        with pytest.raises(EngineError):
            eng.run_plans([], max_instr=100)

    def test_run_campaign_wrapper_cache_dir(self, tmp_path):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 6)
        r1 = run_campaign(prog, plans, workers=1,
                          max_instr=ft.faulty_budget,
                          cache_dir=str(tmp_path))
        r2 = run_campaign(prog, plans, workers=1,
                          max_instr=ft.faulty_budget,
                          cache_dir=str(tmp_path))
        assert 0 < r1.executed <= 6
        assert r2.executed == 0 and r2.cached == 6


def _pid_running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestPersistentPool:
    def test_pool_survives_across_campaigns_and_analyses(self):
        if not hasattr(os, "fork"):
            pytest.skip("needs fork")
        ft = FlipTracker(tiny_program(), seed=9, workers=2)
        inst = loop_instance(ft)
        plans = ft.make_plans(inst, "internal", 10)
        ft.engine.run_plans(plans, max_instr=ft.faulty_budget)
        ft.engine.run_plans(ft.make_plans(inst, "input", 8),
                            max_instr=ft.faulty_budget)
        ft._analyze_many(plans[:4])
        stats = ft.engine.stats()
        assert stats["pool_starts"] == 1 and stats["pool_alive"]
        ft.close()
        assert not hasattr(
            __import__("repro.core.fliptracker", fromlist=["x"]),
            "_FORK_TRACKER")

    def test_dropped_engine_terminates_its_workers(self):
        if not hasattr(os, "fork"):
            pytest.skip("needs fork")
        ft = FlipTracker(tiny_program(), seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 8)
        eng = ExecutionEngine(tiny_program(), workers=2, min_parallel=1)
        eng.run_plans(plans, max_instr=ft.faulty_budget)
        pids = set(eng.backend._worker_pids)
        assert len(pids) == 2
        del eng  # no close()
        gc.collect()  # the pool's finalizer terminates and reaps workers
        assert not any(_pid_running(pid) for pid in pids)

    def test_dropped_tracker_terminates_its_workers(self):
        """A tracker-bound engine is collectable once its pool has
        forked: nothing in the worker module pins the tracker."""
        if not hasattr(os, "fork"):
            pytest.skip("needs fork")
        ft = FlipTracker(tiny_program(), seed=9, workers=2)
        ft._analyze_many(ft.make_plans(loop_instance(ft), "internal", 6))
        pids = set(ft.engine.backend._worker_pids)
        assert len(pids) == 2
        del ft  # no close()
        gc.collect()
        assert not any(_pid_running(pid) for pid in pids)
        assert not {child.pid for child in
                    multiprocessing.active_children()} & pids

    def test_analysis_caches_manifestations(self):
        """A traced analysis warms the cache for an untraced campaign."""
        ft = FlipTracker(tiny_program(), seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 3)
        ft._analyze_many(plans)
        r = ft.engine.run_plans(plans, max_instr=ft.faulty_budget)
        assert r.details["executed"] == 0 and r.details["cached"] == 3
        ft.close()


# -------------------------------------------------------- FlipTracker API
class TestTrackerEngineIntegration:
    def test_repeated_region_campaign_zero_new_runs(self):
        ft = FlipTracker(tiny_program(), seed=9)
        region = loop_instance(ft).region.name
        r1 = ft.region_campaign(region, "internal", n=8)
        r2 = ft.region_campaign(region, "internal", n=8)
        assert 0 < r1.executed <= 8  # duplicates of a tiny site
        assert r2.executed == 0 and r2.cached == 8  # population collapse
        assert str(r1).split(" [")[0] == str(r2).split(" [")[0]
        ft.close()

    def test_cache_dir_resume_across_trackers(self, tmp_path):
        prog_a, prog_b = tiny_program(), tiny_program()
        with FlipTracker(prog_a, seed=9, cache_dir=str(tmp_path)) as a:
            region = loop_instance(a).region.name
            r1 = a.region_campaign(region, "internal", n=8)
        with FlipTracker(prog_b, seed=9, cache_dir=str(tmp_path)) as b:
            r2 = b.region_campaign(region, "internal", n=8)
        assert 0 < r1.executed <= 8 and r2.executed == 0
        assert (r1.success, r1.failed, r1.crashed) == \
            (r2.success, r2.failed, r2.crashed)

    def test_resume_false_reexecutes(self, tmp_path):
        with FlipTracker(tiny_program(), seed=9,
                         cache_dir=str(tmp_path)) as a:
            region = loop_instance(a).region.name
            a.region_campaign(region, "internal", n=4)
        with FlipTracker(tiny_program(), seed=9, cache_dir=str(tmp_path),
                         resume=False) as b:
            r = b.region_campaign(region, "internal", n=4)
        assert r.executed > 0 and r.cached == 0

    def test_program_fingerprint_separates_programs(self):
        fp_a = program_fingerprint(tiny_program())
        fp_b = program_fingerprint(tiny_program("other"))
        assert fp_a != fp_b
        assert fp_a == program_fingerprint(tiny_program())


# ------------------------------------------------------------ make_plans
class TestMakePlansBudget:
    def test_partial_yield_warns(self, monkeypatch):
        ft = FlipTracker(tiny_program(), seed=9)
        inst = loop_instance(ft)
        real = __import__("repro.faults.sites",
                          fromlist=["sample_internal_plan"]
                          ).sample_internal_plan
        calls = {"n": 0}

        def flaky(records, io, module, rng):
            calls["n"] += 1
            return real(records, io, module, rng) \
                if calls["n"] % 8 == 0 else None

        monkeypatch.setattr("repro.core.fliptracker.sample_internal_plan",
                            flaky)
        with pytest.warns(RuntimeWarning, match="drew only"):
            plans = ft.make_plans(inst, "internal", 6)
        assert 0 < len(plans) < 6

    def test_zero_yield_raises(self, monkeypatch):
        ft = FlipTracker(tiny_program(), seed=9)
        inst = loop_instance(ft)
        monkeypatch.setattr("repro.core.fliptracker.sample_internal_plan",
                            lambda *a: None)
        with pytest.raises(NoFaultSitesError, match="no internal sites"):
            ft.make_plans(inst, "internal", 5)

    def test_zero_yield_non_strict_warns(self, monkeypatch):
        ft = FlipTracker(tiny_program(), seed=9)
        inst = loop_instance(ft)
        monkeypatch.setattr("repro.core.fliptracker.sample_internal_plan",
                            lambda *a: None)
        with pytest.warns(RuntimeWarning, match="drew only 0"):
            assert ft.make_plans(inst, "internal", 5, strict=False) == []

    def test_n_zero_is_silent(self):
        ft = FlipTracker(tiny_program(), seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ft.make_plans(loop_instance(ft), "internal", 0) == []


# -------------------------------------------------- check classification
class TestCheckClassification:
    def _program_with_check(self, check):
        prog = tiny_program()
        prog.check = check
        return prog

    def test_state_errors_mean_failed(self):
        prog = self._program_with_check(
            lambda interp: (_ for _ in ()).throw(TypeError("corrupt")))
        assert classify_check(prog, None) is Manifestation.FAILED
        prog.check = lambda interp: (_ for _ in ()).throw(
            ValueError("nan index"))
        assert classify_check(prog, None) is Manifestation.FAILED
        prog.check = lambda interp: (_ for _ in ()).throw(
            OverflowError("huge"))
        assert classify_check(prog, None) is Manifestation.FAILED

    def test_checker_bug_raises_distinctly(self):
        prog = self._program_with_check(
            lambda interp: interp.no_such_attribute)

        class FakeInterp:
            pass
        with pytest.raises(CheckerError):
            classify_check(prog, FakeInterp())

    def test_run_plan_surfaces_checker_bug(self):
        prog = self._program_with_check(
            lambda interp: (_ for _ in ()).throw(RuntimeError("bug")))
        ft = FlipTracker(tiny_program(), seed=4)
        n = len(ft.fault_free_trace())
        plan = FaultPlan(trigger=n - 5, mode="result", bit=0)
        with pytest.raises(CheckerError):
            run_plan(prog, plan)

    def test_analyze_injection_surfaces_checker_bug(self):
        ft = FlipTracker(tiny_program(), seed=4)
        n = len(ft.fault_free_trace())  # golden run checked while sane
        ft.program.check = lambda interp: (_ for _ in ()).throw(
            KeyError("oops"))
        benign = FaultPlan(trigger=n - 5, mode="result", bit=0)
        with pytest.raises(CheckerError):
            ft.analyze_injection(benign)


# ------------------------------------------------------------ CLI flags
class TestCliEngineFlags:
    def test_cold_then_resumed_campaign(self, capsys, tmp_path):
        from repro.cli import main
        argv = ["--seed", "3", "--cache-dir", str(tmp_path),
                "campaign", "kmeans", "k_d", "-n", "6"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "6 executed, 0 reused" in cold
        assert main(["--resume"] + argv) == 0
        warm = capsys.readouterr().out
        assert "0 executed, 6 reused" in warm
        assert cold.splitlines()[0].split(" [")[0] == \
            warm.splitlines()[0].split(" [")[0]

    def test_progress_flag_streams_shards(self, capsys, tmp_path):
        from repro.cli import main
        assert main(["--seed", "3", "--shard-size", "4", "campaign",
                     "kmeans", "k_d", "-n", "8", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[campaign]" in err and "shard 2/2" in err


# ---------------------------------------------------- multi-label batches
class TestPlanGroupBatches:
    """run_plan_groups / analyze_plan_groups: the repro.api demux seam."""

    def setup_method(self):
        self.prog = tiny_program()
        self.ft = FlipTracker(self.prog, seed=9)
        inst = loop_instance(self.ft)
        self.internal = self.ft.make_plans(inst, "internal", 6)
        self.inputs = self.ft.make_plans(inst, "input", 5)
        self.budget = self.ft.faulty_budget

    def test_singleton_group_equals_run_plans(self):
        with ExecutionEngine(self.prog) as eng:
            grouped = eng.run_plan_groups([("a", self.internal)],
                                          max_instr=self.budget)[0]
        with ExecutionEngine(self.prog) as eng2:
            plain = eng2.run_plans(self.internal, max_instr=self.budget,
                                   label="a")
        assert grouped == plain

    def test_batch_equals_sequential_calls(self):
        groups = [("g0", self.internal), ("g1", self.inputs),
                  ("g2", self.internal)]  # g2 duplicates g0 entirely
        with ExecutionEngine(self.prog) as eng:
            batched = eng.run_plan_groups(groups, max_instr=self.budget)
        with ExecutionEngine(self.prog) as eng2:
            sequential = [eng2.run_plans(plans, max_instr=self.budget,
                                         label=label)
                          for label, plans in groups]
        assert batched == sequential
        # the duplicate group was served by aliasing, like a cache hit
        assert batched[2].details["executed"] == 0
        assert batched[2].details["cached"] == len(self.internal)

    def test_batch_is_one_backend_fanout(self):
        calls = []
        with ExecutionEngine(self.prog) as eng:
            original = eng.backend.run_shards

            def counting(shards, max_instr):
                calls.append(len(shards))
                return original(shards, max_instr)

            eng.backend.run_shards = counting
            eng.run_plan_groups([("g0", self.internal),
                                 ("g1", self.inputs)],
                                max_instr=self.budget)
        assert len(calls) == 1  # the whole batch: one dispatch

    def test_group_shard_boundaries_match_legacy(self):
        events = []
        with ExecutionEngine(self.prog, shard_size=4) as eng:
            results = eng.run_plan_groups(
                [("g0", self.internal), ("g1", self.inputs)],
                max_instr=self.budget, on_progress=events.append)
        for result in results:
            executed = result.details["executed"]
            assert result.details["shards"] == -(-executed // 4)
        labels = [e.label for e in events]
        assert labels == sorted(labels, key=("g0", "g1").index)
        for label, result in zip(("g0", "g1"), results):
            shards = [e.shard for e in events if e.label == label]
            assert shards == list(range(1, result.details["shards"] + 1))

    def test_use_cache_false_scopes_dedup_to_one_group(self):
        with ExecutionEngine(self.prog) as eng:
            results = eng.run_plan_groups(
                [("g0", self.internal), ("g1", self.internal)],
                max_instr=self.budget, use_cache=False)
        # sequential use_cache=False calls re-execute; so must the batch
        for result in results:
            assert result.details["cached"] == \
                len(self.internal) - result.details["executed"]
            assert result.details["executed"] > 0

    def test_analyze_groups_equal_sequential(self):
        groups = [("a0", self.internal[:3]), ("a1", self.internal[:3])]
        ft1 = FlipTracker(self.prog, seed=9)
        eng = ft1.engine
        batched = eng.analyze_plan_groups(groups, max_instr=self.budget)
        executed_after_batch = eng.executed
        sequential = [eng.analyze_plans(plans, max_instr=self.budget)
                      for _label, plans in groups]
        ft1.close()
        assert batched == sequential
        # duplicates across groups were analyzed once in the batch
        assert executed_after_batch == 3

    def test_empty_groups(self):
        with ExecutionEngine(self.prog) as eng:
            results = eng.run_plan_groups([("e", [])],
                                          max_instr=self.budget)
        assert results[0].total == 0 and results[0].details["shards"] == 0


# ------------------------------------------------------- close re-entry
class TestTrackerCloseReentry:
    def test_close_twice_is_noop(self):
        ft = FlipTracker(tiny_program(), seed=9)
        ft.region_campaign(loop_instance(ft).region.name, "internal", n=2)
        ft.close()
        ft.close()  # second close must not touch the dead engine

    def test_close_before_use_is_noop(self):
        FlipTracker(tiny_program(), seed=9).close()

    def test_closed_tracker_rebuilds_engine_lazily(self):
        ft = FlipTracker(tiny_program(), seed=9)
        region = loop_instance(ft).region.name
        r1 = ft.region_campaign(region, "internal", n=4)
        first_engine = ft._engine
        ft.close()
        assert ft._engine is None
        r2 = ft.region_campaign(region, "internal", n=4)  # rebuilds
        assert ft._engine is not None and ft._engine is not first_engine
        assert (r1.success, r1.failed, r1.crashed) == \
            (r2.success, r2.failed, r2.crashed)
        ft.close()
