"""Unit + semantics suite for the ``repro.recovery`` subsystem.

Covers the protected-execution tentpole end to end below the engine:

* plan/outcome plumbing — ``RecoveryPlan`` validation, the canonical
  ``RecoveryOutcome`` wire image, ``RecoveryResult`` aggregation;
* the precomputed online-check context (``repro.acl.online``) —
  boundary ordering, memoization, build determinism, detector
  soundness on the golden state itself;
* policy semantics on a real app — ``abort`` never restores,
  ``rollback``/``recompute-region`` rescue detected runs by restoring,
  ``forward-correct`` only rides through overwrite-dominated regions,
  an exhausted ``max_recoveries`` coasts (``gave_up``);
* the engine-facing seams — ``execute_plan`` dispatch (recovery plans
  need a tracker factory), key-codec round trips and cache-key
  disjointness from plain fault plans.

Cross-substrate byte-parity lives in ``test_determinism.py``; the
snapshot/restore property suite in ``test_recovery_properties.py``.
"""

import json

import pytest

from repro.acl.online import detect, state_checksum
from repro.apps import REGISTRY
from repro.core import FlipTracker
from repro.engine.keys import decode_plan, encode_plan, plan_key
from repro.faults.campaign import execute_plan
from repro.recovery import (DETECTORS, FINAL_STATES, POLICIES,
                            RecoveryOutcome, RecoveryPlan, RecoveryResult,
                            run_recovery_plan)
from repro.vm.fault import FaultPlan

SEED = 20181111
REGION = "k_d"          # kmeans loop region with internal fault sites


@pytest.fixture(scope="module")
def kmeans():
    with FlipTracker(REGISTRY.build("kmeans"), seed=SEED,
                     workers=1) as ft:
        yield ft


def fault_plans(ft, n=4, region=REGION):
    return ft.make_plans(ft.instance_of(region), "internal", n)


def protected_outcomes(ft, policy, detector="checksum", n=4, **kw):
    plans = [RecoveryPlan(fault=f, policy=policy, detector=detector, **kw)
             for f in fault_plans(ft, n=n)]
    return [RecoveryOutcome.decode(run_recovery_plan(ft, plan))
            for plan in plans]


# --------------------------------------------------------------- plumbing
class TestRecoveryPlan:
    def test_validation(self):
        fault = FaultPlan(trigger=10, mode="result", bit=3)
        assert RecoveryPlan(fault=fault).policy == "recompute-region"
        with pytest.raises(ValueError):
            RecoveryPlan(fault=fault, detector="psychic")
        with pytest.raises(ValueError):
            RecoveryPlan(fault=fault, policy="pray")
        with pytest.raises(ValueError):
            RecoveryPlan(fault=fault, checkpoint_every=0)
        with pytest.raises(ValueError):
            RecoveryPlan(fault=fault, max_recoveries=-1)

    def test_frozen(self):
        fault = FaultPlan(trigger=10, mode="result", bit=3)
        plan = RecoveryPlan(fault=fault)
        assert plan == RecoveryPlan(fault=fault)
        with pytest.raises(AttributeError):
            plan.policy = "abort"


class TestRecoveryOutcome:
    def test_encode_decode_roundtrip(self):
        outcome = RecoveryOutcome(final="failed", detected=3, recovered=2,
                                  forwarded=1, checks=17, checkpoints=5,
                                  checkpoint_words=1234, re_executed=999,
                                  fault_fired=True, gave_up=True)
        text = outcome.encode()
        assert RecoveryOutcome.decode(text) == outcome
        # canonical: compact separators, sorted keys
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))

    def test_rejects_unknown_final(self):
        with pytest.raises(ValueError):
            RecoveryOutcome(final="confused")

    def test_result_aggregation_roundtrip(self):
        result = RecoveryResult(label="agg")
        for final in FINAL_STATES:
            result.add(RecoveryOutcome(final=final, detected=1, checks=2,
                                       re_executed=10))
        assert result.total == len(FINAL_STATES)
        assert result.success == result.aborted == 1
        assert result.detected == len(FINAL_STATES)
        assert result.re_executed == 10 * len(FINAL_STATES)
        back = RecoveryResult.from_counts(result.counts(), label="agg")
        assert back.counts() == result.counts()
        with pytest.raises(ValueError):
            RecoveryResult.from_counts({"success": 1, "banana": 2})


# ---------------------------------------------------------------- context
class TestRecoveryContext:
    def test_boundaries_cover_instances_in_order(self, kmeans):
        ctx = kmeans.recovery_context()
        assert len(ctx.invariants) == len(kmeans.instances())
        last_exit = 0
        for inv in ctx.invariants:
            assert 0 <= inv.entry_dyn <= inv.exit_dyn <= ctx.total_dyn
            assert inv.entry_dyn >= last_exit  # chain regions don't overlap
            last_exit = inv.exit_dyn
        assert ctx.total_dyn >= last_exit

    def test_memoized_and_deterministic(self, kmeans):
        assert kmeans.recovery_context() is kmeans.recovery_context()
        with FlipTracker(REGISTRY.build("kmeans"), seed=SEED,
                         workers=1) as other:
            rebuilt = other.recovery_context()
        assert rebuilt.invariants == kmeans.recovery_context().invariants
        assert rebuilt.forward_ok == kmeans.recovery_context().forward_ok
        assert rebuilt.total_dyn == kmeans.recovery_context().total_dyn

    def test_detectors_accept_the_golden_state(self, kmeans):
        """A fault-free replay must never fire any detector — pre-fault
        state is bit-identical to the golden run by construction."""
        program = kmeans.program
        ctx = kmeans.recovery_context()
        interp = program.fresh_interpreter(exec_tier="interp")
        interp.start(program.entry)
        for inv in ctx.invariants:
            interp.run_to(inv.exit_dyn)
            for detector in DETECTORS:
                assert detect(detector, inv, interp) is False, \
                    (detector, inv.region, inv.index)

    def test_checksum_is_content_sensitive(self):
        assert state_checksum([1, 2.5], 2, 1) != \
            state_checksum([1, 2.5], 2, 2)
        assert state_checksum([1], 1, 0) != state_checksum([1.0], 1, 0)
        assert state_checksum([3, 9], 1, 0) == state_checksum([3, 7], 1, 0)


# ----------------------------------------------------------- policy runs
class TestPolicySemantics:
    def test_abort_never_restores(self, kmeans):
        outcomes = protected_outcomes(kmeans, "abort")
        assert all(o.recovered == o.checkpoints == o.checkpoint_words
                   == o.re_executed == 0 for o in outcomes)
        for o in outcomes:
            if o.detected:
                assert o.final in ("aborted", "crashed")

    def test_recompute_region_restores_and_rescues(self, kmeans):
        outcomes = protected_outcomes(kmeans, "recompute-region")
        assert any(o.detected for o in outcomes)
        for o in outcomes:
            assert o.final in FINAL_STATES
            # restoring is the only way work gets re-executed
            assert (o.re_executed > 0) == (o.recovered > 0)
            if o.detected and not o.gave_up:
                assert o.recovered > 0 or o.final in ("crashed", "aborted")
        # the headline effect: detected faults were repaired, not fatal
        assert sum(o.final == "success" for o in outcomes) >= \
            sum(o.final == "success"
                for o in protected_outcomes(kmeans, "abort"))

    def test_rollback_honours_checkpoint_interval(self, kmeans):
        sparse = protected_outcomes(kmeans, "rollback", n=2,
                                    checkpoint_every=4)
        dense = protected_outcomes(kmeans, "rollback", n=2,
                                   checkpoint_every=1)
        assert sum(o.checkpoints for o in sparse) < \
            sum(o.checkpoints for o in dense)

    def test_forward_correct_only_forwards_safe_regions(self, kmeans):
        ctx = kmeans.recovery_context()
        outcomes = protected_outcomes(kmeans, "forward-correct")
        forwarded = sum(o.forwarded for o in outcomes)
        if not ctx.forward_ok:
            assert forwarded == 0
        for o in outcomes:
            # forwarding never happens on crash paths
            assert o.forwarded <= o.detected

    def test_exhausted_recoveries_give_up_and_coast(self, kmeans):
        outcomes = protected_outcomes(kmeans, "recompute-region",
                                      max_recoveries=0)
        assert all(o.recovered == 0 for o in outcomes)
        # a non-crash detection with zero attempts left coasts to the
        # checker instead of looping
        assert any(o.gave_up for o in outcomes)
        for o in outcomes:
            if o.gave_up:
                assert o.final in ("success", "failed")

    def test_run_is_deterministic(self, kmeans):
        plan = RecoveryPlan(fault=fault_plans(kmeans, n=1)[0])
        assert run_recovery_plan(kmeans, plan) == \
            run_recovery_plan(kmeans, plan)


# -------------------------------------------------------------- seams
class TestExecutePlanDispatch:
    def test_fault_plan_passthrough(self, kmeans):
        fault = fault_plans(kmeans, n=1)[0]
        value = execute_plan(kmeans, fault, max_instr=kmeans.faulty_budget)
        assert isinstance(value, str) and not value.startswith("{")

    def test_recovery_plan_runs_on_tracker(self, kmeans):
        plan = RecoveryPlan(fault=fault_plans(kmeans, n=1)[0])
        value = execute_plan(kmeans, plan, max_instr=kmeans.faulty_budget)
        outcome = RecoveryOutcome.decode(value)
        assert outcome.final in FINAL_STATES


class TestKeyCodec:
    def test_encode_decode_roundtrip(self, kmeans):
        plan = RecoveryPlan(fault=fault_plans(kmeans, n=1)[0],
                            detector="range", policy="rollback",
                            checkpoint_every=3, max_recoveries=2)
        payload = encode_plan(plan)
        assert payload["recovery"]["policy"] == "rollback"
        assert decode_plan(json.loads(json.dumps(payload))) == plan

    def test_keys_disjoint_from_plain_plans(self, kmeans):
        fault = fault_plans(kmeans, n=1)[0]
        fp = kmeans.engine.program_fp
        plain = plan_key(fp, fault, 1000)
        keys = {plain}
        for policy in POLICIES:
            for detector in DETECTORS:
                keys.add(plan_key(fp, RecoveryPlan(
                    fault=fault, policy=policy, detector=detector), 1000))
        # every (policy, detector) cell caches independently, and none
        # can ever alias the unprotected run's manifestation
        assert len(keys) == 1 + len(POLICIES) * len(DETECTORS)
