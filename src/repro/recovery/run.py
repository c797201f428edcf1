"""The protected-execution session: detectors + checkpoints + policies.

One :func:`run_recovery_plan` call executes one faulty run under online
protection and returns the encoded :class:`~repro.recovery.outcome.
RecoveryOutcome`.  The session walks the golden region instances in
execution order (boundaries precomputed by :mod:`repro.acl.online`):

* the gap before an instance entry runs unprotected;
* at the entry the policy may take a checkpoint
  (:meth:`~repro.vm.interp.Interpreter.snapshot`);
* the instance window runs to its exit boundary, where the configured
  detector compares live state against the golden boundary invariants;
* a detector fire — or a crash anywhere, which counts as an implicit
  detection — is handled by the policy: restore a checkpoint
  (``rollback``/``recompute-region``), continue through an
  overwrite-dominated region (``forward-correct``), or stop
  (``abort``).

Restores model a **transient** soft error: the trigger is disarmed
after every restore (pre-fault state is bit-identical to the golden
run, so a recovery event can only happen after the flip), and
``dyn_count`` rewinds with the snapshot so the hang budget tracks the
run's *logical* position; discarded work is accounted separately in
``re_executed``.  ``max_recoveries`` bounds corrupted-checkpoint
restore loops (detection lag can checkpoint an already-corrupt state);
an exhausted run stops detecting and coasts to completion (``gave_up``).

Accounting is tier-invariant by construction: a crash inside a window
is charged as the whole window (the compiled tier's ``dyn_count`` is
stale on unanticipated mid-segment exceptions and the session never
reads it after a crash), so outcomes are byte-identical on the default
compiled tier, the ``interp`` reference tier and every backend.
"""

from __future__ import annotations

from typing import Optional

from repro.acl.online import RecoveryContext, detect
from repro.faults.campaign import Manifestation, classify_check
from repro.recovery.outcome import RecoveryOutcome
from repro.recovery.plan import RecoveryPlan
from repro.vm.errors import VMError

#: the campaign crash surface (see faults.campaign.run_plan): VM-level
#: faults plus Python-level errors surfaced by type-confused values
CRASH_ERRORS = (VMError, TypeError, ValueError, OverflowError, MemoryError)


class _Session:
    """State machine for one protected faulty run."""

    def __init__(self, program, ctx: RecoveryContext, plan: RecoveryPlan,
                 max_instr: int, exec_tier: Optional[str], ladder=None):
        self.program = program
        self.ctx = ctx
        self.plan = plan
        self.ladder = ladder
        self.interp = program.fresh_interpreter(
            fault=plan.fault, max_instr=max_instr, exec_tier=exec_tier)
        self.detecting = True
        self.recoveries = 0
        self.restore_point: Optional[tuple] = None  # (pos, snapshot)
        # outcome counters
        self.detected = 0
        self.recovered = 0
        self.forwarded = 0
        self.checks = 0
        self.checkpoints = 0
        self.checkpoint_words = 0
        self.re_executed = 0
        self.fault_fired = False
        self.gave_up = False

    # ------------------------------------------------------------ driving
    def run(self) -> RecoveryOutcome:
        self.interp.start(self.program.entry)
        invs = self.ctx.invariants
        i = 0
        final: Optional[str] = None
        while final is None:
            if i < len(invs):
                kind, val = self._instance_step(i, invs[i])
            else:
                kind, val = self._tail_step()
            if kind == "final":
                final = val
            else:  # "next" (advance/forward) or "resume" (restored)
                i = val
        return RecoveryOutcome(
            final=final, detected=self.detected, recovered=self.recovered,
            forwarded=self.forwarded, checks=self.checks,
            checkpoints=self.checkpoints,
            checkpoint_words=self.checkpoint_words,
            re_executed=self.re_executed,
            fault_fired=(self.fault_fired
                         or self.interp.fault_record.fired),
            gave_up=self.gave_up)

    def _instance_step(self, i: int, inv) -> tuple:
        # unprotected gap up to the instance entry
        status = self._advance(inv.entry_dyn)
        if status == "crash":
            return self._recover(inv, i, inv.entry_dyn, crash=True,
                                 forwardable=False)
        if status == "early":
            return "final", self._classify()
        self._checkpoint(i)
        # the protected window
        status = self._advance(inv.exit_dyn)
        if status == "crash":
            return self._recover(inv, i, inv.exit_dyn, crash=True,
                                 forwardable=False)
        if status == "early":
            return "final", self._classify()
        # detector at the exit boundary
        if self.detecting:
            self.checks += 1
            if detect(self.plan.detector, inv, self.interp):
                return self._recover(inv, i, inv.exit_dyn, crash=False,
                                     forwardable=True)
        return "next", i + 1

    def _tail_step(self) -> tuple:
        # after the last protected window: run to completion unprotected
        # (a crash here can still roll back to a clean checkpoint)
        status = self._advance(None)
        if status == "crash":
            return self._recover(None, None, self.ctx.total_dyn,
                                 crash=True, forwardable=False)
        return "final", self._classify()

    # ------------------------------------------------------------ pieces
    def _advance(self, target: Optional[int]) -> str:
        """Run to ``target`` (None = completion): ok | early | crash."""
        interp = self.interp
        try:
            if target is None:
                interp.run_to(interp.max_instr)
            else:
                interp.run_to(target)
        except CRASH_ERRORS:
            return "crash"
        if target is not None and interp.finished \
                and interp.dyn_count < target:
            return "early"  # fault-shortened run: straight to the checker
        return "ok"

    def _checkpoint(self, i: int) -> None:
        policy = self.plan.policy
        if policy == "abort":
            return
        if policy == "rollback" and i % self.plan.checkpoint_every != 0:
            return
        snap = None
        if self.ladder is not None and not self.interp.finished \
                and not self.interp.fault_record.fired:
            # the fault has not mutated state (unfired, missed, or
            # rolled back to a pre-fault checkpoint), so the live state
            # at this boundary is bit-identical to the golden run —
            # a ladder rung at the same dyn index IS this checkpoint
            # (identical words; the armed-trigger difference is
            # overwritten by _recover's transient-disarm on restore)
            rung = self.ladder.rung_at(self.interp.dyn_count)
            if rung is not None:
                snap = rung.snap
        if snap is None:
            snap = self.interp.snapshot()
        self.checkpoints += 1
        self.checkpoint_words += snap.words
        self.restore_point = (i, snap)

    def _recover(self, inv, pos: Optional[int], charge_to: int,
                 *, crash: bool, forwardable: bool) -> tuple:
        """Policy dispatch for one detection event (crash = implicit)."""
        self.fault_fired = self.fault_fired or self.interp.fault_record.fired
        self.detected += 1
        policy = self.plan.policy
        if policy == "abort":
            return "final", "crashed" if crash else "aborted"
        if forwardable and policy == "forward-correct" \
                and inv is not None and inv.region in self.ctx.forward_ok:
            self.forwarded += 1
            return "next", pos + 1
        if self.recoveries >= self.plan.max_recoveries:
            if crash:
                return "final", "crashed"
            self.gave_up = True
            self.detecting = False
            return "next", pos + 1
        if self.restore_point is None:
            # crash before the first checkpoint existed
            return "final", "crashed" if crash else "aborted"
        resume_pos, snap = self.restore_point
        self.recoveries += 1
        self.recovered += 1
        self.re_executed += max(0, charge_to - snap.dyn_count)
        self.interp.restore(snap)
        self.interp._ftrig = -2  # transient flip: the re-execution is clean
        return "resume", resume_pos

    def _classify(self) -> str:
        if not self.interp.finished:
            # a protected run only stops un-finished via crash paths,
            # which never reach here; defensive
            return "crashed"
        m = classify_check(self.program, self.interp)
        return (Manifestation.SUCCESS.value if m is Manifestation.SUCCESS
                else Manifestation.FAILED.value)


def run_recovery_plan(tracker, plan: RecoveryPlan,
                      max_instr: Optional[int] = None) -> str:
    """Execute one protected faulty run; returns the encoded outcome.

    ``tracker`` supplies the program, the memoized
    :class:`~repro.acl.online.RecoveryContext` (a pure function of the
    program, so workers/shard servers derive identical contexts) and
    the run settings: the session runs on ``tracker.exec_tier``.  The
    return value is the outcome's canonical JSON string — the engine
    caches and ships it exactly like a manifestation value.

    With ``tracker.warm_start`` on, the session sources checkpoints
    from the tracker's golden snapshot ladder whenever a boundary has a
    rung and the live state is still golden — skipping the snapshot
    copy without changing a single outcome byte (counters included).
    """
    ctx = tracker.recovery_context()
    ladder = tracker.warm_ladder() if tracker.warm_start else None
    budget = tracker.faulty_budget if max_instr is None else max_instr
    session = _Session(tracker.program, ctx, plan, budget,
                       tracker.exec_tier, ladder=ladder)
    return session.run().encode()
