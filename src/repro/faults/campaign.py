"""Fault-injection campaigns and the manifestation taxonomy.

One campaign = many independent faulty runs of one program, each with a
single-bit-flip :class:`~repro.vm.fault.FaultPlan`, classified per the
paper's fault-manifestation model (Section II-A1):

* ``SUCCESS`` — run completed and passed the app's verification phase;
* ``FAILED``  — run completed but verification rejected the output
  (an SDC that was not tolerated);
* ``CRASHED`` — segfault/trap/hang (the paper folds hangs into crashes).

``success_rate = #SUCCESS / #injections`` (Equation 1).

Execution is delegated to :mod:`repro.engine`: a persistent worker
pool, a content-addressed plan→result cache and sharded, resumable
campaigns.  :func:`run_campaign` remains the convenience entry point —
it builds a short-lived engine per call; anything that runs more than
one campaign should hold an :class:`~repro.engine.ExecutionEngine` (or
a :class:`~repro.core.FlipTracker`, which owns one) instead.

Every executor runs a plan through :func:`execute_plan` on a tracker,
and the tracker alone decides the run's VM tier and warm start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from repro.apps.base import Program
from repro.faults.analysis import AnalysisPlan, encode_analysis
from repro.vm.errors import VMError
from repro.vm.fault import FaultPlan
from repro.warmstart import warm_start_interp


class Manifestation(Enum):
    """Outcome class of one faulty run."""

    SUCCESS = "success"
    FAILED = "failed"
    CRASHED = "crashed"


class CheckerError(RuntimeError):
    """The app's verification function itself is broken.

    Raised when ``program.check`` dies with an exception that corrupted
    program *state* cannot plausibly produce (missing scalar, coding
    bug, ...).  Distinct from ``FAILED`` — a checker bug invalidates
    the whole campaign and must not be scored as an SDC.
    """


#: exceptions a verification phase may legitimately raise when it reads
#: fault-corrupted state (type-confused values, NaN-sized indices, ...);
#: these classify the *run*, not the checker
CHECK_STATE_ERRORS = (TypeError, ValueError, ArithmeticError, IndexError)


def classify_check(program: Program, interp) -> Manifestation:
    """Run the verification phase of a completed faulty run.

    Corrupted-state exceptions (see :data:`CHECK_STATE_ERRORS`) mean
    verification rejected the run: ``FAILED``.  Anything else is a bug
    in the checker and raises :class:`CheckerError`.
    """
    try:
        ok = program.check(interp)
    except CHECK_STATE_ERRORS:
        return Manifestation.FAILED
    except Exception as exc:
        raise CheckerError(
            f"{program.name}: verification function raised "
            f"{type(exc).__name__}: {exc}") from exc
    return Manifestation.SUCCESS if ok else Manifestation.FAILED


@dataclass
class CampaignResult:
    """Aggregated outcome counts of one campaign."""

    success: int = 0
    failed: int = 0
    crashed: int = 0
    label: str = ""
    details: dict = field(default_factory=dict)

    def add(self, m: Manifestation) -> None:
        if m is Manifestation.SUCCESS:
            self.success += 1
        elif m is Manifestation.FAILED:
            self.failed += 1
        else:
            self.crashed += 1

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        if self.details or other.details:
            # fold provenance before the counts change: the executed/
            # cached properties fall back to the *current* totals
            merged = {
                "executed": self.executed + other.executed,
                "cached": self.cached + other.cached,
                "shards": (self.details.get("shards", 0)
                           + other.details.get("shards", 0)),
                "total": self.total + other.total,
            }
            self.details.update(merged)
        self.success += other.success
        self.failed += other.failed
        self.crashed += other.crashed
        return self

    @property
    def total(self) -> int:
        return self.success + self.failed + self.crashed

    @property
    def success_rate(self) -> float:
        """Equation 1 of the paper."""
        return self.success / self.total if self.total else 0.0

    @property
    def executed(self) -> int:
        """Faulty runs actually performed by the producing call
        (0 for a fully cache-served campaign; defaults to ``total``
        for results built outside the engine)."""
        return self.details.get("executed", self.total)

    @property
    def cached(self) -> int:
        """Plans served from the plan-result cache."""
        return self.details.get("cached", 0)

    def __str__(self) -> str:
        extra = f" [{self.cached} cached]" if self.cached else ""
        return (f"{self.label or 'campaign'}: {self.total} injections, "
                f"success_rate={self.success_rate:.3f} "
                f"(ok={self.success} sdc={self.failed} "
                f"crash={self.crashed}){extra}")


def run_plan(program: Program, plan: FaultPlan,
             max_instr: Optional[int] = None,
             exec_tier: Optional[str] = None,
             ladder=None) -> Manifestation:
    """Execute one faulty run and classify its manifestation.

    ``exec_tier`` picks the VM tier (``None`` resolves ``REPRO_EXEC``,
    else ``"compiled"``);
    both tiers produce byte-identical manifestations, so the choice
    never changes a campaign's result, only its wall-clock.  ``ladder``
    optionally warm-starts the run from the golden snapshot ladder
    (:mod:`repro.warmstart`): the run restores the highest rung at or
    below the trigger and executes only the suffix — byte-identical by
    construction, falling back to a cold start on any ladder miss.
    """
    interp = program.fresh_interpreter(fault=plan, max_instr=max_instr,
                                       exec_tier=exec_tier)
    try:
        if ladder is not None and warm_start_interp(interp, ladder, plan):
            interp.resume_run(program.entry)
        else:
            interp.run(program.entry)
    except VMError:
        return Manifestation.CRASHED
    except (TypeError, ValueError, OverflowError, MemoryError):
        # type-confused corrupted values surfacing as Python-level errors
        # correspond to machine-level traps
        return Manifestation.CRASHED
    return classify_check(program, interp)


def execute_plan(tracker, plan, max_instr: Optional[int] = None) -> str:
    """Execute one plan of any kind on ``tracker``; returns its value.

    The tracker (:class:`~repro.core.FlipTracker`) owns the program
    and the run settings, resolved once at its construction: the VM
    tier (``tracker.exec_tier``) and the golden snapshot-ladder warm
    start (``tracker.warm_start``).  Plain
    :class:`~repro.vm.fault.FaultPlan` runs are classified and the
    manifestation's string value returned (the engine's historical
    outcome encoding); warm, they skip their golden prefix.  A
    recovery plan (:mod:`repro.recovery`) returns the encoded
    :class:`~repro.recovery.outcome.RecoveryOutcome` of a protected
    run over the tracker's recovery context; an analysis plan
    (:mod:`repro.faults.analysis`) returns :func:`~repro.faults.
    analysis.encode_analysis` of the tracker's traced run, which uses
    the tracker's own budget.  Neither setting ever changes a value,
    only wall-clock.
    """
    if isinstance(plan, FaultPlan):
        ladder = tracker.warm_ladder() if tracker.warm_start else None
        return run_plan(tracker.program, plan, max_instr=max_instr,
                        exec_tier=tracker.exec_tier, ladder=ladder).value
    if isinstance(plan, AnalysisPlan):
        return encode_analysis(tracker.analyze_injection(plan.fault))
    from repro.recovery.run import run_recovery_plan
    return run_recovery_plan(tracker, plan, max_instr=max_instr)


def run_campaign(program: Program, plans: Iterable[FaultPlan], *,
                 workers: Optional[int] = None,
                 max_instr: Optional[int] = None,
                 label: str = "",
                 cache=None, cache_dir: Optional[str] = None,
                 resume: bool = True,
                 backend=None, backend_addr=None,
                 on_progress=None) -> CampaignResult:
    """Run all ``plans`` against ``program`` and aggregate outcomes.

    ``workers=None`` auto-selects (#cores, capped at 4); ``workers<=1``
    runs sequentially in-process, which is what the unit tests and the
    pytest benchmarks use for determinism of timing.  ``cache`` /
    ``cache_dir`` feed the engine's plan-result cache (see
    :mod:`repro.engine`); ``backend``/``backend_addr`` pick the shard
    substrate (:mod:`repro.engine.backends`); results are identical
    for any worker count and any backend.  The runs use the engine's
    tracker settings, here ``REPRO_EXEC`` and ``REPRO_WARMSTART``.
    """
    from repro.engine import ExecutionEngine
    with ExecutionEngine(program, workers=workers, cache=cache,
                         cache_dir=cache_dir, resume=resume,
                         backend=backend,
                         backend_addr=backend_addr) as engine:
        return engine.run_plans(plans, max_instr=max_instr, label=label,
                                on_progress=on_progress)
