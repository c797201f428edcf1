"""Warm-start campaign-throughput measurement (the PR's perf claim).

One :func:`measure_warmstart` call times a late-site faulty-run sweep
through the compiled tier twice — cold (full golden-prefix
re-execution, the PR 6 baseline) and warm (snapshot-ladder restore +
suffix only) — and reports per-app wall clocks, the speedup, ladder
geometry/cost, warm-start hit accounting, and the interpreter
dispatch rate (the hoisted-locals micro-opt's tracking number).

Late sites (the last ``TAIL`` fraction of the dynamic stream) are the
honest showcase *and* the common case: fault campaigns sample triggers
uniformly over the trace, so the mean golden prefix is half the run,
and Leveugle-sized sweeps spend most of their time re-executing it.

Both arms run :func:`repro.faults.campaign.run_plan` directly — no
engine pools — so the measured ratio is per-run execution cost, not
scheduling noise.  The ladder build is timed separately and excluded
from the warm arm: it is a once-per-program cost amortized over the
whole campaign (and shared copy-on-write across fork workers).
"""

from __future__ import annotations

import time

from repro.vm.fault import FaultPlan

#: late-site fraction: triggers land in the last TAIL of the stream
TAIL = 0.2


def late_site_plans(n_dyn: int, count: int,
                    tail: float = TAIL) -> list[FaultPlan]:
    """Deterministic result-mode plans with triggers in the tail."""
    lo = int(n_dyn * (1.0 - tail))
    span = max(1, n_dyn - lo)
    return [FaultPlan(trigger=lo + (i * 9973 + 17) % span,
                      mode="result", bit=(i * 13) % 64)
            for i in range(count)]


def _arm(program, plans, ladder) -> tuple[list[str], float]:
    from repro.faults.campaign import run_plan
    t0 = time.perf_counter()
    values = [run_plan(program, plan, exec_tier="compiled",
                       ladder=ladder).value for plan in plans]
    return values, time.perf_counter() - t0


def interp_dispatch_rate(program) -> dict:
    """Golden-run interpreter throughput (dispatch-loop tracking row)."""
    interp = program.fresh_interpreter(exec_tier="interp")
    t0 = time.perf_counter()
    interp.run(program.entry)
    wall = time.perf_counter() - t0
    return {"instr": interp.dyn_count, "wall_s": wall,
            "instr_per_s": interp.dyn_count / wall if wall else 0.0}


def measure_app(tracker, count: int) -> dict:
    """Cold vs warm compiled-tier sweep for one app's tracker."""
    from repro import warmstart
    program = tracker.program
    t0 = time.perf_counter()
    ladder = tracker.warm_ladder()
    ladder_build_s = time.perf_counter() - t0
    plans = late_site_plans(ladder.total_dyn, count)

    # warm both arms once (compiled lowering is one-time per module)
    _arm(program, plans[:1], None)
    _arm(program, plans[:1], ladder)

    cold_values, cold_s = _arm(program, plans, None)
    warmstart.reset_stats()
    warm_values, warm_s = _arm(program, plans, ladder)
    stats = dict(warmstart.WARM_STATS)
    warmstart.reset_stats()
    return {
        "runs": len(plans),
        "total_dyn": ladder.total_dyn,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s else 0.0,
        "values_match": cold_values == warm_values,
        "hits": stats["hits"],
        "misses": stats["misses"],
        "saved_instr": stats["saved_instr"],
        "ladder": {"rungs": len(ladder.rungs), "stride": ladder.stride,
                   "words": ladder.words,
                   "build_s": ladder_build_s},
        "interp_dispatch": interp_dispatch_rate(program),
    }


def measure_warmstart(apps=("kmeans", "cg"), count: int = 30,
                      trackers=None) -> dict:
    """The full measurement: one entry per app + the overall verdict.

    ``trackers`` (app name -> FlipTracker) lets callers share
    session-cached trackers (the pytest benchmarks do); an app without
    one gets a fresh sequential tracker.
    """
    from repro.apps import REGISTRY
    from repro.core import FlipTracker
    trackers = trackers or {}
    per_app = {}
    for app in apps:
        tracker = trackers.get(app)
        if tracker is None:
            tracker = FlipTracker(REGISTRY.build(app), seed=20181111,
                                  workers=1)
        per_app[app] = measure_app(tracker, count)
    return {
        "benchmark": "warmstart",
        "tail": TAIL,
        "apps": per_app,
        "min_speedup": min(r["speedup"] for r in per_app.values()),
        "all_values_match": all(r["values_match"]
                                for r in per_app.values()),
    }
