"""Use Case 1: resilience-aware application design (paper Section VII-A).

The paper applies three resilience patterns to CG at the source level:

* **DCL + Data Overwriting** — ``sprnvc`` reworked onto stack
  temporaries with a copy-back (Fig. 12(b));
* **Truncation** — ten iterations of the ``p . q`` dot product routed
  through reduced-precision integer multiplication (Fig. 13(b); Q16
  fixed point at our problem scale, see :mod:`repro.apps.cg`);
* **all together**.

The transformed sources live in :mod:`repro.apps.cg` as build variants;
this module is the evaluation harness producing Table III: for each
variant, the application success rate under fault injection plus
fault-free execution times (process CPU time) over repeated runs.

Two campaign designs are provided:

* ``"whole"`` — uniform injections over every internal location of the
  whole program, the paper's design.  At paper-scale sizings (99 %/1 %
  Leveugle, ~16k runs) this resolves the transforms' effect; at the
  reduced sizes a pure-Python interpreter affords, the protected code
  is ~2 % of the dynamic instruction stream and the effect drowns in
  sampling noise.
* ``"focused"`` — memory-resident single-bit flips into exactly the
  data the use case manipulates, during the phase each array is live:
  ``v[]``/``iv[]`` while ``makea`` runs (the sprnvc copy-back
  mechanism) and ``p[]``/``q[]`` while ``conj_grad`` runs (the
  truncated dot products).  This is the paper's fault model (soft
  errors in application-visible memory state) restricted to the
  population of interest — the restriction FlipIt's user-specified
  instruction populations exist for — and it resolves the same effect
  direction at ~100x fewer runs.  Per-window rates are kept in
  ``UseCase1Row.extra`` for shape checks.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import REGISTRY
from repro.core.fliptracker import FlipTracker
from repro.trace.events import R_FN
from repro.util.timing import Timer
from repro.vm.fault import FaultPlan

#: Table III's rows: variant key -> display label
TABLE3_VARIANTS = {
    "baseline": "None",
    "dcl_overwrite": "DCL and overwrt.",
    "truncation": "Truncation",
    "all": "All together",
}


@dataclass
class UseCase1Row:
    """One Table III row."""

    variant: str
    label: str
    success_rate: float
    time_min: float
    time_max: float
    time_avg: float
    time_median: float
    injections: int
    crashes: int = 0
    sdc: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def time_range(self) -> str:
        return f"{self.time_min:.3f}-{self.time_max:.3f} / {self.time_avg:.3f}"


def _array_cells(module, names) -> list[int]:
    """Flat addresses of every cell of the named global arrays."""
    cells: list[int] = []
    for name in names:
        arr = module.arrays[name]
        n_cells = 1
        for d in arr.shape:
            n_cells *= d
        cells.extend(arr.base + c for c in range(n_cells))
    return cells


def _function_span(trace, module, fname: str) -> tuple[int, int]:
    """[first, last] dynamic record index executing inside ``fname``."""
    fn_names = list(module.functions.keys())
    idx = fn_names.index(fname)
    hits = np.flatnonzero(
        trace.records.ints(R_FN, 0, len(trace)) == idx)
    if not hits.size:
        raise ValueError(f"function {fname!r} never executed")
    return int(hits[0]), int(hits[-1])


def data_resident_plans(program, trace, seed: int,
                        n_per_window: int) -> dict[str, list[FaultPlan]]:
    """Focused Table III plans (see module docstring).

    Returns per-window plan lists: ``viv`` — flips into ``v``/``iv``
    cells at uniform times within ``makea``; ``pq`` — flips into
    ``p``/``q`` cells at uniform times within ``conj_grad``.
    """
    rng = random.Random(seed)
    module = program.module
    windows: dict[str, list[FaultPlan]] = {}
    for key, arrays, fname in (("viv", ("v", "iv"), "makea"),
                               ("pq", ("p", "q"), "conj_grad")):
        cells = _array_cells(module, arrays)
        lo, hi = _function_span(trace, module, fname)
        windows[key] = [
            FaultPlan(trigger=rng.randrange(lo, hi), mode="loc",
                      bit=rng.randrange(64), loc=rng.choice(cells))
            for _ in range(n_per_window)
        ]
    return windows


def evaluate_variant(variant: str, *, n_injections: int = 80,
                     timing_runs: int = 20, seed: int = 77,
                     workers: int = 1,
                     campaign: str = "focused") -> UseCase1Row:
    """Measure one CG variant: resilience + execution time.

    ``campaign="whole"`` reproduces the paper's uniform whole-program
    design (needs paper-scale ``n_injections`` to resolve the effect);
    ``campaign="focused"`` uses the data-resident windows described in
    the module docstring, splitting ``n_injections`` evenly between
    them and recording per-window rates in ``extra``.
    """
    return run_table3((variant,), n_injections=n_injections,
                      timing_runs=timing_runs, seed=seed, workers=workers,
                      campaign=campaign)[0]


def _resilience(program, variant: str, *, n_injections: int, seed: int,
                workers: int, campaign: str):
    """One variant's injection campaign -> ``(result, extra)``."""
    extra: dict = {"campaign": campaign}
    with FlipTracker(program, seed=seed, workers=workers) as ft:
        if campaign == "whole":
            return (ft.whole_program_campaign("internal", n=n_injections),
                    extra)
        windows = data_resident_plans(program, ft.fault_free_trace(),
                                      seed, max(1, n_injections // 2))
        result = None
        for key, plans in windows.items():
            # the tracker's persistent engine serves both windows
            # with one worker pool (and caches every executed plan)
            res = ft.engine.run_plans(plans,
                                      max_instr=ft.faulty_budget,
                                      label=f"cg-{variant}/{key}")
            extra[f"{key}_sr"] = res.success_rate
            extra[f"{key}_n"] = res.total
            result = res if result is None else result.merge(res)
    return result, extra


def _time_fault_free(programs, timing_runs: int) -> list[Timer]:
    """Process-CPU-time laps of ``timing_runs`` fault-free runs each.

    Each program first gets an untimed warm-up: the compiled tier
    lowers the module on its first run in this process, a one-time
    set-up cost, not execution time.  The timed runs then go
    round-robin over the programs, so a slow phase of a shared machine,
    which inflates CPU time too, lands on every variant alike.
    """
    for program in programs:
        program.fresh_interpreter().run(program.entry)
    timers = [Timer(clock=time.process_time) for _ in programs]
    for _ in range(timing_runs):
        for program, timer in zip(programs, timers):
            with timer:
                program.fresh_interpreter().run(program.entry)
    return timers


def run_table3(variants=tuple(TABLE3_VARIANTS), *, n_injections: int = 80,
               timing_runs: int = 20, seed: int = 77,
               workers: int = 1,
               campaign: str = "focused") -> list[UseCase1Row]:
    """Regenerate every Table III row (see :func:`evaluate_variant`)."""
    for variant in variants:
        if variant not in TABLE3_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
    if campaign not in ("whole", "focused"):
        raise ValueError(f"campaign must be whole|focused, got {campaign!r}")
    programs = [REGISTRY.build("cg", variant=v) for v in variants]
    measured = [_resilience(program, variant, n_injections=n_injections,
                            seed=seed, workers=workers, campaign=campaign)
                for variant, program in zip(variants, programs)]
    timers = _time_fault_free(programs, timing_runs)
    return [UseCase1Row(variant=variant,
                        label=TABLE3_VARIANTS[variant],
                        success_rate=result.success_rate,
                        time_min=timer.min,
                        time_max=timer.max,
                        time_avg=timer.mean,
                        time_median=timer.median,
                        injections=result.total,
                        crashes=result.crashed,
                        sdc=result.failed,
                        extra=extra)
            for variant, (result, extra), timer
            in zip(variants, measured, timers)]
