"""Worker-process side of the execution engine.

One module-level state dict serves both start methods:

* **fork** — the parent calls :func:`configure_parent_state` right
  before creating the pool; children inherit the built program (and,
  when bound, the whole warmed tracker with its golden trace) via
  copy-on-write, so nothing large ever crosses a pipe;
* **spawn** — :func:`init_spawn_worker` rebuilds the program from the
  app registry inside the child; traced analyses lazily build a
  private tracker there (one golden trace per worker, amortized over
  the pool's lifetime).

Task payloads carry explicit indices so the engine can reassemble
results in plan order no matter the arrival order — the root of the
workers=1 vs workers=N determinism guarantee.

These tasks serve the :class:`~repro.engine.backends.local.
LocalPoolBackend`; shard servers execute the equivalent request bodies in
:mod:`repro.engine.backends.protocol` instead — both sort pattern
sets into lists so the two paths produce byte-identical tables.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.vm.fault import FaultPlan

#: per-process worker state: {"program": Program, "tracker": FlipTracker|None}
_STATE: dict = {}


def configure_parent_state(program, tracker=None) -> None:
    """Install state in the *parent* for fork children to inherit."""
    _STATE["program"] = program
    _STATE["tracker"] = tracker


def clear_parent_state() -> None:
    _STATE.clear()


def init_spawn_worker(app_name: str, params: dict) -> None:
    """Spawn-mode initializer: rebuild the program from the registry."""
    import repro.apps  # populate the registry  # noqa: F401
    from repro.apps.base import REGISTRY
    _STATE["program"] = REGISTRY.build(app_name, **params)
    _STATE["tracker"] = None


def _tracker():
    tracker = _STATE.get("tracker")
    if tracker is None:
        # spawn fallback: build (and keep) a private tracker
        from repro.core.fliptracker import FlipTracker
        tracker = FlipTracker(_STATE["program"], workers=1)
        _STATE["tracker"] = tracker
    return tracker


def run_plans_task(task: tuple[int, Optional[int], str, object,
                               Sequence[FaultPlan]]
                   ) -> tuple[int, list[str]]:
    """Execute one chunk of untraced faulty runs -> outcome values.

    The engine's resolved execution tier and warm-start setting ride in
    the payload so pool workers never depend on environment inheritance
    for an *explicit* engine option.  Recovery plans resolve this
    worker's tracker (fork children inherit the parent's warmed
    recovery context and snapshot ladder via copy-on-write; spawn
    workers derive their own, identical ones).
    """
    from repro.faults.campaign import execute_plan
    index, max_instr, exec_tier, warm_start, plans = task
    program = _STATE["program"]
    return index, [execute_plan(program, plan, max_instr,
                                exec_tier=exec_tier,
                                tracker_factory=_tracker,
                                warm_start=warm_start)
                   for plan in plans]


def analyze_task(task: tuple[int, FaultPlan]
                 ) -> tuple[int, str, dict[str, list[str]]]:
    """One traced analysis -> (index, manifestation, patterns-by-region).

    The result travels in the canonical
    :func:`~repro.engine.backends.protocol.encode_analysis` image
    (pattern sets as sorted lists) — one encoder for the pool and the
    wire paths, so cross-backend byte-parity cannot drift.
    """
    from repro.engine.backends.protocol import encode_analysis
    index, plan = task
    encoded = encode_analysis(_tracker().analyze_injection(plan))
    return index, encoded["m"], encoded["patterns"]
