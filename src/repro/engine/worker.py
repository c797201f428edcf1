"""Worker-process side of the execution engine.

One module-level state dict serves both start methods:

* **fork** — the parent creates the pool inside :func:`fork_state`;
  children inherit the built program (and, when bound, the whole
  warmed tracker with its golden trace) via copy-on-write, so nothing
  large ever crosses a pipe;
* **spawn** — :func:`init_spawn_worker` rebuilds the program from the
  app registry inside the child; traced analyses lazily build a
  private tracker there (one golden trace per worker, amortized over
  the pool's lifetime).

Task payloads carry explicit indices so the engine can reassemble
results in plan order no matter the arrival order — the root of the
workers=1 vs workers=N determinism guarantee.

The task serves the :class:`~repro.engine.backends.local.
LocalPoolBackend`; shard servers execute the equivalent request body in
:mod:`repro.engine.backends.protocol` instead — both through
:func:`~repro.faults.campaign.execute_plan`, so the two paths produce
byte-identical values for every plan kind.
"""

from __future__ import annotations

import contextlib
from typing import Optional, Sequence

#: per-process worker state: {"program": Program, "tracker": FlipTracker|None}
_STATE: dict = {}


@contextlib.contextmanager
def fork_state(program, tracker=None):
    """Install state in the *parent* for the children forked inside.

    On exit the parent drops its tracker reference: the children hold
    their own copy, and a parent-side one would pin the tracker — and
    through it the engine and its pool — so an engine dropped without
    ``close()`` could never be collected.  The program stays for
    workers the pool forks later; they build a private tracker lazily.
    """
    _STATE["program"] = program
    _STATE["tracker"] = tracker
    try:
        yield
    finally:
        _STATE["tracker"] = None


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
                               Sequence]) -> tuple[int, list[str]]:
    """Execute one chunk of plans of any kind -> outcome values.

    The engine's resolved execution tier and warm-start setting ride in
    the payload so pool workers never depend on environment inheritance
    for an *explicit* engine option.  Recovery and analysis plans
    resolve this worker's tracker (fork children inherit the parent's
    warmed golden trace, recovery context and snapshot ladder via
    copy-on-write; spawn workers derive their own, identical ones).
    """
    from repro.faults.campaign import execute_plan
    index, max_instr, exec_tier, warm_start, plans = task
    program = _STATE["program"]
    return index, [execute_plan(program, plan, max_instr,
                                exec_tier=exec_tier,
                                tracker_factory=_tracker,
                                warm_start=warm_start)
                   for plan in plans]
