"""Worker-process side of the execution engine.

One module-level state dict serves both start methods, and every plan
runs on the worker's tracker, whose VM tier and warm start are the
engine tracker's:

* **fork** — the parent creates the pool inside :func:`fork_state`;
  children inherit the engine's whole warmed tracker (program, run
  settings, golden trace) via copy-on-write, so nothing large ever
  crosses a pipe;
* **spawn** — :func:`init_spawn_worker` rebuilds the program from the
  app registry inside the child and keeps the engine tracker's
  settings; the first plan lazily builds a private tracker with them
  (one golden trace per worker, amortized over the pool's lifetime).

Task payloads are ``(index, max_instr, plans)``: the explicit index
lets the engine reassemble results in plan order no matter the
arrival order — the root of the workers=1 vs workers=N determinism
guarantee.

The task serves the :class:`~repro.engine.backends.local.
LocalPoolBackend`; shard servers execute the equivalent request body in
:mod:`repro.engine.backends.protocol` instead — both through
:func:`~repro.faults.campaign.execute_plan`, so the two paths produce
byte-identical values for every plan kind.
"""

from __future__ import annotations

import contextlib
from typing import Optional, Sequence

#: per-process worker state: the program, the run settings
#: ``(exec_tier, warm_start)`` and the tracker (``None`` until built)
_STATE: dict = {}


@contextlib.contextmanager
def fork_state(tracker):
    """Install ``tracker`` in the *parent* for the children forked inside.

    On exit the parent drops its tracker reference: the children hold
    their own copy, and a parent-side one would pin the tracker — and
    through it the engine and its pool — so an engine dropped without
    ``close()`` could never be collected.  The program and settings
    stay for workers the pool forks later; they build a private
    tracker lazily.
    """
    _STATE.update(program=tracker.program, tracker=tracker,
                  settings=(tracker.exec_tier, tracker.warm_start))
    try:
        yield
    finally:
        _STATE["tracker"] = None


def clear_parent_state() -> None:
    _STATE.clear()


def init_spawn_worker(app_name: str, params: dict, exec_tier: str,
                      warm_start: bool) -> None:
    """Spawn-mode initializer: rebuild the program from the registry."""
    import repro.apps  # populate the registry  # noqa: F401
    from repro.apps.base import REGISTRY
    _STATE.update(program=REGISTRY.build(app_name, **params), tracker=None,
                  settings=(exec_tier, warm_start))


def _tracker():
    tracker = _STATE.get("tracker")
    if tracker is None:
        # spawn (or late-forked) worker: build (and keep) a private
        # tracker on the engine tracker's settings
        from repro.core.fliptracker import FlipTracker
        exec_tier, warm_start = _STATE["settings"]
        tracker = FlipTracker(_STATE["program"], workers=1,
                              exec_tier=exec_tier, warm_start=warm_start)
        _STATE["tracker"] = tracker
    return tracker


def run_plans_task(task: tuple[int, Optional[int], Sequence]
                   ) -> tuple[int, list[str]]:
    """Execute one chunk of plans of any kind -> outcome values.

    Every plan runs on this worker's tracker: fork children inherit
    the parent's warmed golden trace, recovery context and snapshot
    ladder via copy-on-write; spawn workers derive their own,
    identical ones.
    """
    from repro.faults.campaign import execute_plan
    index, max_instr, plans = task
    tracker = _tracker()
    return index, [execute_plan(tracker, plan, max_instr)
                   for plan in plans]
