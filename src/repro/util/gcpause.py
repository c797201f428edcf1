"""Pausing CPython's cyclic garbage collector around trace building.

A traced run appends one record tuple per executed instruction.  Every
few hundred allocations the cyclic collector wakes and re-traverses
the young records, and its older generations re-traverse the whole
growing list; the records are acyclic, so those collections free
nothing.  :func:`gc_paused` turns the collector off for the span of
such a burst.  Reference counting still frees everything acyclic at
once, so a pause changes no result, only CPU time; unreachable cycles
made during a pause wait for the first collection after it.

The collector's switch is process-wide, so the pause is too: pauses
nest and overlap across threads, the collector goes off on the
outermost entry and back on at the outermost exit, and only if it was
on when that outermost pause began (a caller that turned it off keeps
it off).  A process forked during a pause runs none of its parent's
pause bodies to their end, so the child gets the collector state the
outermost pause found, and the pauses it inherited end as no-ops.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Iterator


class _PauseState:
    """Depth count of the pauses open in this process."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.depth = 0
        #: whether the outermost open pause found the collector on
        self.reenable = False
        #: bumped in a forked child: pauses opened before it do nothing
        #: on exit
        self.epoch = 0


_STATE = _PauseState()


@contextmanager
def gc_paused() -> Iterator[None]:
    """Turn the cyclic collector off for the ``with`` body.

    See the module docstring for nesting, threads and forks.
    """
    state = _STATE
    with state.lock:
        if state.depth == 0:
            state.reenable = gc.isenabled()
            gc.disable()
        state.depth += 1
        epoch = state.epoch
    try:
        yield
    finally:
        with state.lock:
            if state.epoch == epoch:
                state.depth -= 1
                if state.depth == 0 and state.reenable:
                    gc.enable()


def _before_fork() -> None:
    # hold the lock across the fork, so no thread is half-way through
    # an entry or exit when the child's copy of the state is taken
    _STATE.lock.acquire()


def _after_fork_in_parent() -> None:
    _STATE.lock.release()


def _after_fork_in_child() -> None:
    # only the forking thread survives, and the pauses open in the
    # parent never end here
    state = _STATE
    if state.depth and state.reenable:
        gc.enable()
    state.depth = 0
    state.epoch += 1
    state.lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_before_fork,
                        after_in_parent=_after_fork_in_parent,
                        after_in_child=_after_fork_in_child)
