"""Shared test fixtures for ``tests/`` and ``benchmarks/``.

``gc_left_enabled`` is the module-level GC-state guard: a module that
ends with the cyclic garbage collector disabled (a pause that never
ended, see :mod:`repro.util.gcpause`) fails, and the guard turns the
collector back on so that later modules do not run without it.

``no_leaked_children`` is the module-level child-process guard: a
module that leaves live child processes behind fails.  After its
teardown, ``multiprocessing.active_children()`` must drain within a
few seconds.  Each straggler is reported once, by the module that left
it, so one leak does not fail every later module.  Stragglers are not
killed: a pool whose workers die would start new ones.

Neither fixture is autouse here; each suite's conftest opts in with
module-scoped autouse fixtures that request them.
"""

import gc
import multiprocessing
import time

import pytest

#: how long finished children get to be reaped after a module
CHILD_GRACE_S = 10.0

#: pids of the stragglers already reported
_REPORTED: set = set()


def _stragglers() -> list:
    return [child for child in multiprocessing.active_children()
            if child.pid not in _REPORTED]


@pytest.fixture(scope="module")
def no_leaked_children(request):
    yield
    deadline = time.monotonic() + CHILD_GRACE_S
    children = _stragglers()
    while children and time.monotonic() < deadline:
        time.sleep(0.05)
        children = _stragglers()
    if children:
        _REPORTED.update(child.pid for child in children)
        names = sorted(f"{child.name} (pid {child.pid})"
                       for child in children)
        pytest.fail(f"{request.module.__name__} left live child processes: "
                    f"{', '.join(names)}", pytrace=False)


@pytest.fixture(scope="module")
def gc_left_enabled(request):
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail(f"{request.module.__name__} left the cyclic garbage "
                    "collector disabled", pytrace=False)
