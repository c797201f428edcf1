"""Per-module resource hygiene for the test suite.

* Every module ends with an empty process-wide golden cache
  (:mod:`repro.golden`): in-process daemons and shard servers fill it,
  and without the reset each module's golden traces and ladders would
  stay in the pytest process for the rest of the session.  Each cached
  bundle's shared tracker is closed first, so its engine releases
  pools and sockets.
* A module that leaves live child processes behind fails: after its
  teardown, ``multiprocessing.active_children()`` must drain within a
  few seconds.  Each straggler is reported once, by the module that
  left it, so one leak does not fail every later module.  Stragglers
  are not killed: a pool whose workers die would start new ones.
"""

import multiprocessing
import time

import pytest

from repro import golden

#: how long finished children get to be reaped after a module
CHILD_GRACE_S = 10.0

#: pids of the stragglers already reported
_REPORTED: set = set()


def _stragglers() -> list:
    return [child for child in multiprocessing.active_children()
            if child.pid not in _REPORTED]


@pytest.fixture(scope="module", autouse=True)
def _no_leaked_children(request):
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


@pytest.fixture(scope="module", autouse=True)
def _release_golden_cache(_no_leaked_children):
    yield
    with golden.GOLDEN_CACHE_LOCK:
        bundles = list(golden.GOLDEN_CACHE.values())
        golden.GOLDEN_CACHE.clear()
    for bundle in bundles:
        tracker = bundle._shared_tracker
        if tracker is not None:
            tracker.close()
