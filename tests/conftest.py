"""Per-module resource hygiene for the test suite.

* Every module ends with an empty process-wide golden cache
  (:mod:`repro.golden`): in-process daemons and shard servers fill it,
  and without the reset each module's golden traces and ladders would
  stay in the pytest process for the rest of the session.  Each cached
  bundle's shared tracker is closed first, so its engine releases
  pools and sockets.
* A module that leaves live child processes behind fails (the shared
  ``no_leaked_children`` guard of the root ``conftest.py``), and so
  does one that leaves the cyclic garbage collector disabled
  (``gc_left_enabled``).
"""

import pytest

from repro import golden


@pytest.fixture(scope="module", autouse=True)
def _no_leaked_children(no_leaked_children):
    yield


@pytest.fixture(scope="module", autouse=True)
def _gc_left_enabled(gc_left_enabled):
    yield


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
