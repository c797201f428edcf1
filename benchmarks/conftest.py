"""Shared fixtures for the experiment regenerators.

Every benchmark prints the rows/series the paper reports and asserts
the qualitative *shape* (who wins, where drops happen), not absolute
numbers — the substrate is a simulated interpreter, not the authors'
cluster (see EXPERIMENTS.md).

Scaling: set ``REPRO_BENCH_SCALE`` (float, default 1) to multiply
injection counts — e.g. ``REPRO_BENCH_SCALE=10`` approaches the paper's
Leveugle-sized campaigns at ~10x the runtime.
"""

import os

import pytest

from repro.apps import REGISTRY
from repro.core import FlipTracker

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def scaled(n: int) -> int:
    return max(4, int(n * SCALE))


_trackers: dict[str, FlipTracker] = {}


WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS",
                             str(min(2, os.cpu_count() or 1))))


def tracker(app: str, **params) -> FlipTracker:
    """FlipTracker cached for the current module (golden traces are
    expensive); ``_close_trackers`` releases it when the module ends."""
    key = app + repr(sorted(params.items()))
    if key not in _trackers:
        _trackers[key] = FlipTracker(REGISTRY.build(app, **params),
                                     seed=20181111,  # SC'18 dates
                                     workers=WORKERS)
    return _trackers[key]


@pytest.fixture(scope="module", autouse=True)
def _no_leaked_children(no_leaked_children):
    """The shared child-process guard (root ``conftest.py``)."""
    yield


@pytest.fixture(scope="module", autouse=True)
def _gc_left_enabled(gc_left_enabled):
    """The shared GC-state guard (root ``conftest.py``)."""
    yield


@pytest.fixture(scope="module", autouse=True)
def _close_trackers(_no_leaked_children):
    """Close every cached tracker (and its worker pool) after each module.

    A pytest session that goes on to other directories would otherwise
    keep every tracker's pool and golden trace until the session ends.
    Runs before the child-process guard checks the module.
    """
    yield
    for ft in _trackers.values():
        ft.close()
    _trackers.clear()


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return SCALE
