"""The cyclic-GC pause around trace building (``repro.util.gcpause``).

* nesting, a caller's own ``gc.disable()`` and exceptions;
* threads whose pauses overlap, and a child forked inside a pause;
* the traced golden run encodes every chunk of records with the GC
  off;
* the traced-analysis branch of ``execute_plan``: no collection runs
  while its records are built and dropped, and the GC is back on after;
* a closed tracker's golden bundle is freed without a collection, so
  a pause cannot keep a dropped bundle alive beside a new one;
* so is an unclosed one's: its engine refers back to it weakly, and
  the engine of a dropped tracker says so instead of running plans.
"""

import gc
import multiprocessing as mp
import os
import threading
import weakref

import pytest

from test_engine import loop_instance, tiny_program

from repro.apps import REGISTRY
from repro.core import FlipTracker
from repro.core.fliptracker import GoldenArtifacts
from repro.engine import EngineError
from repro.faults.analysis import AnalysisPlan
from repro.faults.campaign import execute_plan
from repro.trace.columnar import GoldenTrace
from repro.util import gc_paused
from repro.vm.fault import FaultPlan

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs the fork start method")


@pytest.fixture(autouse=True)
def _gc_enabled():
    """Every test starts, and must end, with the GC on (a test that
    leaves it off fails alone: the GC is turned back on)."""
    assert gc.isenabled()
    yield
    left_off = not gc.isenabled()
    gc.enable()
    assert not left_off, "the test left the GC disabled"


@pytest.fixture
def collections():
    """Count the collections that start while the fixture is live."""
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(on_gc)
    yield starts
    gc.callbacks.remove(on_gc)


def test_nested_pauses_reenable_at_outermost_exit():
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_caller_disabled_gc_stays_disabled():
    gc.disable()
    try:
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_exception_in_body_restores_gc():
    with pytest.raises(ZeroDivisionError):
        with gc_paused():
            with gc_paused():
                1 / 0
    assert gc.isenabled()


def test_overlapping_thread_pauses_reenable_after_both():
    a_in, b_in, a_out, b_out = (threading.Event() for _ in range(4))
    seen = {}

    def first():
        with gc_paused():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def second():
        a_in.wait(10)
        with gc_paused():
            b_in.set()
            a_out.wait(10)
            # the first pause ended while this one is open
            seen["after_first_exit"] = gc.isenabled()
        b_out.set()

    threads = [threading.Thread(target=first),
               threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert a_out.is_set() and b_out.is_set()
    assert seen == {"after_first_exit": False}
    assert gc.isenabled()


def _report_gc(conn):
    conn.send(gc.isenabled())
    conn.close()


@needs_fork
def test_child_forked_inside_pause_sees_gc_enabled():
    ctx = mp.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    with gc_paused():
        child = ctx.Process(target=_report_gc, args=(send,))
        child.start()
        send.close()
        assert recv.poll(10)
        in_child = recv.recv()
        assert not gc.isenabled()
    child.join(10)
    assert not child.is_alive() and child.exitcode == 0
    assert in_child is True


@pytest.fixture(scope="module")
def kmeans():
    with FlipTracker(REGISTRY.build("kmeans"), seed=3) as ft:
        ft.warm_ladder()
        yield ft


def test_analysis_plan_runs_without_collections(kmeans, collections):
    """No collection starts while an analysis plan's traces are built
    and dropped; the same analysis with the GC on collects many times,
    so the count shows the pause."""
    fault = FaultPlan(trigger=1000, mode="result", bit=3)
    kmeans.analyze_injection(fault)
    assert collections, "the unpaused analysis ran no collection"
    collections.clear()
    value = execute_plan(kmeans, AnalysisPlan(fault))
    assert collections == []
    assert gc.isenabled()
    assert value == execute_plan(kmeans, AnalysisPlan(fault))


def test_golden_run_encodes_every_chunk_with_gc_paused(monkeypatch):
    seen = []
    extend = GoldenTrace.extend

    def spy(self, records):
        seen.append(gc.isenabled())
        return extend(self, records)

    monkeypatch.setattr(GoldenTrace, "extend", spy)
    GoldenArtifacts(REGISTRY.build("kmeans")).fault_free_trace()
    assert seen and not any(seen)


def test_closed_tracker_is_freed_without_a_collection():
    ft = FlipTracker(tiny_program(), seed=9)
    plans = ft.make_plans(loop_instance(ft), "internal", 2)
    ft.engine.run_plans(plans, max_instr=ft.faulty_budget)
    ft.close()
    bundle = weakref.ref(ft._golden)
    with gc_paused():
        del ft
        assert bundle() is None


def test_unclosed_tracker_is_freed_without_a_collection():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ft = FlipTracker(tiny_program(), seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 2)
        ft.engine.run_plans(plans, max_instr=ft.faulty_budget)
        bundle = weakref.ref(ft._golden)
        engine = ft.engine
        del ft
        assert bundle() is None
        with pytest.raises(EngineError, match="tracker is gone"):
            engine.tracker
        engine.close()
    finally:
        if was_enabled:
            gc.enable()
