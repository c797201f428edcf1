"""Tests of the benchmark itself: statistics, spans, checks, workloads.

The workload tests run the seconds-long ``TINY`` size, never the full
one, so the repository's test command stays cheap.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import traceback

import pytest

from perfbench import common, run, tracing, workloads
from perfbench.common import NAME_RE, ROOT, tail_percentile
from perfbench.tracing import Span, self_times, union_length
from perfbench.workloads import TINY, diff_specs, failed_plans, \
    run_workload, tally_matches

UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _span(id_, start, end, parent=None, name="x"):
    return Span(id_, name, start, end, parent, 1, None)


# ---------------------------------------------------------------- percentile
@pytest.mark.parametrize("n", [1, 10, 11, 19])
def test_tail_needs_ten_samples_beyond_a_median_or_higher(n):
    assert tail_percentile([float(i) for i in range(n)]) is None


@pytest.mark.parametrize("n,pct", [(20, 50), (21, 52), (60, 83),
                                   (1000, 99), (5000, 99)])
def test_tail_percentile_is_the_highest_with_ten_beyond(n, pct):
    samples = [float(i) for i in range(n)]
    got_pct, value, count = tail_percentile(samples)
    assert (got_pct, count) == (pct, n)
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= common.TAIL_BEYOND
    if pct < 99:
        # one percentile higher would leave fewer than ten beyond
        assert n * (100 - (pct + 1)) < 100 * common.TAIL_BEYOND


def test_tail_percentile_ignores_sample_order():
    samples = [5.0, 1.0, 9.0, 3.0] * 10
    assert tail_percentile(samples) == tail_percentile(sorted(samples))


# ---------------------------------------------------------------- spans
def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),     # overlaps its sibling
        _span(4, 2.0, 3.0, parent=2),     # nested one level down
        _span(5, 8.0, 12.0, parent=1),    # sticks out of its parent
    ]
    got = self_times(spans)
    assert got[1] == pytest.approx(10 - (5 + 2))
    assert got[2] == pytest.approx(3 - 1)
    assert got[3] == pytest.approx(3)
    assert got[4] == pytest.approx(1)
    assert got[5] == pytest.approx(4)


def test_tracer_parents_spans_per_thread_and_restores_patches():
    class Owner:
        def work(self):
            return 7

    tracer = tracing.Tracer()
    tracer.patch(Owner, "work", tracer.spanned("outer.work"))
    outer = tracer.begin("outer.call")
    assert Owner().work() == 7
    tracer.end(outer)
    inner = next(s for s in tracer.spans if s.name == "outer.work")
    assert inner.parent == outer.id
    tracer.restore()
    Owner().work()
    assert len(tracer.spans) == 2


# ---------------------------------------------------------------- names
def test_benchmark_json_follows_the_contract():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in bench["workloads"]] + \
        [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name) and len(name) <= 64, name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def _mapped_names(layers: dict) -> set:
    return set(layers["per_layer"]) | {f"layer.{layer}.self_s"
                                       for layer in tracing.LAYERS}


def test_per_layer_map_covers_every_per_layer_metric():
    bench = _benchmark()
    layers = common.load_layers()
    assert {m["name"] for m in bench["per_layer"]} == _mapped_names(layers)
    movable = {m["name"] for m in bench["end_to_end"]} | set(run.REPORTED)
    workload_names = {w["name"] for w in bench["workloads"]}
    for name, entry in [*layers["per_layer"].items(),
                        ("self_time", layers["self_time"])]:
        assert set(entry["moves"]) <= movable, name
        assert set(entry["workloads"]) <= workload_names, name


def test_layer_metrics_emit_exactly_the_declared_names():
    metrics = tracing.layer_metrics(
        tracing.Tracer(), traced_wall=1.0, untraced_wall=1.0,
        window=(0.0, 1.0),
        warm_stats={"hits": 0, "misses": 0, "saved_instr": 0},
        pool_start_s=0.0)
    assert set(metrics) == _mapped_names(common.load_layers())


# ---------------------------------------------------------------- checks
def _canonical(success=3, failed=1):
    return {"experiment": {"name": "e", "seed": 1},
            "results": [
                {"app": "kmeans", "index": 0, "label": "a",
                 "mode": "campaign",
                 "campaign": {"success": success, "failed": failed,
                              "crashed": 0, "label": "a"}},
                {"app": "kmeans", "index": 1, "label": "b",
                 "mode": "campaign",
                 "campaign": {"success": 4, "failed": 0, "crashed": 0,
                              "label": "b"}}]}


def test_corrupted_envelope_fails_its_plans():
    plans = {("kmeans", 0): [object()] * 4, ("kmeans", 1): [object()] * 4}
    assert failed_plans(diff_specs(_canonical(), _canonical()), plans) == 0
    bad = diff_specs(_canonical(success=2, failed=2), _canonical())
    assert bad == {("kmeans", 0)}
    assert failed_plans(bad, plans) == 4
    renamed = _canonical()
    renamed["experiment"]["seed"] = 2
    assert failed_plans(diff_specs(renamed, _canonical()), plans) == 8
    missing = _canonical()
    missing["results"].pop()
    assert diff_specs(missing, _canonical()) == {("kmeans", 1)}


def test_tally_catches_a_wrong_manifestation():
    from repro.faults.campaign import CampaignResult
    counts = CampaignResult(success=2, failed=1, crashed=0)
    assert tally_matches(counts, ["success", "failed", "success"])
    assert not tally_matches(counts, ["success", "crashed", "success"])
    assert not tally_matches(counts, ["success", None, "failed"])


# ---------------------------------------------------------------- workloads
def _run(*args):
    """``run_workload(*args)`` in a forked child, so the test process keeps
    none of the memory the workload allocates; patches made before the
    call are inherited."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child() -> None:
        try:
            send.send((True, run_workload(*args)))
        except BaseException:  # reported by the test process
            send.send((False, traceback.format_exc()))
    proc = ctx.Process(target=child)
    proc.start()
    send.close()
    try:
        ok, value = receive.recv()
    finally:
        proc.join()
    if not ok:
        pytest.fail(value)
    return value


def _assert_contract(outcome, key):
    declared = {m["name"] for m in _benchmark()[key]}
    assert set(outcome.metrics) >= declared
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.extra.get("errors")


@pytest.mark.parametrize("name", ["sweep", "patterns"])
def test_experiment_workload_traced_smoke(name, tmp_path):
    # the traced run also makes an untraced pass; measure() is smoked by
    # the check tests below
    traced = _run(name, 3, 0.0, True, str(tmp_path), TINY)
    _assert_contract(traced, "per_layer")
    assert traced.metrics["engine.cache_hit_ratio"] == 0
    assert 0 < traced.metrics["engine.executed"] <= traced.attempted


def _assert_end_to_end(outcome):
    declared = {m["name"] for m in _benchmark()["end_to_end"]}
    assert set(outcome.metrics) >= declared
    # a tiny run may start no worker pool, so children may not exist
    assert all(v > 0 for k, v in outcome.metrics.items()
               if k != "child_rss_mb")


def test_sweep_check_counts_a_wrong_manifestation(tmp_path, monkeypatch):
    real = workloads.Sweep.prepare_check

    def corrupted(self, *args):
        state = real(self, *args)
        app, plan, value = state["sample"][0]
        wrong = "crashed" if value != "crashed" else "success"
        state["sample"][0] = (app, plan, wrong)
        return state
    monkeypatch.setattr(workloads.Sweep, "prepare_check", corrupted)
    outcome = _run("sweep", 3, 0.0, False, str(tmp_path), TINY)
    _assert_end_to_end(outcome)
    # exactly the corrupted sample entry fails; everything else matched
    assert outcome.failed == 1


def test_patterns_check_counts_a_wrong_envelope(tmp_path, monkeypatch):
    real = workloads.reference_result

    def corrupted(experiment):
        reference = real(experiment)
        reference["results"][0]["patterns"] = {"nowhere": ["X"]}
        return reference
    monkeypatch.setattr(workloads, "reference_result", corrupted)
    outcome = _run("patterns", 3, 0.0, False, str(tmp_path), TINY)
    _assert_end_to_end(outcome)
    assert outcome.failed == outcome.attempted > 0


def test_service_smoke_and_check(tmp_path, monkeypatch):
    untraced = _run("service", 3, 0.0, False, str(tmp_path), TINY)
    _assert_contract(untraced, "end_to_end")
    _assert_end_to_end(untraced)
    assert untraced.extra["job_samples"] == TINY.min_jobs

    # a wrong reference for one job shape fails exactly those jobs
    real = workloads._service_references

    def corrupted(jobs):
        references = real(jobs)
        for reference in references["recovery"]:
            reference["results"][0]["recovery"]["regions"] = []
        return references
    monkeypatch.setattr(workloads, "_service_references", corrupted)
    traced = _run("service", 3, 0.0, True, str(tmp_path), TINY)
    assert traced.attempted == TINY.traced_jobs
    assert traced.failed == TINY.traced_jobs // 2
    assert traced.metrics["recovery.runs"] > 0
    assert traced.metrics["protocol.frames"] > 0


def test_service_processes_are_reaped_when_a_run_fails(tmp_path,
                                                       monkeypatch):
    clusters = []
    real_start = workloads.Cluster.start

    def start(self):
        clusters.append(self)
        return real_start(self)

    def broken(*args, **kwargs):
        raise RuntimeError("client loop died")
    monkeypatch.setattr(workloads.Cluster, "start", start)
    monkeypatch.setattr(workloads, "closed_loop", broken)
    monkeypatch.setattr(workloads, "_service_references", lambda jobs: {})
    with pytest.raises(RuntimeError, match="client loop died"):
        run_workload("service", 3, 0.0, False, str(tmp_path), TINY)
    assert clusters
    for cluster in clusters:
        for proc in (cluster.registry, cluster.server):
            assert proc.proc.poll() is not None
