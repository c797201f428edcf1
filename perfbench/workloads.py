"""The benchmark's workloads: ``sweep``, ``patterns`` and ``service``.

Every workload runs the repository's default configuration (the caller
strips ``REPRO_EXEC``/``REPRO_WARMSTART``/``REPRO_BENCH_*`` first) and
derives all inputs from the seed.  Each has an untraced form
(:func:`measure`), which reports the end-to-end metrics, and a traced
form (:func:`measure_traced`), which runs one pass without and one with
the layer wrappers of :mod:`perfbench.tracing`, all in-process.

Why these three: ``sweep`` is dominated by untraced faulty runs (VM,
warm start, fault classification, local pool) and bypasses ACL and
pattern detection; ``patterns`` is dominated by traced runs (traced
interpreter, ACL, faulty-trace region split, pattern detectors) and
bypasses warm start; ``service`` is the only one that crosses the
socket backend, the wire protocol, the registry scheduler, the job
queue and recovery.
"""

from __future__ import annotations

import gc
import itertools
import os
import queue
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from statistics import median
from typing import Callable, Optional

from perfbench import tracing
from perfbench.common import ROOT, cpu_s, nproc, peak_rss_mb, pid_cpu_s, \
    tail_percentile

#: kmeans loop regions, as in ``examples/specs/fig5_mini.json``
KMEANS_LOOPS = ("k_b", "k_d", "k_f", "k_h")

#: service jobs alternate between these two shapes
JOB_KINDS = ("campaign", "recovery")


@dataclass(frozen=True)
class Size:
    """How much work one run does (the benchmark has one full size)."""

    #: set-ups per run (``setup_s`` is their median); the patterns
    #: set-up is cheap, so it is repeated more often
    setups: int = 3
    pattern_setups: int = 7
    #: repetitions per run at least, however long they take.  One
    #: repetition holds many plans: a seed changes which plans run, and
    #: the more of them a run holds, the less its figures depend on it
    min_reps: int = 1
    sweep_apps: tuple = ("kmeans", "cg", "lulesh")
    region_n: int = 12
    whole_n: int = 12
    sample_per_kind: int = 2
    pattern_apps: tuple = ("kmeans",)
    runs_per_kind: int = 1
    #: the seed-independent Table I probes dilute the seed-drawn runs,
    #: whose traced cost has a heavy tail
    probe_sites: int = 2
    job_campaign_n: int = 2
    job_recovery_n: int = 1
    #: seeds derived from the run's seed per job shape; jobs cycle
    #: through them so one run averages over several job contents
    job_variants: int = 3
    min_jobs: int = 12
    traced_jobs: int = 4


FULL = Size()

#: the traced passes run on one worker, twice, so they hold fewer plans
TRACED = replace(FULL, region_n=4, whole_n=4, probe_sites=1)

#: a seconds-long version of every workload, for the benchmark's tests
TINY = Size(setups=1, pattern_setups=1, min_reps=1,
            sweep_apps=("kmeans",), region_n=1, whole_n=1,
            sample_per_kind=1, probe_sites=0, job_campaign_n=1,
            job_recovery_n=1, job_variants=1, min_jobs=2, traced_jobs=2)


def repeat_setup(count: int, setup: Callable, discard: Callable):
    """Run ``setup`` ``count`` times -> (wall times, CPU times, last state).

    ``setup`` returns ``(wall seconds, CPU seconds, state)``; every
    state but the last is handed to ``discard`` before the next set-up
    builds anew.
    """
    walls, cpus = [], []
    for k in range(count):
        if k:
            discard(state)
            state = None
            gc.collect()
        wall, cpu, state = setup()
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus, state


@dataclass
class Outcome:
    """What one run measured: operations, failures and named metrics."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> value (units are in ``BENCHMARK.json``)
    metrics: dict = field(default_factory=dict)
    #: everything else recorded in the result file
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------- checks
def diff_specs(got: dict, want: dict) -> set:
    """``(app, index)`` of every spec result that differs from ``want``.

    Both arguments are canonical ``ExperimentResult`` images
    (``to_dict(provenance=False)``).  A different experiment identity
    makes every spec differ.
    """
    have = {(r["app"], r["index"]): r for r in got.get("results", ())}
    need = {(r["app"], r["index"]): r for r in want.get("results", ())}
    if got.get("experiment") != want.get("experiment"):
        return set(have) | set(need)
    return {k for k in need if have.get(k) != need[k]} | \
        (set(have) - set(need))


def failed_plans(bad: set, plans: dict) -> int:
    """Operations lost to the differing specs in ``bad``."""
    return sum(len(plans.get(key, (None,))) for key in bad)


def tally_matches(campaign, values: list) -> bool:
    """Do a spec's counts equal the tally of its plans' outcomes?"""
    counts = {"success": 0, "failed": 0, "crashed": 0}
    for value in values:
        if value not in counts:
            return False
        counts[value] += 1
    return (campaign.success, campaign.failed, campaign.crashed) == \
        (counts["success"], counts["failed"], counts["crashed"])


# ---------------------------------------------------------------- trackers
def _tracker(app: str, seed: int, workers: int, **kwargs):
    from repro.apps import REGISTRY
    from repro.core import FlipTracker
    return FlipTracker(REGISTRY.build(app), seed=seed, workers=workers,
                       **kwargs)


def _close(trackers: dict) -> None:
    for tracker in trackers.values():
        tracker.close()


def build_trackers(apps, seed: int, workers: int, warm: bool) -> dict:
    """Program build, golden trace, region instances (+ warm ladder)."""
    from repro.warmstart import resolve_warmstart
    trackers = {}
    for app in apps:
        tracker = _tracker(app, seed, workers)
        tracker.fault_free_trace()
        tracker.trace_index()
        tracker.instances()
        if warm and resolve_warmstart(tracker.warm_start):
            tracker.recovery_context()
            tracker.warm_ladder()
        trackers[app] = tracker
    return trackers


def compile_plans(experiment, trackers: dict) -> dict:
    """``(app, spec index) -> plans`` exactly as the runner compiles them."""
    import repro.api.compile as api_compile
    from repro.api import AnalysisSpec, CampaignSpec, RecoverySpec
    plans = {}
    for app in experiment.apps:
        tracker = trackers[app]
        for index, spec in enumerate(experiment.specs):
            if spec.app is not None and spec.app != app:
                continue
            if isinstance(spec, CampaignSpec):
                plans[app, index] = api_compile.compile_campaign(
                    tracker, spec)[1]
            elif isinstance(spec, AnalysisSpec):
                plans[app, index] = api_compile.compile_analysis(
                    tracker, spec)[1]
            elif isinstance(spec, RecoverySpec):
                plans[app, index] = [
                    p for _r, _l, group in api_compile.compile_recovery(
                        tracker, spec) for p in group]
    return plans


def reference_result(experiment, trackers: Optional[dict] = None) -> dict:
    """Canonical result on the reference path: one worker, interpreter,
    no warm start.  Reference trackers are built into ``trackers`` (the
    caller's to close) or, without it, built and closed here."""
    import repro.api as api
    owned = trackers is None
    trackers = {} if owned else trackers

    def factory(app):
        if app not in trackers:
            trackers[app] = _tracker(app, experiment.seed, 1,
                                     exec_tier="interp", warm_start="off")
        return trackers[app]
    try:
        result = api.run_experiment(replace(experiment, workers=1),
                                    tracker_factory=factory)
    finally:
        if owned:
            _close(trackers)
    return result.to_dict(provenance=False)


def _rss_metrics() -> dict:
    own, children = peak_rss_mb()
    return {"peak_rss_mb": own, "child_rss_mb": children}


# ---------------------------------------------------------------- experiments
class ExperimentWorkload:
    """A workload repeating one ``Experiment`` through ``run_experiment``."""

    #: build the recovery context and warm ladder during set-up
    warm = False
    #: the workload's own name for ``runs_per_s``, also reported
    rate_alias: Optional[str] = None

    def apps(self, size: Size) -> tuple:
        raise NotImplementedError

    def setup_count(self, size: Size) -> int:
        return size.setups

    def experiment(self, seed: int, size: Size, trackers: dict,
                   workers: int):
        raise NotImplementedError

    def prepare_check(self, experiment, trackers, plans, seed, size):
        """Untimed reference state for :meth:`check`."""
        return {"reference": reference_result(experiment)}

    def check(self, result, caches, plans, state) -> int:
        """Failed operations of one repetition (0 when correct)."""
        bad = diff_specs(result.to_dict(provenance=False),
                         state["reference"])
        return failed_plans(bad, plans)

    # ------------------------------------------------------------ phases
    def setup(self, seed: int, size: Size, workers: int):
        """Everything until the first plan is ready -> (wall, CPU, state)."""
        t0, c0 = time.perf_counter(), cpu_s()
        trackers = build_trackers(self.apps(size), seed, workers, self.warm)
        experiment = self.experiment(seed, size, trackers, workers)
        plans = compile_plans(experiment, trackers)
        return (time.perf_counter() - t0, cpu_s() - c0,
                (trackers, experiment, plans))

    def repetition(self, experiment, trackers: dict):
        """One experiment on fresh engines -> (result, wall, CPU, caches).

        Like the runner's default trackers, each app's engine (and its
        worker pool) is closed once the runner moves on, so no pool is
        forked while another one's threads run.  ``caches`` maps each
        app to its engine's ``(PlanCache, program fingerprint)``.
        """
        import repro.api as api
        if any(t._engine is not None for t in trackers.values()):
            raise RuntimeError("repetition would reuse a warm engine")
        caches: dict = {}
        open_apps: list = []

        def close_open() -> None:
            while open_apps:
                app = open_apps.pop()
                engine = trackers[app]._engine
                if engine is not None:
                    caches[app] = (engine.cache, engine.program_fp)
                trackers[app].close()

        def factory(app):
            close_open()
            open_apps.append(app)
            return trackers[app]
        t0, c0 = time.perf_counter(), cpu_s()
        try:
            result = api.run_experiment(experiment, tracker_factory=factory)
        finally:
            close_open()
        # closing an engine joins its pool, so its workers' CPU is counted
        return result, time.perf_counter() - t0, cpu_s() - c0, caches

    def measure(self, seed: int, seconds: float, size: Size) -> Outcome:
        workers = nproc()
        setup_walls, setup_cpus, (trackers, experiment, plans) = \
            repeat_setup(self.setup_count(size),
                         lambda: self.setup(seed, size, workers),
                         lambda state: _close(state[0]))
        per_rep = sum(len(p) for p in plans.values())
        out = Outcome()
        walls, cpus, errors = [], [], []
        done = []       # (result, caches) of each repetition, checked last
        dispatch_s = 0.0
        runs = 0
        start = time.perf_counter()
        while len(walls) + len(errors) < size.min_reps or \
                time.perf_counter() - start < seconds:
            out.attempted += per_rep
            try:
                result, wall, cpu, caches = self.repetition(experiment,
                                                            trackers)
            except Exception as exc:  # a failed repetition is data
                out.failed += per_rep
                errors.append(f"{type(exc).__name__}: {exc}")
            else:
                done.append((result, caches))
                walls.append(wall)
                cpus.append(cpu)
                dispatch_s += sum(d["seconds"] for d in result.dispatches)
                runs += result.executed
            if len(errors) >= 3:
                break
        measured = time.perf_counter() - start
        out.metrics = {
            "setup_s": median(setup_cpus),
            "run_cpu_ms": 1000 * sum(cpus) / runs if runs else 0.0,
            "experiment_cpu_s": median(cpus) if cpus else 0.0,
            # read before the check: its reference runs are untimed and
            # would otherwise set the peak
            **_rss_metrics(),
        }
        state = self.prepare_check(experiment, trackers, plans, seed, size)
        for result, caches in done:
            out.failed += min(per_rep, self.check(result, caches, plans,
                                                  state))
        runs_per_s = runs / dispatch_s if dispatch_s else 0.0
        out.extra = {"reported": {
                         "setup_wall_s": median(setup_walls),
                         "runs_per_s": runs_per_s,
                         **({self.rate_alias: runs_per_s}
                            if self.rate_alias else {}),
                         "experiment_s": median(walls) if walls
                         else measured},
                     "setup_s_all": setup_walls,
                     "setup_cpu_s_all": setup_cpus, "repetition_s": walls,
                     "repetition_cpu_s": cpus,
                     "dispatch_s": dispatch_s, "runs": runs,
                     "plans_per_repetition": per_rep,
                     "measured_s": measured, "workers": workers,
                     "errors": errors}
        return out

    def measure_traced(self, seed: int, size: Size) -> Outcome:
        """One untraced and one traced pass (set-up + one repetition)."""
        from repro.warmstart import WARM_STATS, reset_stats
        t0 = time.perf_counter()
        trackers, experiment, plans = self.setup(seed, size, 1)[2]
        plain = self.repetition(experiment, trackers)[0]
        untraced_wall = time.perf_counter() - t0
        del trackers
        gc.collect()

        tracer = tracing.Tracer()
        tracing.install(tracer)
        reset_stats()
        try:
            t1 = time.perf_counter()
            trackers, experiment, plans = self.setup(seed, size, 1)[2]
            tracer.set_context("rep-0")
            try:
                traced = self.repetition(experiment, trackers)[0]
            finally:
                tracer.set_context(None)
            t2 = time.perf_counter()
        finally:
            tracer.restore()
        warm_stats = dict(WARM_STATS)
        pool_start_s = measure_pool_start(trackers)
        out = Outcome(attempted=sum(len(p) for p in plans.values()))
        out.failed = failed_plans(
            diff_specs(traced.to_dict(provenance=False),
                       plain.to_dict(provenance=False)), plans)
        out.metrics = tracing.layer_metrics(
            tracer, traced_wall=t2 - t1, untraced_wall=untraced_wall,
            window=(t1, t2), warm_stats=warm_stats,
            pool_start_s=pool_start_s)
        out.extra = {"traced_wall_s": t2 - t1,
                     "untraced_wall_s": untraced_wall,
                     "spans": [s.to_dict() for s in tracer.spans]}
        return out


def measure_pool_start(trackers: dict) -> float:
    """``LocalPoolBackend.pool_for`` cost with the default worker count.

    Traced passes run one worker, where no pool starts, so the pool
    start is timed here once per app on the warmed trackers.
    """
    total = 0.0
    for tracker in trackers.values():
        tracker.workers = nproc()
        engine = tracker.engine
        t0 = time.perf_counter()
        engine.local_backend.pool_for(engine.min_parallel)
        total += time.perf_counter() - t0
        tracker.close()
    return total


def loop_regions(tracker) -> list:
    return [inst.region.name for inst in tracker.instances()
            if inst.index == 0 and inst.region.kind == "loop"]


class Sweep(ExperimentWorkload):
    """Fig. 5/6-style untraced campaigns over kmeans, cg and lulesh."""

    warm = True

    def apps(self, size):
        return size.sweep_apps

    def experiment(self, seed, size, trackers, workers):
        from repro.api import CampaignSpec, Experiment
        specs = []
        for app in size.sweep_apps:
            for region in loop_regions(trackers[app]):
                for kind in ("internal", "input"):
                    specs.append(CampaignSpec(
                        target="region", region=region, kind=kind,
                        n=size.region_n, app=app))
            specs.append(CampaignSpec(target="whole_program",
                                      kind="internal", n=size.whole_n,
                                      app=app))
        return Experiment(name="perfbench-sweep", apps=size.sweep_apps,
                          specs=tuple(specs), seed=seed, workers=workers)

    def prepare_check(self, experiment, trackers, plans, seed, size):
        """A seed-derived plan sample re-run cold on the interpreter.

        A full cold reference would cost more than the measurement, so
        each repetition is checked three ways instead: against this
        sample, against its own per-plan outcomes (the per-spec counts
        must tally), and against the first repetition's canonical image.
        """
        import repro.faults.campaign as campaign
        rng = random.Random(f"perfbench-sample-{seed}")
        sample = []
        for app in experiment.apps:
            tracker = trackers[app]
            for kind in ("internal", "input"):
                pool = [p for (a, i), group in plans.items()
                        if a == app and experiment.specs[i].kind == kind
                        for p in group]
                for plan in rng.sample(pool, min(size.sample_per_kind,
                                                 len(pool))):
                    value = campaign.run_plan(
                        tracker.program, plan,
                        max_instr=tracker.faulty_budget,
                        exec_tier="interp", ladder=None).value
                    sample.append((app, plan, value))
        return {"sample": sample, "first": None,
                "budgets": {app: trackers[app].faulty_budget
                            for app in experiment.apps}}

    def check(self, result, caches, plans, state) -> int:
        from repro.engine.keys import plan_key

        def outcome(app, plan):
            cache, program_fp = caches[app]
            return cache.get(plan_key(program_fp, plan,
                                      state["budgets"][app]))

        canonical = result.to_dict(provenance=False)
        if state["first"] is None:
            state["first"] = canonical
        bad = diff_specs(canonical, state["first"])
        for spec_result in result.results:
            key = (spec_result.app, spec_result.index)
            values = [outcome(spec_result.app, p)
                      for p in plans.get(key, ())]
            if not tally_matches(spec_result.campaign, values):
                bad.add(key)
        failed = failed_plans(bad, plans)
        for app, plan, want in state["sample"]:
            if outcome(app, plan) != want:
                failed += 1
        return failed


class Patterns(ExperimentWorkload):
    """Table I traced pattern analyses (uniform draws + low-bit probes)."""

    rate_alias = "analyses_per_s"

    def apps(self, size):
        return size.pattern_apps

    def setup_count(self, size):
        return size.pattern_setups

    def experiment(self, seed, size, trackers, workers):
        from repro.api import AnalysisSpec, Experiment
        spec = AnalysisSpec(runs_per_kind=size.runs_per_kind,
                            loop_only=True, probe_sites=size.probe_sites)
        return Experiment(name="perfbench-patterns",
                          apps=size.pattern_apps, specs=(spec,),
                          seed=seed, workers=workers)


# ---------------------------------------------------------------- service
def job_experiments(seed: int, size: Size) -> dict:
    """Per job shape, one experiment per variant seed; plus the warm-up
    job, which holds both shapes."""
    from repro.api import CampaignSpec, Experiment, RecoverySpec
    campaign = tuple(CampaignSpec(target="region", region=region,
                                  kind=kind, n=size.job_campaign_n)
                     for kind in ("internal", "input")
                     for region in KMEANS_LOOPS)
    recovery = (RecoverySpec(policy="recompute-region",
                             detector="checksum", n=size.job_recovery_n),)
    seeds = [seed * 16 + k for k in range(size.job_variants)]
    return {
        "campaign": [Experiment(name="perfbench-fig5-mini",
                                apps=("kmeans",), seed=s, specs=campaign)
                     for s in seeds],
        "recovery": [Experiment(name="perfbench-recovery-mini",
                                apps=("kmeans",), seed=s, specs=recovery)
                     for s in seeds],
        "warmup": Experiment(name="perfbench-warmup", apps=("kmeans",),
                             seed=seed, specs=campaign + recovery),
    }


#: run ``python -m repro ...`` so the kernel kills it when the benchmark
#: process dies, however it dies (prctl PR_SET_PDEATHSIG survives exec)
_DIE_WITH_PARENT = ("import ctypes, os, signal, sys; "
                    "ctypes.CDLL(None).prctl(1, signal.SIGKILL); "
                    "os.execv(sys.executable, "
                    "[sys.executable, '-m', 'repro'] + sys.argv[1:])")


class _Process:
    """One ``repro`` subprocess in its own session, stdout drained."""

    def __init__(self, argv: list, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _DIE_WITH_PARENT, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, text=True, env=env, cwd=str(ROOT),
            start_new_session=True)
        self.log: list[str] = []
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.log.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def wait_line(self, prefix: str, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise TimeoutError(f"no {prefix!r} line within {timeout}s:"
                                   f" {''.join(self.log)[-2000:]}") from None
            if line is None:
                raise RuntimeError(f"process exited before {prefix!r}: "
                                   f"{''.join(self.log)[-2000:]}")
            if line.startswith(prefix):
                return line

    def stop(self) -> None:
        if self.proc.poll() is None:
            for sig, wait in ((signal.SIGTERM, 10), (signal.SIGKILL, 10)):
                try:
                    os.killpg(self.proc.pid, sig)
                except ProcessLookupError:
                    break
                try:
                    self.proc.wait(timeout=wait)
                    break
                except subprocess.TimeoutExpired:
                    continue
        self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()


class Cluster:
    """A ``repro registry`` and a ``repro serve kmeans`` subprocess."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.registry: Optional[_Process] = None
        self.server: Optional[_Process] = None
        self.address = ""
        self._spill = ""

    def start(self) -> "Cluster":
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self._spill = tempfile.mkdtemp(prefix="spill-", dir=self.workdir)
        self.registry = _Process(
            ["registry", "--host", "127.0.0.1", "--port", "0",
             "--spill-dir", self._spill], env)
        self.address = self.registry.wait_line("registry on ").split()[2]
        self.server = _Process(
            ["serve", "kmeans", "--host", "127.0.0.1", "--port", "0",
             "--registry", self.address, "--capacity", "1"], env)
        line = self.server.wait_line("serving kmeans")
        fingerprint = line.split("fp=", 1)[1].split()[0]
        wait_resolved(self.address, fingerprint)
        return self

    def cpu_s(self) -> float:
        """CPU seconds the two processes have used so far."""
        return sum(pid_cpu_s(proc.proc.pid)
                   for proc in (self.registry, self.server))

    def close(self) -> None:
        for proc in (self.server, self.registry):
            if proc is not None:
                proc.stop()
        if self._spill:
            shutil.rmtree(self._spill, ignore_errors=True)


def wait_resolved(address: str, fingerprint: str,
                  timeout: float = 30.0) -> None:
    """Block until the registry lists a live host for ``fingerprint``."""
    from repro.service import RegistryClient
    client = RegistryClient(address)
    deadline = time.monotonic() + timeout
    while not client.resolve(fingerprint):
        if time.monotonic() > deadline:
            raise TimeoutError("shard server never joined the registry")
        time.sleep(0.02)


def run_job(client, experiment, tracer=None) -> dict:
    """Submit -> watch -> fetch one job; returns the result envelope."""
    job = client.submit(experiment.to_dict())
    if tracer is not None:
        tracer.set_context(job["id"])
    try:
        client.watch(job["id"])
        return client.fetch(job["id"])
    finally:
        if tracer is not None:
            tracer.set_context(None)


def closed_loop(address: str, jobs: dict, references: dict, *,
                seconds: float, min_jobs: int, clients: int,
                tracer=None) -> dict:
    """``clients`` callers, each sending its next job after fetching the last.

    New jobs stop once ``seconds`` have passed and at least
    ``min_jobs`` were sent; jobs already sent are finished.
    """
    from repro.api import ExperimentResult
    from repro.service import RegistryClient
    lock = threading.Lock()
    numbers = itertools.count()
    records: list[dict] = []
    pending = [0]           # jobs sent whose record is not in yet
    start = time.perf_counter()
    hard_stop = start + 4 * seconds + 120

    def caller() -> None:
        client = RegistryClient(address, timeout=60.0)
        while True:
            with lock:
                now = time.perf_counter()
                sent = len(records) + pending[0]
                if now >= hard_stop or \
                        (now - start >= seconds and sent >= min_jobs):
                    return
                number = next(numbers)
                pending[0] += 1
            kind = JOB_KINDS[number % len(JOB_KINDS)]
            variant = number // len(JOB_KINDS) % len(jobs[kind])
            t0 = time.perf_counter()
            record = {"kind": kind, "ok": False, "runs": 0,
                      "dispatch_s": 0.0}
            try:
                envelope = run_job(client, jobs[kind][variant], tracer)
                record["latency"] = time.perf_counter() - t0
                canonical = ExperimentResult.from_dict(envelope).to_dict(
                    provenance=False)
                record["ok"] = not diff_specs(
                    canonical, references[kind][variant])
                record["runs"] = sum(d["executed"]
                                     for d in envelope["dispatches"])
                record["dispatch_s"] = sum(d["seconds"]
                                           for d in envelope["dispatches"])
            except Exception as exc:  # a failed job is data
                record["error"] = f"{type(exc).__name__}: {exc}"
            with lock:
                pending[0] -= 1
                records.append(record)

    threads = [threading.Thread(target=caller) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"records": records, "wall": time.perf_counter() - start}


def _service_references(jobs: dict) -> dict:
    """Reference images per job shape and variant (one tracker per seed)."""
    references: dict = {kind: [] for kind in JOB_KINDS}
    for variant in range(len(jobs[JOB_KINDS[0]])):
        trackers: dict = {}
        try:
            for kind in JOB_KINDS:
                references[kind].append(
                    reference_result(jobs[kind][variant], trackers))
        finally:
            _close(trackers)
    return references


class Service:
    """Closed-loop clients against a registry daemon and a shard server."""

    def setup(self, seed: int, size: Size, workdir: str):
        """Daemon + server readiness and one warm-up job, timed."""
        from repro.service import RegistryClient
        t0, c0 = time.perf_counter(), cpu_s()
        cluster = Cluster(workdir)
        try:
            cluster.start()
            run_job(RegistryClient(cluster.address, timeout=60.0),
                    job_experiments(seed, size)["warmup"])
            cpu = cpu_s() - c0 + cluster.cpu_s()
        except BaseException:
            cluster.close()
            raise
        return time.perf_counter() - t0, cpu, cluster

    def measure(self, seed: int, seconds: float, size: Size,
                workdir: str) -> Outcome:
        jobs = job_experiments(seed, size)
        references = _service_references(jobs)
        cluster = None
        try:
            setup_walls, setup_cpus, cluster = repeat_setup(
                size.setups, lambda: self.setup(seed, size, workdir),
                Cluster.close)
            c0 = cpu_s() + cluster.cpu_s()
            loop = closed_loop(cluster.address, jobs, references,
                               seconds=seconds, min_jobs=size.min_jobs,
                               clients=nproc())
            loop_cpu = cpu_s() + cluster.cpu_s() - c0
        finally:
            if cluster is not None:
                cluster.close()
        records, wall = loop["records"], loop["wall"]
        latencies = [r["latency"] for r in records if "latency" in r]
        runs = sum(r["runs"] for r in records)
        dispatch_s = sum(r["dispatch_s"] for r in records)
        tail = tail_percentile(latencies)
        out = Outcome(attempted=len(records),
                      failed=sum(1 for r in records if not r["ok"]))
        p50 = median(latencies) if latencies else wall
        out.metrics = {
            "setup_s": median(setup_cpus),
            "run_cpu_ms": 1000 * loop_cpu / runs if runs else 0.0,
            "experiment_cpu_s": loop_cpu / len(records),
            **_rss_metrics(),
        }
        out.extra = {
            "reported": {
                "setup_wall_s": median(setup_walls),
                "runs_per_s": runs / dispatch_s if dispatch_s else 0.0,
                "job_p50_s": p50,
                **({"job_tail_s": tail[1]} if tail else {}),
                "jobs_per_s": len(records) / wall},
            "job_tail_percentile": tail[0] if tail else None,
            "job_samples": len(latencies),
            "setup_s_all": setup_walls, "setup_cpu_s_all": setup_cpus,
            "loop_s": wall, "loop_cpu_s": loop_cpu, "runs": runs,
            "dispatch_s": dispatch_s,
            "clients": nproc(), "latencies_s": latencies,
            "errors": [r["error"] for r in records if "error" in r],
        }
        return out

    def _in_process_pass(self, seed: int, size: Size, workdir: str,
                         references: dict, tracer=None) -> dict:
        """Daemon and server as threads here; warm-up + fixed job count.

        ``wall`` of the returned loop record is replaced by the time from
        start-up to the last fetched job; teardown is not measured.
        """
        from repro.apps import REGISTRY
        from repro.engine.backends import ShardServer
        from repro.service import RegistryClient, ServiceDaemon
        jobs = job_experiments(seed, size)
        spill = tempfile.mkdtemp(prefix="spill-", dir=workdir)
        t0 = time.perf_counter()
        daemon = ServiceDaemon("127.0.0.1", 0, spill_dir=spill).start()
        server = None
        try:
            address = f"{daemon.host}:{daemon.port}"
            server = ShardServer(REGISTRY.build("kmeans"), "127.0.0.1", 0,
                                 registry=address, capacity=1).start()
            wait_resolved(address, server.fingerprint)
            run_job(RegistryClient(address, timeout=60.0),
                    jobs["warmup"], tracer)
            loop = closed_loop(address, jobs, references,
                               seconds=0.0, min_jobs=size.traced_jobs,
                               clients=nproc(), tracer=tracer)
            loop.update(start=t0, wall=time.perf_counter() - t0)
            return loop
        finally:
            # closing a listener does not wake a thread blocked in
            # accept(); shutting it down does, so stop() need not wait
            # out its join timeouts
            for owner in (server, daemon):
                if owner is not None:
                    owner._listener.shutdown(socket.SHUT_RDWR)
                    owner.stop()
            shutil.rmtree(spill, ignore_errors=True)

    def measure_traced(self, seed: int, size: Size,
                       workdir: str) -> Outcome:
        import repro.engine.backends.server as server_mod
        from repro.warmstart import WARM_STATS, reset_stats
        references = _service_references(job_experiments(seed, size))
        untraced_wall = self._in_process_pass(seed, size, workdir,
                                              references)["wall"]
        # a restarted server would adopt the first pass's tracker
        server_mod._TRACKER_CACHE.clear()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        reset_stats()
        try:
            loop = self._in_process_pass(seed, size, workdir, references,
                                         tracer)
        finally:
            tracer.restore()
            # leave no warmed server tracker behind in this process
            server_mod._TRACKER_CACHE.clear()
        t1, t2 = loop["start"], loop["start"] + loop["wall"]
        records = loop["records"]
        out = Outcome(attempted=len(records),
                      failed=sum(1 for r in records if not r["ok"]))
        out.metrics = tracing.layer_metrics(
            tracer, traced_wall=t2 - t1, untraced_wall=untraced_wall,
            window=(t1, t2), warm_stats=dict(WARM_STATS), pool_start_s=0.0)
        out.extra = {"traced_wall_s": t2 - t1,
                     "untraced_wall_s": untraced_wall,
                     "errors": [r["error"] for r in records
                                if "error" in r],
                     "spans": [s.to_dict() for s in tracer.spans]}
        return out


WORKLOADS: dict[str, Callable] = {"sweep": Sweep, "patterns": Patterns,
                                  "service": Service}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, size: Optional[Size] = None) -> Outcome:
    """Run one workload; ``workdir`` holds the service's spill files."""
    workload = WORKLOADS[name]()
    size = size or (TRACED if trace else FULL)
    if name == "service":
        if trace:
            return workload.measure_traced(seed, size, workdir)
        return workload.measure(seed, seconds, size, workdir)
    if trace:
        return workload.measure_traced(seed, size)
    return workload.measure(seed, seconds, size)
