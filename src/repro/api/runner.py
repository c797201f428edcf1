"""Experiment execution: compile specs, batch, dispatch once per mode.

:func:`run_experiment` turns an :class:`~repro.api.specs.Experiment`
into an :class:`~repro.api.result.ExperimentResult` with the minimum
number of engine fan-outs:

* per app, every campaign spec is compiled to its plans and grouped by
  injection kind; each kind's groups go through **one**
  :meth:`~repro.engine.core.ExecutionEngine.run_plan_groups` dispatch
  (so a whole Fig. 5 grid is one backend fan-out per kind, not one
  per region);
* every profile spec dispatches its not-yet-stored regions as one
  grouped fan-out (one group per region, so dispatch accounting stays
  per-region);
* every analysis spec lands in **one**
  :meth:`~repro.engine.core.ExecutionEngine.analyze_plan_groups`
  dispatch per app.

Dispatch order is deterministic: apps in ``Experiment.apps`` order;
within an app, campaign kinds in order of first appearance in
``specs``, then profile specs in ``specs`` order, then recovery
specs in ``specs`` order (one fan-out each, grouped per region),
then analyses; within a kind, specs in ``specs`` order.  Per-spec results are
byte-identical to calling the legacy one-target methods in that same
order on a fresh tracker (the demux contract of ``run_plan_groups``);
the parity suite in ``tests/test_api_parity.py`` locks this in.

**Incremental store path** (``docs/profiles.md``): with
``experiment.store_dir`` set, every freshly dispatched region-target
campaign and profiled region also lands in the cross-experiment
:class:`~repro.profiles.ResultStore` as a
:class:`~repro.profiles.RegionProfile`.  With ``incremental`` also
set, region targets whose profile key (region fingerprint + injection
parameters) is already stored are *served from the store* — zero
dispatched plans — at reuse tier ``exact`` or ``plans`` for campaign
specs (count-exact by construction) and at any tier for profile
composition.  Store-served specs appear in ``dispatches`` with
``mode="store"`` and ``backend="store"``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.api.compile import (aggregate_patterns, compile_analysis,
                               compile_campaign, compile_profile,
                               compile_recovery)
from repro.api.result import ExperimentResult, SpecResult
from repro.api.specs import (AnalysisSpec, CampaignSpec, Experiment,
                             ProfileSpec, RecoverySpec)
from repro.engine.progress import ProgressCallback
from repro.faults.campaign import CampaignResult

__all__ = ["run_experiment"]

#: builds the per-app tracker; injectable for tests/benchmarks that
#: hold their own warmed trackers (those are then *not* closed here)
TrackerFactory = Callable[[str], "object"]

#: builds a backend instance per app (service tier: registry-resolved
#: SocketBackends).  Substrate only — results are byte-identical
#: whatever this returns, so the canonical envelope is unchanged.
BackendFactory = Callable[[], "object"]

#: maps an app's program to the golden bundle its tracker adopts
#: (service tier: the process-wide cache keyed by fingerprint).  The
#: tracker runs on the bundle's program object.
GoldenFactory = Callable[["object"], "object"]


def _default_tracker(experiment: Experiment, app: str,
                     backend_factory: Optional[BackendFactory] = None,
                     golden_factory: Optional[GoldenFactory] = None):
    from repro.apps import REGISTRY
    from repro.core import FlipTracker
    program = REGISTRY.build(app)
    golden = None
    if golden_factory is not None:
        golden = golden_factory(program)
        program = golden.program
    backend = experiment.backend if backend_factory is None \
        else backend_factory()
    return FlipTracker(program, seed=experiment.seed,
                       workers=experiment.workers,
                       cache_dir=experiment.cache_dir,
                       resume=experiment.resume,
                       shard_size=experiment.shard_size,
                       backend=backend,
                       backend_addr=experiment.backend_addr,
                       golden=golden)


def run_experiment(experiment: Experiment, *,
                   on_progress: Optional[ProgressCallback] = None,
                   tracker_factory: Optional[TrackerFactory] = None,
                   backend_factory: Optional[BackendFactory] = None,
                   golden_factory: Optional[GoldenFactory] = None,
                   store=None) -> ExperimentResult:
    """Execute every spec of ``experiment`` with batched dispatches.

    ``tracker_factory`` (app name -> FlipTracker) overrides per-app
    tracker construction — callers that pass one own the trackers'
    lifecycles (they are not closed here); by default each app's
    tracker is built from the experiment's engine config and closed
    after its dispatches finish.

    ``backend_factory`` (no-arg -> Backend instance) overrides the
    *substrate* each default tracker dispatches on — the service
    daemon and ``--registry`` CLI runs pass registry-resolved socket
    backends this way — without touching the experiment payload, so
    the canonical result image stays byte-identical to any other
    substrate.  ``golden_factory`` (program -> golden bundle) hands
    each default tracker a prebuilt golden bundle — the service daemon
    passes its process-wide cache this way.  Both are ignored when
    ``tracker_factory`` is given (that factory owns construction).

    ``store`` (a :class:`~repro.profiles.ResultStore`) overrides the
    cross-experiment profile store — the service daemon shares one
    store across jobs this way; the caller owns its lifecycle.  By
    default a store is opened from ``experiment.store_dir`` (when set)
    and closed here.
    """
    start = time.perf_counter()
    owned_store = False
    if store is None and experiment.store_dir is not None:
        from repro.profiles import ResultStore
        store = ResultStore(experiment.store_dir)
        owned_store = True
    results: list[SpecResult] = []
    dispatches: list[dict] = []
    try:
        for app in experiment.apps:
            owned = tracker_factory is None
            if not owned:
                tracker = tracker_factory(app)
            else:
                # pass only the overrides given: tests (and any caller)
                # may wrap _default_tracker with the two-argument shape
                overrides = {}
                if backend_factory is not None:
                    overrides["backend_factory"] = backend_factory
                if golden_factory is not None:
                    overrides["golden_factory"] = golden_factory
                tracker = _default_tracker(experiment, app, **overrides)
            try:
                _run_app(experiment, app, tracker, results, dispatches,
                         on_progress, store)
            finally:
                if owned:
                    tracker.close()
    finally:
        if owned_store:
            store.close()
        elif store is not None:
            store.flush()
    order = {app: i for i, app in enumerate(experiment.apps)}
    results.sort(key=lambda r: (order[r.app], r.index))
    return ExperimentResult(experiment=experiment, results=results,
                            dispatches=dispatches,
                            elapsed=time.perf_counter() - start)


def _run_app(experiment: Experiment, app: str, tracker,
             results: list[SpecResult], dispatches: list[dict],
             on_progress: Optional[ProgressCallback], store) -> None:
    reuse = _StoreReuse(tracker, experiment, store) if store is not None \
        else None
    # compile every applicable spec up front; grouping preserves spec
    # order within each kind (dict insertion order = first appearance)
    campaign_groups: dict[str, list[tuple[int, str, list]]] = {}
    served: dict[str, list[tuple[int, str, CampaignResult]]] = {}
    fresh_campaigns: list[tuple[int, CampaignSpec, str]] = []
    profile_jobs: list[_ProfileJob] = []
    recoveries: list[tuple[int, RecoverySpec, list]] = []
    analyses: list[tuple[int, str, list, dict]] = []
    for index, spec in enumerate(experiment.specs):
        if spec.app is not None and spec.app != app:
            continue
        if isinstance(spec, RecoverySpec):
            recoveries.append((index, spec,
                               compile_recovery(tracker, spec)))
        elif isinstance(spec, CampaignSpec):
            label, plans = compile_campaign(tracker, spec)
            hit = reuse.lookup_campaign(spec, label, plans) \
                if reuse is not None else None
            if hit is not None:
                served.setdefault(spec.kind, []).append(
                    (index, label, hit))
                continue
            if reuse is not None and spec.target == "region":
                fresh_campaigns.append((index, spec, label))
            campaign_groups.setdefault(spec.kind, []).append(
                (index, label, plans))
        elif isinstance(spec, ProfileSpec):
            profile_jobs.append(_ProfileJob(index, spec, tracker, reuse))
        elif isinstance(spec, AnalysisSpec):
            label, plans, found = compile_analysis(tracker, spec)
            analyses.append((index, label, plans, found))
    if not campaign_groups and not served and not profile_jobs \
            and not recoveries and not analyses:
        return
    budget = tracker.faulty_budget
    engine = tracker.engine

    for kind, entries in served.items():
        # store-served campaign specs: zero dispatched plans
        total = sum(r.total for _i, _l, r in entries)
        dispatches.append({
            "app": app, "mode": "store", "kind": kind,
            "specs": [index for index, _label, _r in entries],
            "plans": total, "executed": 0, "cached": total,
            "backend": "store", "seconds": 0.0})
        for index, label, campaign in entries:
            results.append(SpecResult(index=index, app=app, label=label,
                                      mode="campaign",
                                      campaign=campaign))

    for kind, entries in campaign_groups.items():
        t0 = time.perf_counter()
        before = engine.executed
        campaign_results = engine.run_plan_groups(
            [(label, plans) for _index, label, plans in entries],
            max_instr=budget, on_progress=on_progress)
        dispatches.append(_provenance(
            app, "campaign", kind, entries, engine, before, t0))
        by_index = {}
        for (index, label, plans), result in zip(entries,
                                                 campaign_results):
            by_index[index] = (plans, result)
            results.append(SpecResult(index=index, app=app, label=label,
                                      mode="campaign", campaign=result))
        if reuse is not None:
            for index, spec, _label in fresh_campaigns:
                if index in by_index:
                    plans, result = by_index[index]
                    reuse.record_campaign(spec, plans, result)

    for job in profile_jobs:
        job.execute(app, engine, budget, results, dispatches,
                    on_progress)

    for index, spec, entries in recoveries:
        # one fan-out per recovery spec (one plan group per region, so
        # dispatch accounting stays per-region like profiles do)
        label = f"{tracker.program.name}/recover/{spec.policy}/" \
                f"{spec.detector}"
        if entries:
            t0 = time.perf_counter()
            before = engine.executed
            group_results = engine.run_plan_groups(
                [(glabel, plans) for _region, glabel, plans in entries],
                max_instr=budget, on_progress=on_progress)
            dispatches.append(_provenance(
                app, "recovery", spec.kind,
                [(index, glabel, plans)
                 for _region, glabel, plans in entries],
                engine, before, t0))
        else:
            group_results = []
        payload = {
            "policy": spec.policy, "detector": spec.detector,
            "kind": spec.kind,
            "regions": [{
                "region": region, "label": glabel,
                "n": result.total, "counts": result.counts(),
            } for (region, glabel, _plans), result
                in zip(entries, group_results)],
        }
        results.append(SpecResult(index=index, app=app, label=label,
                                  mode="recovery", recovery=payload))

    if analyses:
        t0 = time.perf_counter()
        before = engine.executed
        tables = engine.analyze_plan_groups(
            [(label, plans) for _index, label, plans, _found in analyses],
            max_instr=budget, on_progress=on_progress)
        dispatches.append(_provenance(
            app, "analysis", None,
            [(i, label, plans) for i, label, plans, _f in analyses],
            engine, before, t0))
        for (index, label, _plans, found), per_plan in zip(analyses,
                                                           tables):
            table = aggregate_patterns(found, per_plan)
            results.append(SpecResult(
                index=index, app=app, label=label, mode="analysis",
                patterns={region: sorted(pats)
                          for region, pats in table.items()}))


def _provenance(app: str, mode: str, kind: Optional[str], entries,
                engine, executed_before: int, t0: float) -> dict:
    total = sum(len(plans) for _index, _label, plans in entries)
    executed = engine.executed - executed_before
    return {"app": app, "mode": mode, "kind": kind,
            "specs": [index for index, _label, _plans in entries],
            "plans": total, "executed": executed,
            "cached": total - executed,
            "backend": engine.backend.name,
            "seconds": round(time.perf_counter() - t0, 6)}


class _StoreReuse:
    """Per-app glue between the runner and the cross-experiment store.

    Looks region targets up by profile key (region fingerprint +
    injection parameters), grades reuse evidence, and writes freshly
    dispatched results back as :class:`~repro.profiles.RegionProfile`
    records.  Lookups serve only when ``experiment.incremental`` is
    set; writes happen whenever a store is attached, so a plain run
    populates the store a later ``--incremental`` run reuses.
    """

    def __init__(self, tracker, experiment: Experiment, store):
        from repro.regions import region_fingerprints
        self.tracker = tracker
        self.experiment = experiment
        self.store = store
        self.fingerprints = region_fingerprints(
            tracker.program, model=tracker.region_model())

    # ------------------------------------------------------------ keys
    def _key(self, region: str, *, kind: str, instance_index: int,
             n, cap, acl_samples: int = 0):
        from repro.profiles import profile_key, profile_params
        fp = self.fingerprints.get(region)
        if fp is None:
            return None, None
        params = profile_params(kind=kind, seed=self.experiment.seed,
                                instance_index=instance_index, n=n,
                                cap=cap, acl_samples=acl_samples)
        return fp, profile_key(fp, params)

    def lookup(self, region: str, *, kind: str, instance_index: int,
               n, cap, plans, acl_samples: int = 0):
        """``(region_fp, key, stored payload | None, tier | None)``."""
        from repro.engine.keys import plans_fingerprint
        from repro.profiles import reuse_tier
        fp, key = self._key(region, kind=kind,
                            instance_index=instance_index, n=n, cap=cap,
                            acl_samples=acl_samples)
        if key is None:
            return None, None, None, None
        stored = self.store.get(key) if self.experiment.incremental \
            else None
        tier = None
        if stored is not None:
            tier = reuse_tier(
                stored, program_fp=self.tracker.engine.program_fp,
                plans_fp=plans_fingerprint(plans)
                if plans is not None else None)
        return fp, key, stored, tier

    # ------------------------------------------------------------ campaigns
    def lookup_campaign(self, spec: CampaignSpec, label: str,
                        plans) -> Optional[CampaignResult]:
        """A store-served result for a region campaign, or ``None``.

        Only ``exact``/``plans`` tiers serve a campaign spec: both
        guarantee the stored counts describe the *identical* fault
        sequence the spec just compiled, so the result is
        count-for-count what dispatching would return (byte-identical
        at ``exact``, contract-bounded at ``plans``).
        """
        if spec.target != "region":
            return None
        _fp, _key, stored, tier = self.lookup(
            spec.region, kind=spec.kind,
            instance_index=spec.instance_index, n=spec.n, cap=spec.cap,
            plans=plans)
        if stored is None or tier not in ("exact", "plans"):
            return None
        counts = stored["counts"]
        total = stored["resolved_n"]
        return CampaignResult(
            success=counts["success"], failed=counts["failed"],
            crashed=counts["crashed"] + counts.get("hung", 0),
            label=label,
            details={"source": "store", "tier": tier, "executed": 0,
                     "cached": total, "shards": 0, "total": total,
                     "backend": "store"})

    def record_campaign(self, spec: CampaignSpec, plans,
                        result: CampaignResult) -> None:
        self.record(spec.region, kind=spec.kind,
                    instance_index=spec.instance_index, n=spec.n,
                    cap=spec.cap, plans=plans, result=result)

    # ------------------------------------------------------------ writes
    def record(self, region: str, *, kind: str, instance_index: int,
               n, cap, plans, result: CampaignResult,
               acl: Optional[dict] = None):
        """Persist one freshly dispatched region result; returns it."""
        from repro.engine.keys import plans_fingerprint
        from repro.profiles import RegionProfile, StoreCollisionError
        fp, key = self._key(region, kind=kind,
                            instance_index=instance_index, n=n, cap=cap,
                            acl_samples=0 if acl is None
                            else acl["samples"])
        if key is None:
            return None
        tracker = self.tracker
        instances = [i for i in tracker.instances()
                     if i.region.name == region]
        inst = next(i for i in instances if i.index == instance_index)
        profile = RegionProfile(
            app=tracker.program.name, region=region, kind=kind,
            instance_index=instance_index, seed=self.experiment.seed,
            n=n, cap=cap, resolved_n=len(plans), region_fp=fp,
            program_fp=tracker.engine.program_fp,
            plans_fp=plans_fingerprint(plans),
            max_instr=tracker.faulty_budget,
            counts={"success": result.success, "failed": result.failed,
                    "crashed": result.crashed, "hung": 0},
            weight=inst.n_instr,
            total_weight=sum(i.n_instr for i in instances),
            trace_len=len(tracker.fault_free_trace()), acl=acl)
        try:
            self.store.put(key, profile.to_dict())
        except StoreCollisionError:
            # concurrent-writer race (another run stored this key since
            # we loaded): first-wins on disk, ours is equivalent anyway
            pass
        return profile


class _ProfileJob:
    """One compiled :class:`ProfileSpec`: served + to-run region entries."""

    def __init__(self, index: int, spec: ProfileSpec, tracker, reuse):
        self.index = index
        self.spec = spec
        self.tracker = tracker
        self.reuse = reuse
        self.label = f"{tracker.program.name}/profile/{spec.kind}"
        self.entries = []        # (region, label, plans, stored, tier)
        for region, label, plans in compile_profile(tracker, spec):
            stored = tier = None
            if reuse is not None:
                _fp, _key, stored, tier = reuse.lookup(
                    region, kind=spec.kind,
                    instance_index=spec.instance_index, n=spec.n,
                    cap=spec.cap, plans=plans,
                    acl_samples=spec.acl_samples)
            self.entries.append((region, label, plans, stored, tier))

    def execute(self, app: str, engine, budget: int, results: list,
                dispatches: list, on_progress) -> None:
        from repro.profiles import RegionProfile, compose_profiles
        spec = self.spec
        to_run = [(region, label, plans) for region, label, plans,
                  stored, _tier in self.entries if stored is None]
        run_results: dict[str, CampaignResult] = {}
        if to_run:
            t0 = time.perf_counter()
            before = engine.executed
            group_results = engine.run_plan_groups(
                [(label, plans) for _region, label, plans in to_run],
                max_instr=budget, on_progress=on_progress)
            dispatches.append(_provenance(
                app, "profile", spec.kind,
                [(self.index, label, plans)
                 for _region, label, plans in to_run],
                engine, before, t0))
        else:
            group_results = []
        for (region, _label, _plans), result in zip(to_run,
                                                    group_results):
            run_results[region] = result
        served_total = sum(stored["resolved_n"]
                           for _region, _label, _plans, stored, _tier
                           in self.entries if stored is not None)
        if any(stored is not None for _r, _l, _p, stored, _t
               in self.entries):
            dispatches.append({
                "app": app, "mode": "store", "kind": spec.kind,
                "specs": [self.index], "plans": served_total,
                "executed": 0, "cached": served_total,
                "backend": "store", "seconds": 0.0})

        profiles: list[RegionProfile] = []
        sources: dict[str, dict] = {}
        for region, _label, plans, stored, tier in self.entries:
            if stored is not None:
                profiles.append(RegionProfile.from_dict(stored))
                sources[region] = {"source": "store", "tier": tier}
                continue
            result = run_results[region]
            acl = self._acl_stats(plans) if spec.acl_samples > 0 \
                else None
            profile = None
            if self.reuse is not None:
                profile = self.reuse.record(
                    region, kind=spec.kind,
                    instance_index=spec.instance_index, n=spec.n,
                    cap=spec.cap, plans=plans, result=result, acl=acl)
            if profile is None:
                profile = self._local_profile(region, plans, result,
                                              acl)
            profiles.append(profile)
            sources[region] = {"source": "dispatch", "tier": None}

        payload: dict = {
            "kind": spec.kind,
            "instance_index": spec.instance_index,
            "seed": self.tracker.seed,
            "regions": [{
                "region": p.region, "fingerprint": p.region_fp,
                "n": p.resolved_n, "counts": dict(p.counts),
                "weight": p.weight, "total_weight": p.total_weight,
                "acl": p.acl,
            } for p in profiles],
            "sources": sources,
        }
        if spec.compose and profiles:
            payload["composed"] = compose_profiles(
                profiles,
                trace_len=len(self.tracker.fault_free_trace()))
        results.append(SpecResult(index=self.index, app=app,
                                  label=self.label, mode="profile",
                                  profile=payload))

    def _local_profile(self, region: str, plans, result, acl):
        """Build the profile without a store (store-less experiments)."""
        from repro.engine.keys import plans_fingerprint
        from repro.profiles import RegionProfile
        from repro.regions import region_fingerprint
        tracker = self.tracker
        spec = self.spec
        instances = [i for i in tracker.instances()
                     if i.region.name == region]
        inst = next(i for i in instances
                    if i.index == spec.instance_index)
        return RegionProfile(
            app=tracker.program.name, region=region, kind=spec.kind,
            instance_index=spec.instance_index, seed=tracker.seed,
            n=spec.n, cap=spec.cap, resolved_n=len(plans),
            region_fp=region_fingerprint(tracker.program, region,
                                         model=tracker.region_model()),
            program_fp=tracker.engine.program_fp,
            plans_fp=plans_fingerprint(plans),
            max_instr=tracker.faulty_budget,
            counts={"success": result.success, "failed": result.failed,
                    "crashed": result.crashed, "hung": 0},
            weight=inst.n_instr,
            total_weight=sum(i.n_instr for i in instances),
            trace_len=len(tracker.fault_free_trace()), acl=acl)

    def _acl_stats(self, plans) -> dict:
        """Traced-sample ACL statistics for one region's plan list."""
        sample = plans[:self.spec.acl_samples]
        peaks: list[int] = []
        diverged = 0
        for plan in sample:
            analysis = self.tracker.analyze_injection(plan)
            peaks.append(analysis.acl.peak)
            if analysis.acl.divergence is not None:
                diverged += 1
        n = max(1, len(sample))
        return {"samples": len(sample),
                "mean_peak": round(sum(peaks) / n, 6),
                "max_peak": max(peaks) if peaks else 0,
                "divergence_rate": round(diverged / n, 6)}
