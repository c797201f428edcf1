"""The :class:`ExecutionEngine`: cache + shards + pluggable backends.

See the package docstring for the architecture.  The engine is the one
place faulty runs happen; :func:`repro.faults.campaign.run_campaign`
and every :class:`~repro.core.FlipTracker` campaign/analysis method
delegate here.

Where a shard *executes* is a :class:`~repro.engine.backends.Backend`
(``local`` process pool or ``socket`` remote shard servers — see
:mod:`repro.engine.backends`), and every shard goes through its one
operation, :meth:`~repro.engine.backends.Backend.run_shards`: untraced
campaign plans, protected recovery plans and traced analysis plans
(:meth:`ExecutionEngine.analyze_plans` wraps each fault plan in an
:class:`~repro.faults.analysis.AnalysisPlan`) alike.  The engine keeps
sole ownership of the :class:`PlanCache`, shard boundaries and
plan-order assembly, so every backend inherits the determinism
contract for free.

Run settings: every plan runs on the engine's :attr:`~ExecutionEngine.
tracker` (the bound :class:`~repro.core.FlipTracker`, or one built
lazily for a standalone engine), which resolved the VM tier and warm
start once.  The sequential path and fork children run on it; spawn
workers and shard servers build their own.  A bound tracker owns its
engine, so the engine refers back to it weakly: a tracker dropped
without ``close()`` and its golden bundle are freed by reference
counting.

Determinism: plan order — never worker arrival order — decides how
results are assembled, shard boundaries depend only on the pending
count and ``shard_size``, and cache keys are content-addressed
(:mod:`repro.engine.keys`), so a campaign's result is a pure function
of (program, plans, budget) regardless of ``workers``, backend, tier
*or* warm start.
"""

from __future__ import annotations

import os
import weakref
from typing import Iterable, Optional, Sequence

from repro.engine.cache import PlanCache
from repro.engine.errors import EngineError
from repro.engine.keys import encode_plan, plan_key, program_fingerprint
from repro.engine.progress import ProgressCallback, ProgressEvent
from repro.vm.fault import FaultPlan

__all__ = ["ExecutionEngine", "EngineError"]


class ExecutionEngine:
    """Runs fault plans for one program, with caching and sharding.

    Parameters
    ----------
    program:
        The built program every plan executes against.
    workers:
        Process count; ``None`` auto-selects ``min(4, cores)``; ``<=1``
        runs sequentially in-process (local backend).
    cache / cache_dir / resume:
        Either pass a shared :class:`PlanCache` or let the engine own
        one (optionally disk-backed at ``cache_dir``; ``resume=False``
        ignores pre-existing spill entries but still appends).
    shard_size:
        Pending plans are executed in shards of this size; each
        finished shard is durable in the cache (checkpoint granularity)
        and emits one :class:`ProgressEvent`.
    min_parallel:
        Smallest pending batch worth fanning out to the pool
        (local backend only).
    backend:
        Shard-execution substrate: a name (``"local"``, ``"socket"``),
        a pre-built
        :class:`~repro.engine.backends.Backend` instance, or ``None``
        for local.  See :mod:`repro.engine.backends`.
    backend_addr:
        Shard-server address(es) for ``backend="socket"``
        (``"host:port"`` or ``"h1:p1,h2:p2"``; ignored otherwise).
    registry:
        Service-registry address (``"host:port"``) or resolver object
        for registry-resolved shard placement; implies
        ``backend="socket"`` when ``backend`` is ``None``.  Mutually
        exclusive with ``backend_addr``.  See :mod:`repro.service`.

    The VM tier and warm start of every run are the :attr:`tracker`'s;
    neither changes a result or a cache key, so spills and stores
    written under any setting stay valid.
    """

    def __init__(self, program, *, workers: Optional[int] = 1,
                 cache: Optional[PlanCache] = None,
                 cache_dir: Optional[str] = None, resume: bool = True,
                 shard_size: int = 64, min_parallel: int = 4,
                 backend=None, backend_addr=None, registry=None):
        from repro.engine.backends import (LocalPoolBackend,
                                           resolve_backend)
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.program = program
        self.workers = max(1, int(workers))
        self.shard_size = shard_size
        self.min_parallel = min_parallel
        self._owns_cache = cache is None
        self.cache = cache if cache is not None else \
            PlanCache(cache_dir, resume=resume)
        self.program_fp = program_fingerprint(program)
        self._tracker_ref = None    # weakref to the bound tracker
        self._own_tracker = None    # a standalone engine's own tracker
        self._closed = False
        self.executed = 0      # faulty runs actually performed (parent view)
        self.pool_starts = 0   # pools/worker fleets created over the lifetime
        self.backend = resolve_backend(backend, addresses=backend_addr,
                                       registry=registry)
        self.backend.bind(self)
        # the local pool is the socket backend's no-server fallback
        # (for campaigns and analyses alike), shared so its pool
        # starts at most once per engine
        if isinstance(self.backend, LocalPoolBackend):
            self._local = self.backend
        else:
            self._local = LocalPoolBackend()
            self._local.bind(self)

    # ------------------------------------------------------------ lifecycle
    @property
    def local_backend(self):
        """The engine's :class:`LocalPoolBackend` (the default backend
        itself, or the socket backend's no-server fallback)."""
        return self._local

    def bind_tracker(self, tracker) -> None:
        """Attach the owning FlipTracker: its settings and golden
        artifacts serve every plan this engine runs.  Held weakly, since
        the tracker holds the engine."""
        self._tracker_ref = weakref.ref(tracker)

    @property
    def tracker(self):
        """The tracker every plan runs on: the bound one, or — for a
        standalone engine — a sequential one built on first use.
        Raises :class:`EngineError` once a bound tracker is gone."""
        if self._tracker_ref is not None:
            tracker = self._tracker_ref()
            if tracker is None:
                raise EngineError("the engine's bound tracker is gone")
            return tracker
        if self._own_tracker is None:
            from repro.core.fliptracker import FlipTracker
            self._own_tracker = FlipTracker(self.program, workers=1)
        return self._own_tracker

    def close(self) -> None:
        """Shut down the backend(s) and flush/close an owned cache.

        If a shard died mid-flight (worker ``os._exit``, lost shard
        server) this raises :class:`EngineError` naming the failed
        shard *after* tearing everything down — it never hangs on a
        broken pool join, and the cache still holds every shard that
        completed before the failure.
        """
        failed = self.backend.failed_shard
        if failed is None and self._local is not self.backend:
            failed = self._local.failed_shard
        self.backend.close()
        if self._local is not self.backend:
            self._local.close()
        if self._owns_cache:
            self.cache.close()
        else:
            self.cache.flush()
        self._closed = True
        # unbound, the backends no longer form a cycle with the engine,
        # so a closed tracker and its golden bundle are freed as soon
        # as they are dropped, not at the next cyclic collection
        self.backend.engine = self._local.engine = None
        if failed is not None:
            raise EngineError(
                f"engine closed after shard {failed} failed "
                f"(backend {self.backend.name!r}); completed shards "
                f"are preserved in the cache")

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except EngineError:
            # the failed-shard re-raise must not mask an exception that
            # is already propagating out of the with-body (the original
            # error names the root cause; this one only the shard)
            if exc_type is None:
                raise

    def _check_open(self) -> None:
        if self._closed:
            raise EngineError("engine is closed")

    def _warm_tracker(self) -> None:
        """Materialize everything fork children should COW-share."""
        tracker = self.tracker
        tracker.fault_free_trace()
        tracker.trace_index()
        tracker.region_model()
        tracker.instances()

    # ------------------------------------------------------------ campaigns
    def run_plans(self, plans: Iterable[FaultPlan], *,
                  max_instr: Optional[int] = None, label: str = "",
                  on_progress: Optional[ProgressCallback] = None,
                  use_cache: bool = True):
        """Execute ``plans`` (cache-aware, sharded) -> CampaignResult.

        ``result.details`` records ``executed`` (new faulty runs this
        call), ``cached`` (plans served without execution: cache hits
        plus within-call duplicates of an executed plan), ``shards``
        and ``backend``; ``executed + cached == total`` always.

        One-group wrapper around :meth:`run_plan_groups`, which is the
        batching seam the declarative :mod:`repro.api` layer dispatches
        whole figure sweeps through.
        """
        return self.run_plan_groups([(label, plans)], max_instr=max_instr,
                                    on_progress=on_progress,
                                    use_cache=use_cache)[0]

    def run_plan_groups(self, groups, *,
                        max_instr: Optional[int] = None,
                        on_progress: Optional[ProgressCallback] = None,
                        use_cache: bool = True):
        """Execute many labeled plan groups in **one** backend dispatch.

        ``groups`` is a sequence of ``(label, plans)`` pairs; the return
        value is one :class:`~repro.faults.campaign.CampaignResult` per
        group, in group order — or a :class:`~repro.recovery.outcome.
        RecoveryResult` for a group of recovery plans (protected runs;
        cached/shipped as encoded outcome strings, so the cache, demux
        and alias machinery are plan-kind agnostic).  The whole batch
        fans out through a single :meth:`Backend.run_shards` call, so
        the socket substrate overlaps shards *across* groups instead of
        placing a barrier between consecutive campaigns.

        Demux contract (what makes the batch path byte-identical to
        calling :meth:`run_plans` once per group, in group order, on
        this same engine): each group is sharded separately in plan
        order, a key already pending in an *earlier* group is served to
        later groups as an alias — exactly the cache hit a sequential
        caller would have observed — and each group's ``details``
        record the accounting of its equivalent standalone call
        (``executed``/``cached``/``shards``/``total``/``backend``).
        With ``use_cache=False`` cross-group aliasing is disabled
        (sequential calls would re-execute), matching legacy semantics.
        """
        return self._dispatch_groups(groups, max_instr, on_progress,
                                     use_cache, traced=False)

    def _dispatch_groups(self, groups, max_instr, on_progress,
                         use_cache: bool, traced: bool):
        """The one demux loop behind both public group entries.

        ``traced`` marks a batch of :class:`~repro.faults.analysis.
        AnalysisPlan` groups, with the analysis rules: values are never
        looked up in or stored to the cache (nothing counts as
        ``cached``), each run's manifestation is cached as a by-product
        under its plain fault key when ``max_instr`` is given, progress
        events carry ``phase="analysis"``, and each group returns its
        per-plan pattern tables.
        """
        from repro.faults.analysis import decode_analysis
        from repro.faults.campaign import CampaignResult, Manifestation
        from repro.recovery.outcome import RecoveryOutcome, RecoveryResult
        from repro.recovery.plan import RecoveryPlan
        self._check_open()
        groups = [(label, list(plans)) for label, plans in groups]
        group_keys: list[list[str]] = []
        outcomes: list[list[Optional[str]]] = []
        # alias map: one execution per unique pending key serves every
        # position waiting on it (across groups when the cache is on)
        waiting: dict = {}
        owner: dict = {}
        for g_i, (_label, plans) in enumerate(groups):
            keys = [plan_key(self.program_fp, p, max_instr) for p in plans]
            group_keys.append(keys)
            values = [self.cache.get(k) if use_cache and not traced
                      else None for k in keys]
            outcomes.append(values)
            for i, value in enumerate(values):
                if value is not None:
                    continue
                akey = keys[i] if use_cache else (g_i, keys[i])
                waiting.setdefault(akey, []).append((g_i, i))
                owner.setdefault(akey, (g_i, i))

        unique, shards, group_shard_base, group_shards, shard_plans = \
            self._shard_groups(groups, owner)

        if not traced and any(isinstance(p, RecoveryPlan)
                              for plans in shard_plans for p in plans):
            # warm the recovery context before the backend (lazily)
            # forks its pool, so children inherit it copy-on-write;
            # late-started substrates derive the identical context
            # themselves (pure function of the program)
            self.tracker.recovery_context()
        if shard_plans and self.tracker.warm_start:
            # same pre-fork COW warming for the golden snapshot ladder:
            # every pending run of any plan kind can draw on it
            self.tracker.warm_ladder()

        phase = "analysis" if traced else "campaign"
        totals = [len(plans) for _label, plans in groups]
        cached = [0 if traced else totals[g_i] - len(unique[g_i])
                  for g_i in range(len(groups))]
        done = [sum(1 for v in values if v is not None)
                for values in outcomes]
        for s_i, values in self.backend.run_shards(shard_plans, max_instr):
            g_i, indices = shards[s_i]
            label, plans = groups[g_i]
            for i, value in zip(indices, values):
                akey = group_keys[g_i][i] if use_cache \
                    else (g_i, group_keys[g_i][i])
                for a_g, a_i in waiting[akey]:
                    outcomes[a_g][a_i] = value
                    done[a_g] += 1
                if not traced:
                    self.cache.put(group_keys[g_i][i], value,
                                   meta={"plan": encode_plan(plans[i]),
                                         "label": label})
                elif max_instr is not None:
                    fault = plans[i].fault
                    self.cache.put(
                        plan_key(self.program_fp, fault, max_instr),
                        decode_analysis(value)[0],
                        meta={"plan": encode_plan(fault),
                              "label": "analysis"})
            self.executed += len(indices)
            if on_progress is not None:
                on_progress(ProgressEvent(
                    label=label, phase=phase, done=done[g_i],
                    total=totals[g_i], cached=cached[g_i],
                    shard=s_i - group_shard_base[g_i] + 1,
                    shards=group_shards[g_i]))
        if on_progress is not None:
            for g_i, (label, _plans) in enumerate(groups):
                if group_shards[g_i] == 0:
                    on_progress(ProgressEvent(
                        label=label, phase=phase, done=totals[g_i],
                        total=totals[g_i], cached=cached[g_i],
                        shard=0, shards=0))
        self.cache.flush()

        results = []
        for g_i, (label, plans) in enumerate(groups):
            if traced:
                # decoded per position: aliases get fresh sets, since
                # callers may mutate them
                results.append([{region: set(pats) for region, pats
                                 in decode_analysis(value)[1].items()}
                                for value in outcomes[g_i]])
                continue
            if plans and isinstance(plans[0], RecoveryPlan):
                result = RecoveryResult(label=label)
                for value in outcomes[g_i]:
                    result.add(RecoveryOutcome.decode(value))
            else:
                result = CampaignResult(label=label)
                for value in outcomes[g_i]:
                    result.add(Manifestation(value))
            result.details.update(executed=len(unique[g_i]),
                                  cached=cached[g_i],
                                  shards=group_shards[g_i],
                                  total=totals[g_i],
                                  backend=self.backend.name)
            results.append(result)
        return results

    def _shard_groups(self, groups, owner):
        """Batch layout of the demux loop.

        ``owner`` maps each alias key to its first pending position
        ``(group, index)``.  Each group's owned positions are sharded
        *separately* in plan order (legacy shard boundaries — per-group
        accounting stays byte-identical to standalone calls), then the
        shard lists are flattened for one backend dispatch.  Returns
        ``(unique, shards, group_shard_base, group_shards,
        shard_plans)``.
        """
        unique: list[list[int]] = [[] for _ in groups]
        for g_i, i in owner.values():
            unique[g_i].append(i)
        for indices in unique:
            indices.sort()
        shards: list[tuple[int, list[int]]] = []
        group_shard_base: list[int] = []
        group_shards: list[int] = []
        for g_i, indices in enumerate(unique):
            group_shard_base.append(len(shards))
            for s in range(0, len(indices), self.shard_size):
                shards.append((g_i, indices[s:s + self.shard_size]))
            group_shards.append(len(shards) - group_shard_base[g_i])
        shard_plans = [[groups[g_i][1][i] for i in indices]
                       for g_i, indices in shards]
        return unique, shards, group_shard_base, group_shards, shard_plans

    # ------------------------------------------------------------ analyses
    def analyze_plans(self, plans: Sequence[FaultPlan], *,
                      max_instr: Optional[int] = None,
                      on_progress: Optional[ProgressCallback] = None
                      ) -> list[dict[str, set[str]]]:
        """Patterns-by-region for many traced injections, in plan order.

        Each plan travels as an :class:`~repro.faults.analysis.
        AnalysisPlan` through ``self.backend`` exactly like a campaign
        plan — the local pool runs it on fork children sharing the
        tracker's golden trace copy-on-write, and the ``socket``
        backend ships it to shard servers in a ``run`` frame (same
        handshake, per-shard retry, failover and local fallback; see
        ``docs/protocol.md``).  Duplicate plans are analyzed once and
        aliased.  The manifestation of each traced run is cached as a
        by-product when ``max_instr`` is provided, so a later untraced
        campaign over the same plans is free.  Unlike campaigns, the
        pattern tables themselves are not cache-served: every call
        re-analyzes (deterministically).

        One-group wrapper around :meth:`analyze_plan_groups` (the
        batching seam used by :mod:`repro.api`).
        """
        return self.analyze_plan_groups(
            [("analysis", plans)], max_instr=max_instr,
            on_progress=on_progress)[0]

    def analyze_plan_groups(self, groups, *,
                            max_instr: Optional[int] = None,
                            on_progress: Optional[ProgressCallback] = None
                            ) -> list[list[dict[str, set[str]]]]:
        """Traced analyses for many labeled plan groups, one dispatch.

        ``groups`` is a sequence of ``(label, plans)`` pairs of plain
        fault plans; returns one list of per-plan pattern tables per
        group, in group order.  All groups' shards ship through a
        single :meth:`Backend.run_shards` call as analysis plans.
        Duplicate plans are analyzed once and aliased across the whole
        batch — a pattern table is a pure function of the plan
        (determinism contract), so aliasing never changes a group's
        result, only the number of traced runs performed.
        """
        from repro.faults.analysis import AnalysisPlan
        return self._dispatch_groups(
            [(label, [AnalysisPlan(p) for p in plans])
             for label, plans in groups],
            max_instr, on_progress, use_cache=True, traced=True)

    # ------------------------------------------------------------ stats
    def stats(self) -> dict:
        return {"workers": self.workers, "executed": self.executed,
                "backend": self.backend.name,
                "exec_tier": self.tracker.exec_tier,
                "warm_start": self.tracker.warm_start,
                "pool_starts": self.pool_starts,
                "pool_alive": self._local.pool_alive,
                "shard_size": self.shard_size,
                "cache": self.cache.stats()}
