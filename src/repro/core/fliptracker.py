"""FlipTracker: the end-to-end analysis pipeline (paper Fig. 1).

Workflow implemented here, mirroring Sections III-IV:

(a) model the application as a chain of code regions (loop-delineated);
(b) trace a fault-free run and split it into region instances;
(c) classify each instance's input/output/internal locations;
(d) inject single-bit flips into input/internal locations of chosen
    instances, either in *campaign* mode (many untraced runs, success
    rates — Figs. 5/6) or in *analysis* mode (traced faulty runs, ACL
    tables, pattern detection — Table I, Fig. 7, Table II).
"""

from __future__ import annotations

import threading
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.acl.table import ACLResult, build_acl
from repro.api.compile import (aggregate_patterns, compile_analysis,
                               compile_campaign)
from repro.api.specs import AnalysisSpec, CampaignSpec
from repro.apps.base import Program
from repro.dddg.compare import compare_run
from repro.engine import ExecutionEngine
from repro.engine.progress import ProgressCallback
from repro.faults.campaign import (CampaignResult, Manifestation,
                                   classify_check)
from repro.faults.sites import (PROBE_BITS, NoFaultSitesError,
                                input_site_population,
                                internal_site_population, sample_input_plan,
                                sample_internal_plan, stratified_probe_plans)
from repro.faults.statistics import sample_size
from repro.patterns.base import PatternInstance
from repro.patterns.detect import detect_all
from repro.patterns.rates import PatternRates, compute_rates
from repro.regions.model import (CodeRegion, RegionInstance, RegionModel,
                                 detect_regions, main_loop_iterations,
                                 split_instances)
from repro.regions.variables import RegionIO, classify_io
from repro.trace.columnar import CHUNK, GoldenTrace, SplicedRecords
from repro.trace.events import Trace, TraceMeta
from repro.trace.index import TraceIndex
from repro.util.gcpause import gc_paused
from repro.util.rng import DeterministicRNG
from repro.vm.errors import VMError
from repro.vm.exec_tier import resolve_exec_tier
from repro.vm.fault import FaultPlan
from repro.warmstart import resolve_warmstart, warm_start_interp


@dataclass
class RunAnalysis:
    """Everything learned from one traced faulty run."""

    plan: FaultPlan
    manifestation: Manifestation
    faulty: Optional[Trace]
    acl: Optional[ACLResult]
    patterns: list[PatternInstance] = field(default_factory=list)

    def patterns_by_region(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for p in self.patterns:
            if p.region is not None:
                out.setdefault(p.region, set()).add(p.pattern)
        return out


class GoldenArtifacts:
    """The golden-side state of one program, built lazily and once.

    Everything FlipTracker derives from the fault-free run depends only
    on the program: the golden trace, the trace index, the region model
    and instances, the per-instance I/O classification, the recovery
    context and the warm-start ladder.
    The golden trace is columnar (:class:`~repro.trace.columnar.
    GoldenTrace`): the traced golden run stops every
    :data:`~repro.trace.columnar.CHUNK` instructions, encodes the
    records it appended and clears its list, so the bundle never holds
    the golden run as a list of tuples.
    The bundle builds each on first use under one lock, so trackers
    and shard-server connection threads can share it.  The recovery
    context and the ladder come from one untraced capture replay on
    ``exec_tier`` (:func:`repro.acl.online.build_recovery_context`).

    A plain :class:`FlipTracker` builds a private bundle; long-lived
    service processes share one per program fingerprint through
    :func:`repro.golden.shared_golden`.
    """

    def __init__(self, program: Program, exec_tier: Optional[str] = None):
        self.program = program
        self.exec_tier = exec_tier
        #: the golden trace, ``None`` until the golden run has happened
        self.trace: Optional[GoldenTrace] = None
        #: artifacts built so far (a shared bundle's reuse shows as a
        #: count that stops moving)
        self.builds = 0
        self._index: Optional[TraceIndex] = None
        self._model: Optional[RegionModel] = None
        self._instances: Optional[list[RegionInstance]] = None
        self._io: dict[tuple[str, int], RegionIO] = {}
        self._capture = None
        self._shared_tracker: Optional["FlipTracker"] = None
        self._lock = threading.RLock()

    def _lazy(self, attr: str, build):
        value = getattr(self, attr)
        if value is None:
            with self._lock:
                value = getattr(self, attr)
                if value is None:
                    value = build()
                    setattr(self, attr, value)
                    self.builds += 1
        return value

    def fault_free_trace(self) -> GoldenTrace:
        def run() -> GoldenTrace:
            # the golden run stops every CHUNK instructions to encode
            # its records, so its tuple list never outgrows one chunk;
            # the collector stays off meanwhile (repro.util.gcpause)
            with gc_paused():
                program = self.program
                interp = program.fresh_interpreter(trace=True,
                                                   exec_tier=self.exec_tier)
                golden = GoldenTrace(program.module,
                                     TraceMeta(program=program.name))
                interp.start(program.entry)
                stop = 0
                while not interp.finished:
                    stop += CHUNK
                    interp.run_to(stop)
                    golden.extend(interp.records)
                    interp.records.clear()
                program.verify_fault_free(interp)
                golden.seal()
                # one record per executed instruction: record index is
                # dyn index everywhere downstream
                if interp.dyn_count != len(golden):
                    raise ValueError(
                        f"{program.name}: golden run executed "
                        f"{interp.dyn_count} instructions but recorded "
                        f"{len(golden)}")
                return golden
        return self._lazy("trace", run)

    def trace_index(self) -> TraceIndex:
        return self._lazy("_index", lambda: TraceIndex(
            self.fault_free_trace()))

    def region_model(self) -> RegionModel:
        return self._lazy("_model", lambda: detect_regions(
            self.program.module, self.program.region_fn,
            self.program.region_prefix))

    def instances(self) -> list[RegionInstance]:
        return self._lazy("_instances", lambda: split_instances(
            self.fault_free_trace(), self.region_model()))

    def io(self, instance: RegionInstance) -> RegionIO:
        key = (instance.region.name, instance.index)
        found = self._io.get(key)
        if found is None:
            with self._lock:
                found = self._io.get(key)
                if found is None:
                    found = self._io[key] = classify_io(
                        self.fault_free_trace(), self.trace_index(),
                        instance)
                    self.builds += 1
        return found

    def _capture_replay(self):
        from repro.acl.online import build_recovery_context

        def capture():
            return build_recovery_context(
                self.program, self.fault_free_trace(),
                self.trace_index(), self.instances(),
                exec_tier=self.exec_tier)
        return self._lazy("_capture", capture)

    def recovery_context(self):
        return self._capture_replay()[0]

    def warm_ladder(self):
        return self._capture_replay()[1]

    def shared_tracker(self) -> "FlipTracker":
        """A ``workers=1`` tracker over this bundle, built once.

        Shard servers of the program in this process serve analyses
        and recovery runs from it, so a server that stops and rejoins
        adopts the previous incarnation's tracker.
        """
        with self._lock:
            if self._shared_tracker is None:
                self._shared_tracker = FlipTracker(self.program, workers=1,
                                                   golden=self)
            return self._shared_tracker


class FlipTracker:
    """Analysis driver bound to one built program.

    All faulty runs go through one persistent
    :class:`~repro.engine.ExecutionEngine` (created lazily, kept for
    the tracker's lifetime): the worker pool starts once, fork children
    inherit the cached golden trace copy-on-write, and every executed
    plan lands in the engine's content-addressed result cache — so a
    repeated campaign over the same target performs zero new runs.

    Parameters
    ----------
    program:
        A built app (see :mod:`repro.apps`).
    seed:
        Seed for all site sampling within this driver.
    workers:
        Process count for campaigns and traced analyses (1 = sequential).
    cache_dir:
        Spill the plan-result cache to ``<cache_dir>/plan_results.jsonl``
        so campaigns resume across processes (see :mod:`repro.engine`).
    resume:
        Reuse pre-existing spill entries from ``cache_dir``.
    shard_size:
        Campaign checkpoint/progress granularity.
    backend:
        Shard-execution substrate for campaigns: ``"local"`` (the
        in-host pool, default), ``"socket"``, or a
        pre-built :class:`~repro.engine.backends.Backend` instance
        (see :mod:`repro.engine.backends`).
    backend_addr:
        ``"host:port[,host:port...]"`` of running shard servers, for
        ``backend="socket"``.
    registry:
        Service-registry address (``"host:port"``) or resolver for
        registry-resolved shard placement (implies ``socket`` when
        ``backend`` is unset); see :mod:`repro.service`.
    exec_tier:
        VM execution tier for every run this tracker performs (golden
        trace, capture replay, traced analyses, every plan its engine
        runs): ``"compiled"``/``"interp"``; ``None`` resolves
        ``REPRO_EXEC``, else ``"compiled"``.
        Byte-identical observables on either tier.
    warm_start:
        Golden snapshot-ladder warm start for campaign, recovery and
        traced analysis runs (:mod:`repro.warmstart`): ``"on"``/
        ``"off"`` (or a bool); ``None`` defers to ``REPRO_WARMSTART``
        (default on).
        Byte-identical observables either way.
    golden:
        A :class:`GoldenArtifacts` bundle to share, built for this very
        ``program`` object (service processes pass the process-wide
        cached one); ``None`` builds a private bundle on this tracker's
        exec tier.

    The two run settings are resolved once, here, and kept as
    :attr:`exec_tier` (a tier name) and :attr:`warm_start` (a bool):
    every executor — the sequential path, pool workers and shard
    servers — runs plans on a tracker through
    :func:`~repro.faults.campaign.execute_plan`, which reads them.
    """

    def __init__(self, program: Program, seed: int = 1234,
                 workers: int = 1, *, cache_dir: Optional[str] = None,
                 resume: bool = True, shard_size: int = 64,
                 backend=None, backend_addr=None, registry=None,
                 exec_tier: Optional[str] = None, warm_start=None,
                 golden: Optional[GoldenArtifacts] = None):
        if golden is not None and golden.program is not program:
            raise ValueError("golden artifacts belong to another program")
        self.program = program
        self.seed = seed
        self.workers = workers
        self.cache_dir = cache_dir
        self.resume = resume
        self.shard_size = shard_size
        self.backend = backend
        self.backend_addr = backend_addr
        self.registry = registry
        self.exec_tier = resolve_exec_tier(exec_tier)
        self.warm_start = resolve_warmstart(warm_start)
        self._engine: Optional[ExecutionEngine] = None
        self._golden = golden if golden is not None \
            else GoldenArtifacts(program, self.exec_tier)
        self._rates: Optional[PatternRates] = None

    # ------------------------------------------------------------ engine
    @property
    def engine(self) -> ExecutionEngine:
        """The tracker's persistent execution engine (lazy singleton)."""
        if self._engine is None:
            self._engine = ExecutionEngine(
                self.program, workers=self.workers,
                cache_dir=self.cache_dir, resume=self.resume,
                shard_size=self.shard_size, backend=self.backend,
                backend_addr=self.backend_addr, registry=self.registry)
            self._engine.bind_tracker(self)
        return self._engine

    def close(self) -> None:
        """Shut down the engine (worker pool + cache spill handle).

        Safe to re-enter: closing twice is a no-op, and a closed
        tracker lazily rebuilds a fresh engine on its next campaign or
        analysis (the :attr:`engine` property), so ``close()`` marks a
        quiet point — releasing pools, sockets and the spill handle —
        rather than ending the tracker's life.  The engine reference
        is dropped *before* shutdown so a failed-shard
        :class:`~repro.engine.EngineError` raised by
        ``ExecutionEngine.close()`` still leaves the tracker reusable.
        """
        engine, self._engine = self._engine, None
        if engine is not None:
            engine.close()

    def __enter__(self) -> "FlipTracker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ fault-free
    def fault_free_trace(self) -> GoldenTrace:
        """Trace the golden run (once per golden bundle)."""
        return self._golden.fault_free_trace()

    @property
    def _ff(self) -> Optional[Trace]:
        """The golden trace if the golden run has happened, else None."""
        return self._golden.trace

    def _traced_golden(self) -> GoldenArtifacts:
        # every golden-derived artifact enters through fault_free_trace()
        # so the golden run has one entry point whoever asks first
        self.fault_free_trace()
        return self._golden

    def trace_index(self) -> TraceIndex:
        return self._traced_golden().trace_index()

    @property
    def faulty_budget(self) -> int:
        """Instruction budget for faulty runs (hang detection)."""
        return 3 * len(self.fault_free_trace()) + 50_000

    # ------------------------------------------------------------ regions
    def region_model(self) -> RegionModel:
        return self._golden.region_model()

    def instances(self) -> list[RegionInstance]:
        return self._traced_golden().instances()

    def instance_of(self, region_name: str,
                    instance_index: int = 0) -> RegionInstance:
        for inst in self.instances():
            if inst.region.name == region_name and \
                    inst.index == instance_index:
                return inst
        raise KeyError(f"no instance {instance_index} of region "
                       f"{region_name!r}")

    def io(self, instance: RegionInstance) -> RegionIO:
        return self._traced_golden().io(instance)

    def recovery_context(self):
        """Online-check context for protected runs (cached).

        A pure function of the program — golden boundary images, value
        ranges and forward-safe regions (see :mod:`repro.acl.online`) —
        so every worker process and shard server derives the identical
        context independently.  Built together with :meth:`warm_ladder`
        by one untraced capture replay.
        """
        return self._traced_golden().recovery_context()

    def warm_ladder(self):
        """Golden snapshot ladder for warm-started faulty runs (cached).

        Like :meth:`recovery_context`, a pure function of the program:
        rungs are snapshots of the golden execution, aligned to region
        boundaries where possible (see :mod:`repro.warmstart`), so
        workers and shard servers derive identical ladders
        independently and a pre-fork build is inherited copy-on-write.
        """
        return self._traced_golden().warm_ladder()

    # ------------------------------------------------------------ main loop
    def main_loop_iterations(self) -> list[RegionInstance]:
        """Each main-loop iteration as a pseudo region instance (Fig. 6)."""
        trace = self.fault_free_trace()
        return main_loop_iterations(trace, self.program.module,
                                    self.program.main_fn)

    def whole_program_instance(self) -> RegionInstance:
        """The entire execution as one pseudo instance.

        Used for whole-application success-rate campaigns (Use Case 1's
        Table III and Table IV's measured SR column), where the paper
        injects uniformly over the application rather than per region.
        """
        trace = self.fault_free_trace()
        region = CodeRegion(-2, "whole_program", "straight",
                            self.program.entry, frozenset(), 0, 0)
        return RegionInstance(region, 0, len(trace), 0)

    def whole_program_campaign(self, kind: str = "internal",
                               n: int = 100,
                               on_progress: Optional[ProgressCallback] = None
                               ) -> CampaignResult:
        """Success rate over uniform whole-application injections.

        One-spec wrapper over the declarative layer (see
        :mod:`repro.api`); batch whole sweeps with an
        :class:`~repro.api.Experiment` instead of looping this.
        """
        spec = CampaignSpec(target="whole_program", kind=kind, n=n)
        return self._run_campaign_spec(spec, on_progress)

    def _run_campaign_spec(self, spec: CampaignSpec,
                           on_progress: Optional[ProgressCallback]
                           ) -> CampaignResult:
        """Compile one campaign spec and dispatch it through the engine."""
        label, plans = compile_campaign(self, spec)
        return self.engine.run_plans(
            plans, max_instr=self.faulty_budget, label=label,
            on_progress=on_progress)

    # ------------------------------------------------------------ planning
    def make_plans(self, instance: RegionInstance, kind: str, n: int,
                   seed_offset: int = 0, strict: bool = True
                   ) -> list[FaultPlan]:
        """Sample ``n`` single-bit-flip plans for one instance.

        Deterministic across processes: the per-target stream is keyed
        by a stable CRC (builtin ``hash`` of strings is randomized per
        interpreter by PYTHONHASHSEED and must not feed seeds).

        Rejection sampling draws at most ``n * 4`` times; a partial
        yield (site population thinner than requested) warns, and a
        *zero* yield for ``n > 0`` raises
        :class:`~repro.faults.sites.NoFaultSitesError` unless
        ``strict=False``, which downgrades it to the same warning.
        """
        io = self.io(instance)
        key = (f"{instance.region.name}|{instance.index}|{kind}|"
               f"{seed_offset}").encode()
        rng = DeterministicRNG(self.seed).spawn(
            zlib.crc32(key) & 0xFFFF)
        plans: list[FaultPlan] = []
        records = self.fault_free_trace()
        module = self.program.module
        for _ in range(n * 4):
            if len(plans) >= n:
                break
            if kind == "input":
                drawn = sample_input_plan(io, module, rng)
            elif kind == "internal":
                drawn = sample_internal_plan(records, io, module, rng)
            else:
                raise ValueError(f"kind must be input|internal, got {kind!r}")
            if drawn is not None:
                plans.append(drawn[0])
        if len(plans) < n:
            target = (f"{self.program.name}/{instance.region.name}"
                      f"#{instance.index}/{kind}")
            if not plans and n > 0 and strict:
                raise NoFaultSitesError(
                    f"make_plans: no {kind} sites drawn for {target} "
                    f"after {n * 4} attempts")
            warnings.warn(
                f"make_plans: drew only {len(plans)} of {n} requested "
                f"{kind} plans for {target} (draw budget {n * 4} "
                f"exhausted)", RuntimeWarning, stacklevel=2)
        return plans

    def campaign_size(self, instance: RegionInstance, kind: str,
                      confidence: float = 0.95, margin: float = 0.03,
                      cap: Optional[int] = None) -> int:
        """Leveugle-sized injection count for an instance target."""
        io = self.io(instance)
        if kind == "input":
            pop = input_site_population(io, self.program.module)
        else:
            pop = internal_site_population(self.fault_free_trace(),
                                           instance)
        n = sample_size(pop, confidence, margin)
        return min(n, cap) if cap is not None else n

    # ------------------------------------------------------------ campaigns
    def region_campaign(self, region_name: str, kind: str,
                        n: Optional[int] = None,
                        instance_index: int = 0,
                        cap: Optional[int] = None,
                        on_progress: Optional[ProgressCallback] = None
                        ) -> CampaignResult:
        """Success rate for one region instance (Fig. 5 data points).

        One-spec wrapper over :mod:`repro.api` — byte-identical to a
        :class:`~repro.api.CampaignSpec` in an experiment (the parity
        suite locks this in).
        """
        spec = CampaignSpec(target="region", kind=kind, region=region_name,
                            instance_index=instance_index, n=n, cap=cap)
        return self._run_campaign_spec(spec, on_progress)

    def iteration_campaign(self, iteration: int, kind: str,
                           n: int = 50,
                           on_progress: Optional[ProgressCallback] = None
                           ) -> CampaignResult:
        """Success rate for one main-loop iteration (Fig. 6 data points).

        One-spec wrapper over :mod:`repro.api` (``target="iteration"``).
        """
        spec = CampaignSpec(target="iteration", kind=kind,
                            iteration=iteration, n=n)
        return self._run_campaign_spec(spec, on_progress)

    # ------------------------------------------------------------ analysis
    def analyze_injection(self, plan: FaultPlan) -> RunAnalysis:
        """Trace one faulty run and extract ACL + pattern instances.

        With warm start on, the run restores the golden ladder rung
        below its trigger and executes only the suffix
        (:func:`~repro.warmstart.warm_start_interp`); the faulty trace
        is the golden prefix, read through the golden columns, plus the
        run's own suffix records (:class:`~repro.trace.columnar.
        SplicedRecords`).  The analyses then read only the records
        their answers depend on: the ACL pass starts at the injection
        record, since the prefix before it is the golden trace, visits
        only the events of the value-aligned window and collects the
        accumulator updates Repeated Additions needs on the way; the
        region split reuses the golden instances up to the divergence.
        """
        golden = self._traced_golden()
        ff = golden.trace
        ladder = self.warm_ladder() if self.warm_start else None
        interp = self.program.fresh_interpreter(
            trace=True, fault=plan, max_instr=self.faulty_budget,
            exec_tier=self.exec_tier)
        crashed = False
        try:
            if warm_start_interp(interp, ladder, plan, ff):
                interp.resume_run(self.program.entry)
            else:
                interp.run(self.program.entry)
        except VMError:
            crashed = True
        except (TypeError, ValueError, OverflowError, MemoryError):
            crashed = True
        records = SplicedRecords(interp.records, ff.table, ff,
                                 interp.record_base)
        faulty = Trace(records, self.program.module,
                       TraceMeta(program=self.program.name, faulty=True,
                                 fault_desc=interp.fault_record.describe()))
        if crashed:
            manifestation = Manifestation.CRASHED
        else:
            # narrowed classification: corrupted-state exceptions inside
            # the checker mean FAILED; checker bugs raise CheckerError
            manifestation = classify_check(self.program, interp)
        frec = interp.fault_record
        if frec.fired:
            injected_loc = frec.loc
            injected_time = frec.dyn_index
            start = injected_time
        else:
            injected_loc = injected_time = None
            start = len(faulty.records)
        acl = build_acl(ff, faulty, injected_loc=injected_loc,
                        injected_time=injected_time, start=start,
                        index=golden.trace_index())
        faulty_instances = split_instances(
            faulty.records, self.region_model(), golden.instances(),
            acl.aligned)
        patterns = detect_all(ff, faulty, acl, faulty_instances)
        return RunAnalysis(plan, manifestation, faulty, acl, patterns)

    def probe_plans(self, instance: RegionInstance,
                    bits: Optional[Sequence[int]] = None,
                    n_sites: int = 2) -> list[FaultPlan]:
        """Deterministic stratified bit-sweep probes for one instance.

        See :func:`repro.faults.sites.stratified_probe_plans`: a few
        evenly spaced sites per kind x a fixed bit stratum, covering
        the low-bit behaviours (shift/truncation/conditional masking)
        that uniform sampling misses at small campaign sizes.
        """
        io = self.io(instance)
        pairs = stratified_probe_plans(self.fault_free_trace(), io,
                                       self.program.module,
                                       bits=bits or PROBE_BITS,
                                       n_sites=n_sites)
        return [plan for plan, _info in pairs]

    def region_patterns(self, runs_per_kind: int = 3,
                        instance_index: int = 0,
                        loop_only: bool = False,
                        probe_sites: int = 0,
                        probe_bits: Optional[Sequence[int]] = None,
                        on_progress: Optional[ProgressCallback] = None
                        ) -> dict[str, set[str]]:
        """Patterns observed per region across sampled injections (Table I).

        Injects a few traced faults into every region instance (both
        input and internal locations) and unions the detected pattern
        sets by region.  ``loop_only`` restricts the *injection targets*
        to loop regions (the straight regions between loops are a few
        loop-setup instructions); patterns are still attributed to
        whichever region they occur in.

        ``probe_sites > 0`` adds the deterministic stratified bit-sweep
        probes of :meth:`probe_plans` on top of the ``runs_per_kind``
        uniform draws — pattern detection needs low-bit coverage that
        uniform sampling only reaches at Leveugle-scale campaign sizes.

        The traced analysis runs are dispatched through the engine's
        configured backend exactly like campaigns: the default local
        pool fans out across fork children inheriting the cached
        fault-free trace copy-on-write (needs ``self.workers > 1``),
        while ``backend="socket"`` ships the analyses to remote shard
        servers as analysis plans in ``run`` frames
        (see ``docs/protocol.md``) — results are byte-identical either
        way.  Regions whose site populations are empty (a straight
        region with no internal defs, say) are skipped rather than
        failing the whole sweep.

        One-spec wrapper over :mod:`repro.api` — an
        :class:`~repro.api.AnalysisSpec` in an experiment produces the
        identical table, batched with every other analysis of the app.
        """
        spec = AnalysisSpec(
            runs_per_kind=runs_per_kind, instance_index=instance_index,
            loop_only=loop_only, probe_sites=probe_sites,
            probe_bits=tuple(probe_bits) if probe_bits is not None
            else None)
        _label, plans, found = compile_analysis(self, spec)
        return aggregate_patterns(
            found, self._analyze_many(plans, on_progress=on_progress))

    def _analyze_many(self, plans: Sequence[FaultPlan],
                      on_progress: Optional[ProgressCallback] = None
                      ) -> list[dict[str, set[str]]]:
        """Patterns-by-region for many traced injections (engine-routed)."""
        return self.engine.analyze_plans(plans,
                                         max_instr=self.faulty_budget,
                                         on_progress=on_progress)

    def compare_regions(self, analysis: RunAnalysis,
                        max_instance_records: int = 200_000):
        """DDDG Case-1/Case-2 classification of every matched instance.

        Runs the Section III-D region-level comparison for one traced
        faulty run (see :mod:`repro.dddg.compare`): which region
        instances masked the corruption (Case 1), which diminished its
        magnitude (Case 2), and where control flow diverged.
        """
        if analysis.faulty is None:
            raise ValueError("analysis carries no faulty trace")
        return compare_run(self.fault_free_trace().records,
                           self.trace_index(), self.instances(),
                           analysis.faulty.records, self.region_model(),
                           max_instance_records=max_instance_records)

    # ------------------------------------------------------------ features
    def pattern_rates(self) -> PatternRates:
        """Table IV feature vector for this program."""
        if self._rates is None:
            self._rates = compute_rates(self.fault_free_trace())
        return self._rates
