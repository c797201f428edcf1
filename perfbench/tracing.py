"""In-memory spans around each layer's public functions.

The traced run installs wrappers (:func:`install`) where the callers
look the names up — module globals such as
``repro.core.fliptracker.build_acl``, class attributes such as
``ExecutionEngine.run_plan_groups`` — so the program itself is not
edited.  A span records its name, start, end, parent span (the span
open on the same thread when it began), thread and context id (the
experiment repetition or service job).  Spans stay in memory until the
run ends, when :func:`layer_metrics` folds them into the per-layer
metrics of ``layers.json`` and the caller writes them out.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

#: the repository's layers, named after its modules
LAYERS = ("apps", "trace", "regions", "warmstart", "acl", "patterns",
          "api", "faults", "vm", "recovery", "engine", "service")

#: span-name prefixes that belong to another layer
_LAYER_ALIASES = {"backends": "engine", "protocol": "engine"}

#: spans that build per-program state (a service job rebuilds them)
SETUP_SPANS = frozenset({"apps.build", "trace.golden", "regions.detect",
                         "regions.split", "regions.io",
                         "acl.online.context", "warmstart.ladder"})


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    ctx: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, "ctx": self.ctx}


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return _LAYER_ALIASES.get(head, head)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may overlap each other or stick out of their parent; only
    their union inside the parent's interval is subtracted.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ()))
        out[span.id] = span.duration - covered
    return out


class Tracer:
    """Span and counter sink shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        #: ``(event, job id, time)`` service-queue transitions
        self.marks: list[tuple[str, str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_context(self, ctx: Optional[str]) -> None:
        self._local.ctx = ctx

    def context(self) -> Optional[str]:
        return getattr(self._local, "ctx", None)

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    stack[-1].id if stack else None,
                    threading.get_ident(), self.context())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def mark(self, event: str, job_id: str) -> None:
        with self._lock:
            self.marks.append((event, job_id, time.perf_counter()))

    # ------------------------------------------------------------ patching
    def patch(self, owner, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until restore."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, own, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def spanned(self, name: str,
                after: Optional[Callable] = None) -> Callable:
        """Wrapper factory: one span per call, then ``after(result, args)``."""
        def make(fn):
            def wrapper(*args, **kwargs):
                span = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(span)
                if after is not None:
                    after(result, args)
                return result
            return wrapper
        return make


# ---------------------------------------------------------------- wrappers
class _TimedJson:
    """Stand-in for ``json`` inside the protocol module: times the codec."""

    def __init__(self, tracer: Tracer, real):
        self._tracer = tracer
        self._real = real

    def dumps(self, *args, **kwargs):
        span = self._tracer.begin("protocol.codec")
        try:
            text = self._real.dumps(*args, **kwargs)
        finally:
            self._tracer.end(span)
        self._tracer._local.last_dumps = len(text)
        return text

    def loads(self, *args, **kwargs):
        span = self._tracer.begin("protocol.codec")
        try:
            return self._real.loads(*args, **kwargs)
        finally:
            self._tracer.end(span)

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.acl.online as acl_online
    import repro.api as api_pkg
    import repro.api.compile as api_compile
    import repro.api.runner as runner
    import repro.core.fliptracker as ft
    import repro.engine.backends.protocol as protocol
    import repro.engine.core as engine_core
    import repro.faults.campaign as campaign
    import repro.recovery.run as recovery_run
    import repro.warmstart as warmstart
    from repro.apps import REGISTRY
    from repro.engine.backends.local import LocalPoolBackend
    from repro.engine.backends.remote import SocketBackend
    from repro.engine.cache import PlanCache
    from repro.recovery.outcome import RecoveryOutcome
    from repro.service.queue import JobQueue
    from repro.service.registry import RegistryClient
    from repro.vm.compile import CompiledInterpreter
    from repro.vm.interp import Interpreter

    t = tracer
    span = t.spanned

    t.patch(REGISTRY, "build", span("apps.build"))

    def golden(fn):
        def wrapper(self):
            if self._ff is not None:
                return fn(self)
            sp = t.begin("trace.golden")
            try:
                trace = fn(self)
            finally:
                t.end(sp)
            t.count("trace.golden_instr", len(trace))
            return trace
        return wrapper
    t.patch(ft.FlipTracker, "fault_free_trace", golden)

    t.patch(ft, "detect_regions", span("regions.detect"))
    t.patch(ft, "split_instances", span("regions.split"))
    t.patch(ft, "classify_io", span("regions.io"))
    t.patch(acl_online, "build_recovery_context",
            span("acl.online.context"))
    t.patch(warmstart, "build_warm_ladder", span("warmstart.ladder"))

    def plans_of(result, _args):
        if isinstance(result, list):            # compile_recovery
            n = sum(len(plans) for _r, _l, plans in result)
        else:                                   # (label, plans[, found])
            n = len(result[1])
        t.count("api.plans", n)
    for module in (api_compile, runner):
        for name in ("compile_campaign", "compile_analysis",
                     "compile_recovery"):
            t.patch(module, name, span("api.compile", plans_of))
    t.patch(api_pkg, "run_experiment", span("api.run_experiment"))

    def manifestation(result, _args):
        t.count(f"faults.{result.value}")
    t.patch(campaign, "execute_plan",
            span("faults.execute",
                 lambda _r, _a: t.count("faults.runs")))
    t.patch(campaign, "run_plan", span("faults.run", manifestation))
    for module in (campaign, ft, recovery_run):
        t.patch(module, "classify_check", span("faults.check"))
    t.patch(ft.FlipTracker, "analyze_injection",
            span("faults.analyze",
                 lambda r, _a: manifestation(r.manifestation, None)))

    def vm_run(fn):
        def wrapper(self, *args, **kwargs):
            if self.fault is None or getattr(t._local, "in_vm", False):
                return fn(self, *args, **kwargs)
            traced = self.records is not None
            before = self.dyn_count
            t._local.in_vm = True
            sp = t.begin("vm.traced" if traced else "vm.exec")
            try:
                return fn(self, *args, **kwargs)
            finally:
                t.end(sp)
                t._local.in_vm = False
                t.count("vm.traced_instr" if traced else "vm.instr",
                        self.dyn_count - before)
        return wrapper
    for cls in (Interpreter, CompiledInterpreter):
        for name in ("run", "resume_run", "run_to"):
            if name in vars(cls):
                t.patch(cls, name, vm_run)

    t.patch(ft, "build_acl", span("acl.build"))
    t.patch(ft, "detect_all",
            span("patterns.detect",
                 lambda r, _a: t.count("patterns.found", len(r))))

    def outcome(result, _args):
        decoded = RecoveryOutcome.decode(result)
        t.count("recovery.runs")
        t.count("recovery.restores", decoded.recovered)
        t.count("recovery.reexec_instr", decoded.re_executed)
    t.patch(recovery_run, "run_recovery_plan",
            span("recovery.run", outcome))

    def dispatch(fn):
        def wrapper(self, *args, **kwargs):
            before = self.executed
            sp = t.begin("engine.dispatch")
            try:
                return fn(self, *args, **kwargs)
            finally:
                t.end(sp)
                t.count("engine.executed", self.executed - before)
        return wrapper
    t.patch(engine_core.ExecutionEngine, "run_plan_groups", dispatch)
    t.patch(engine_core.ExecutionEngine, "analyze_plan_groups", dispatch)
    t.patch(engine_core, "plan_key", span("engine.keys"))

    def cache_get(result, _args):
        t.count("engine.cache_gets")
        if result is not None:
            t.count("engine.cache_hits")
    t.patch(PlanCache, "get", span("engine.cache", cache_get))
    t.patch(PlanCache, "put", span("engine.cache"))

    def pool_for(fn):
        def wrapper(self, n_tasks):
            if self._pool is not None:
                return fn(self, n_tasks)
            sp = t.begin("engine.pool_start")
            try:
                return fn(self, n_tasks)
            finally:
                t.end(sp)
        return wrapper
    t.patch(LocalPoolBackend, "pool_for", pool_for)

    def blocked(fn):
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    sp = t.begin("backends.socket_wait")
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t.end(sp)
                    yield item
            finally:
                gen.close()
        return wrapper
    t.patch(SocketBackend, "run_shards", blocked)
    t.patch(SocketBackend, "analyze_shards", blocked)

    t.patch(protocol, "json", lambda real: _TimedJson(t, real))

    def frames(fn):
        def wrapper(sock, obj):
            t._local.last_dumps = 0
            fn(sock, obj)
            t.count("protocol.frames")
            t.count("protocol.bytes", t._local.last_dumps + 4)
        return wrapper
    t.patch(protocol, "send_msg", frames)

    def queued(fn):
        def wrapper(self, *args, **kwargs):
            job = fn(self, *args, **kwargs)
            t.mark("submit", job.id)
            return job
        return wrapper

    def claimed(fn):
        def wrapper(self):
            job = fn(self)
            if job is not None:
                t.mark("claim", job.id)
                t.set_context(job.id)
            return job
        return wrapper

    def finished(fn):
        def wrapper(self, job_id, *args, **kwargs):
            fn(self, job_id, *args, **kwargs)
            t.mark("finish", job_id)
            t.set_context(None)
        return wrapper
    t.patch(JobQueue, "submit", queued)
    t.patch(JobQueue, "claim", claimed)
    t.patch(JobQueue, "finish", finished)
    t.patch(JobQueue, "fail", finished)

    t.patch(RegistryClient, "submit", span("service.submit"))
    t.patch(RegistryClient, "fetch", span("service.fetch"))

    def watch(fn):
        def wrapper(self, job_id, on_event=None):
            def counted(event):
                t.count("service.watch_events")
                if on_event is not None:
                    on_event(event)
            return fn(self, job_id, on_event=counted)
        return wrapper
    t.patch(RegistryClient, "watch", watch)


# ---------------------------------------------------------------- metrics
def _queue_intervals(marks) -> tuple[float, float]:
    """Summed submit->claim and claim->finish time over every job."""
    seen: dict[str, dict[str, float]] = {}
    for event, job_id, at in marks:
        seen.setdefault(job_id, {}).setdefault(event, at)
    wait = run = 0.0
    for events in seen.values():
        if "submit" in events and "claim" in events:
            wait += events["claim"] - events["submit"]
        if "claim" in events and "finish" in events:
            run += events["finish"] - events["claim"]
    return wait, run


def layer_metrics(tracer: Tracer, *, traced_wall: float,
                  untraced_wall: float, window: tuple[float, float],
                  warm_stats: dict, pool_start_s: float) -> dict:
    """Fold the traced run's spans and counters into per-layer metrics."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    c = tracer.counters.get

    def under(span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            ancestor = by_id.get(parent)
            if ancestor is None:
                return False
            if ancestor.name == name:
                return True
            parent = ancestor.parent
        return False

    def total(name: str, keep=None) -> float:
        return sum(s.duration for s in spans
                   if s.name == name and (keep is None or keep(s)))

    def self_total(names) -> float:
        return sum(selfs[s.id] for s in spans if s.name in names)

    golden = (lambda s: not under(s, "faults.analyze"))
    faulty = (lambda s: under(s, "faults.analyze"))

    def job_setup(s: Span) -> bool:
        ctx = s.ctx or ""
        return ctx.startswith("job-") and not any(
            under(s, name) for name in SETUP_SPANS)

    exec_s = total("vm.exec")
    hits, misses = warm_stats["hits"], warm_stats["misses"]
    gets = c("engine.cache_gets", 0)
    queue_wait, job_run = _queue_intervals(tracer.marks)
    metrics = {
        "apps.build_s": total("apps.build"),
        "trace.golden_s": total("trace.golden"),
        "trace.golden_instr": c("trace.golden_instr", 0),
        "regions.instances_s": total("regions.detect", golden)
        + total("regions.split", golden),
        "regions.io_s": total("regions.io"),
        "acl.online.context_s": total("acl.online.context"),
        "warmstart.ladder_s": total("warmstart.ladder"),
        "api.compile_s": total("api.compile"),
        "api.plans": c("api.plans", 0),
        "faults.runs": c("faults.runs", 0),
        "faults.run_s": self_total({"faults.execute", "faults.run"}),
        "faults.check_s": total("faults.check"),
        "faults.success": c("faults.success", 0),
        "faults.failed": c("faults.failed", 0),
        "faults.crashed": c("faults.crashed", 0),
        "vm.instr": c("vm.instr", 0),
        "vm.exec_s": exec_s,
        "vm.instr_per_s": c("vm.instr", 0) / exec_s if exec_s else 0.0,
        "vm.traced_instr": c("vm.traced_instr", 0),
        "vm.traced_s": total("vm.traced"),
        "warmstart.hits": hits,
        "warmstart.misses": misses,
        "warmstart.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "warmstart.saved_instr": warm_stats["saved_instr"],
        "acl.build_s": total("acl.build"),
        "regions.split_faulty_s": total("regions.split", faulty),
        "patterns.detect_s": total("patterns.detect"),
        "patterns.found": c("patterns.found", 0),
        "recovery.runs": c("recovery.runs", 0),
        "recovery.run_s": total("recovery.run"),
        "recovery.restores": c("recovery.restores", 0),
        "recovery.reexec_instr": c("recovery.reexec_instr", 0),
        "engine.self_s": self_total({"engine.dispatch"}),
        "engine.keys_s": total("engine.keys"),
        "engine.cache_s": total("engine.cache"),
        "engine.executed": c("engine.executed", 0),
        "engine.cache_hit_ratio": c("engine.cache_hits", 0) / gets
        if gets else 0.0,
        "engine.pool_start_s": pool_start_s,
        "backends.socket_wait_s": total("backends.socket_wait"),
        "protocol.frames": c("protocol.frames", 0),
        "protocol.bytes": c("protocol.bytes", 0),
        "protocol.codec_s": total("protocol.codec"),
        "service.submit_s": total("service.submit"),
        "service.queue_wait_s": queue_wait,
        "service.job_run_s": job_run,
        "service.job_setup_s": sum(
            s.duration for s in spans
            if s.name in SETUP_SPANS and job_setup(s)),
        "service.fetch_s": total("service.fetch"),
        "service.watch_events": c("service.watch_events", 0),
    }
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        per_layer[layer_of(s.name)] = \
            per_layer.get(layer_of(s.name), 0.0) + selfs[s.id]
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = per_layer[layer]
    lo, hi = window
    metrics["tracing.unattributed_s"] = (hi - lo) - union_length(
        (max(s.start, lo), min(s.end, hi)) for s in spans)
    metrics["tracing.overhead_s"] = traced_wall - untraced_wall
    metrics["tracing.spans"] = len(spans)
    return metrics
