"""The backend seam: how a shard of plans gets executed.

:meth:`ExecutionEngine.run_plan_groups` and
:meth:`ExecutionEngine.analyze_plan_groups` own *what* runs (cache
lookups, shard boundaries, result assembly, progress, checkpointing)
and a :class:`Backend` owns *where* it runs.  The contract is
deliberately tiny so that scaling work — remote shards, batching — is
a new backend, not an engine rewrite.  A backend implements one shard
operation, :meth:`Backend.run_shards`:

* the engine hands over the pending shards (plan order, already
  deduplicated and — for campaigns — cache-filtered); a plan is a
  :class:`~repro.vm.fault.FaultPlan`, a
  :class:`~repro.recovery.plan.RecoveryPlan` or an
  :class:`~repro.faults.analysis.AnalysisPlan`;
* the backend yields ``(shard_index, values)`` pairs **in shard
  order**, whatever order the underlying substrate completed them in;
* ``values`` holds one outcome string per plan, in plan order — a
  manifestation, an encoded recovery outcome or an encoded traced
  analysis (:func:`~repro.faults.campaign.execute_plan` produces all
  three).

Because the engine alone touches the :class:`~repro.engine.cache.
PlanCache` and assembles results by plan index, any backend that
honors this contract automatically inherits the determinism contract:
``workers=1`` and every backend are byte-identical — for campaigns,
protected runs *and* traced analyses.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.vm.fault import FaultPlan


class Backend:
    """Abstract shard executor bound to one :class:`ExecutionEngine`."""

    #: registry name; also reported by ``ExecutionEngine.stats()``
    name = "?"

    def __init__(self) -> None:
        self.engine = None
        #: index of the shard whose execution failed fatally (worker
        #: death, lost server); lets ``ExecutionEngine.close()`` report
        #: *which* shard was lost instead of hanging on a broken pool
        self.failed_shard: Optional[int] = None

    # ------------------------------------------------------------ lifecycle
    def bind(self, engine) -> None:
        """Attach the owning engine (program, workers, min_parallel)."""
        self.engine = engine

    def close(self) -> None:
        """Release every resource (pools, sockets, worker processes)."""

    # ------------------------------------------------------------ execution
    def run_shards(self, shards: Sequence[Sequence[FaultPlan]],
                   max_instr: Optional[int]
                   ) -> Iterator[tuple[int, list[str]]]:
        """Execute all shards, yielding ``(index, values)`` in shard order.

        Implementations may complete shards out of order internally but
        must reassemble before yielding; the engine checkpoints each
        yielded shard into the cache as it arrives.
        """
        raise NotImplementedError

    def analyze_shards(self, shards: Sequence[Sequence[FaultPlan]],
                       max_instr: Optional[int]
                       ) -> Iterator[tuple[int, list]]:
        """Traced analyses of plain fault plans, through :meth:`run_shards`.

        An adapter, not a second shard operation (no backend overrides
        it; the engine dispatches analysis plans through
        :meth:`run_shards` itself): each plan is wrapped in an
        :class:`~repro.faults.analysis.AnalysisPlan` and each value
        decoded into ``(manifestation, {region: [pattern, ...]})``
        with pattern lists sorted, in plan order.
        """
        from repro.faults.analysis import AnalysisPlan, decode_analysis
        for index, values in self.run_shards(
                [[AnalysisPlan(p) for p in plans] for plans in shards],
                max_instr):
            yield index, [decode_analysis(v) for v in values]

    def run_sequential(self, plans: Sequence[FaultPlan],
                       max_instr: Optional[int]) -> list[str]:
        """In-process reference execution (shared fallback path).

        Recovery and analysis plans resolve the engine's analysis
        tracker (building one if the engine was created standalone) —
        they need its golden-side artifacts, which are a pure function
        of the program, so this path stays byte-identical to every
        distributed substrate.
        """
        from repro.faults.campaign import execute_plan
        tier = self.engine.exec_tier
        return [execute_plan(self.engine.program, plan, max_instr,
                             exec_tier=tier,
                             tracker_factory=self.engine
                             ._tracker_for_analysis,
                             warm_start=self.engine.warm_start)
                for plan in plans]


def reassemble(completions, n_shards: int
               ) -> Iterator[tuple[int, list]]:
    """Order an out-of-order ``(index, payload)`` stream by shard index.

    ``completions`` is any iterator of ``(index, payload)`` pairs (or
    raised exceptions); pairs are buffered until their index is next in
    line, so callers downstream always observe shard order.
    """
    buffered: dict[int, list] = {}
    next_index = 0
    for index, values in completions:
        buffered[index] = values
        while next_index in buffered:
            yield next_index, buffered.pop(next_index)
            next_index += 1
    if next_index != n_shards:  # pragma: no cover - backend bug guard
        missing = sorted(set(range(n_shards)) - set(range(next_index)))
        raise RuntimeError(f"backend lost shards {missing}")
