"""The backend seam: how a shard of fault plans gets executed.

:meth:`ExecutionEngine.run_plans` and
:meth:`ExecutionEngine.analyze_plans` own *what* runs (cache lookups,
shard boundaries, result assembly, progress, checkpointing) and a
:class:`Backend` owns *where* it runs.  The contract is deliberately
tiny so that scaling work — remote shards, batching —
is a new backend, not an engine rewrite:

* the engine hands over the pending shards (plan order, already
  deduplicated and — for campaigns — cache-filtered);
* the backend yields ``(shard_index, payload)`` pairs **in shard
  order**, whatever order the underlying substrate completed them in;
* for :meth:`Backend.run_shards` the payload is a list of
  manifestation strings, one per plan, in plan order;
* for :meth:`Backend.analyze_shards` (traced pattern analyses) the
  payload is a list of ``(manifestation, patterns)`` pairs in plan
  order, where ``patterns`` maps region name to a **sorted list** of
  pattern mnemonics — the canonical wire image, byte-stable across
  substrates.

Because the engine alone touches the :class:`~repro.engine.cache.
PlanCache` and assembles results by plan index, any backend that
honors this contract automatically inherits the determinism contract:
``workers=1`` and every backend are byte-identical — for campaigns
*and* for traced analyses.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.vm.fault import FaultPlan

#: manifestation values for one shard, in plan order
ShardValues = "list[str]"

#: traced results for one shard, in plan order:
#: ``[(manifestation, {region: [pattern, ...sorted]}), ...]``
ShardAnalyses = "list[tuple[str, dict[str, list[str]]]]"


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
        """Traced analyses for all shards -> ``(index, pairs)`` in order.

        ``pairs`` is one ``(manifestation, patterns)`` tuple per plan,
        in plan order, with ``patterns`` in the canonical sorted-list
        image (see :func:`~repro.engine.backends.protocol.
        encode_analysis`).  Same ordering contract as
        :meth:`run_shards`; the engine caches each plan's manifestation
        as a by-product so a later untraced campaign is free.
        """
        raise NotImplementedError

    def run_sequential(self, plans: Sequence[FaultPlan],
                       max_instr: Optional[int]) -> list[str]:
        """In-process reference execution (shared fallback path).

        Recovery plans resolve the engine's analysis tracker — the
        session needs the golden-trace recovery context, which is a
        pure function of the program, so this path stays byte-identical
        to every distributed substrate.
        """
        from repro.faults.campaign import execute_plan
        tier = self.engine.exec_tier
        return [execute_plan(self.engine.program, plan, max_instr,
                             exec_tier=tier,
                             tracker_factory=self.engine
                             ._tracker_for_analysis,
                             warm_start=self.engine.warm_start)
                for plan in plans]

    def analyze_sequential(self, plans: Sequence[FaultPlan],
                           max_instr: Optional[int]) -> list:
        """In-process reference traced analysis (shared fallback path).

        Uses the engine's tracker (building one if the engine was
        created standalone); the traced run's budget comes from the
        tracker itself, exactly as on a remote worker.
        """
        from repro.engine.backends import protocol
        tracker = self.engine._tracker_for_analysis()
        out = []
        for plan in plans:
            encoded = protocol.encode_analysis(
                tracker.analyze_injection(plan))
            out.append((encoded["m"], encoded["patterns"]))
        return out


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
