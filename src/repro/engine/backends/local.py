"""The default backend: the engine's original fork/spawn process pool.

Behavior-preserving extraction of the pool logic that used to live in
:class:`~repro.engine.core.ExecutionEngine`: one persistent
``multiprocessing.Pool`` per engine (fork children inherit the
engine's tracker — program, run settings and warmed golden trace —
copy-on-write), small shards run sequentially in-process
(``min_parallel``), and results are reassembled in task order.  Every
plan kind — campaign, recovery and traced-analysis plans — runs
through the one :meth:`~LocalPoolBackend.run_shards` path and the one
pool task, :func:`~repro.engine.worker.run_plans_task`.

New here: **worker-death detection**.  ``multiprocessing.Pool`` never
fails a task whose worker vanished (it silently respawns the worker
and the result simply never arrives), so a worker that calls
``os._exit`` mid-shard used to hang the campaign forever and then hang
``close()`` on the pool join.  The pool wait loop now polls worker
liveness: a dead or replaced worker raises :class:`EngineError`
naming the shard, the backend records ``failed_shard``, and
:meth:`close` tears the broken pool down with a bounded-time kill
instead of a join.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import warnings
import weakref
from typing import Iterator, Optional, Sequence

from repro.engine import worker as worker_mod
from repro.engine.backends.base import Backend
from repro.engine.errors import EngineError
from repro.vm.fault import FaultPlan

#: liveness-poll period while waiting on pool results
_POLL_S = 0.2
#: how long close() lets a broken pool try to terminate before
#: abandoning it to a daemon thread
_BROKEN_JOIN_S = 2.0


class LocalPoolBackend(Backend):
    """Persistent in-host process pool (the seed engine's substrate)."""

    name = "local"

    def __init__(self) -> None:
        super().__init__()
        self._pool = None
        self._pool_finalizer = None
        self._worker_pids: set = set()

    # ------------------------------------------------------------ pool
    def pool_for(self, n_tasks: int):
        """The shared pool, or ``None`` when ``n_tasks`` should run
        in-process (sequential engine, batch under ``min_parallel``)."""
        engine = self.engine
        if engine.workers <= 1 or n_tasks < engine.min_parallel:
            return None
        return self._ensure_pool()

    def _ensure_pool(self):
        """Create the persistent pool once; reused by every later call."""
        if self._pool is not None:
            return self._pool
        engine = self.engine
        tracker = engine.tracker
        if hasattr(os, "fork"):
            engine._warm_tracker()
            with worker_mod.fork_state(tracker):
                self._pool = mp.get_context("fork").Pool(engine.workers)
        else:  # pragma: no cover - no fork on this platform
            from repro.apps.base import REGISTRY
            if engine.program.name not in REGISTRY.names():
                warnings.warn(
                    f"program {engine.program.name!r} is not registered; "
                    "spawn workers cannot rebuild it — running "
                    "sequentially", RuntimeWarning, stacklevel=3)
                return None
            ctx = mp.get_context("spawn")
            self._pool = ctx.Pool(
                engine.workers, initializer=worker_mod.init_spawn_worker,
                initargs=(engine.program.name, engine.program.params,
                          tracker.exec_tier, tracker.warm_start))
        self._worker_pids = {w.pid for w in self._pool._pool}
        # an engine dropped without close() still terminates its
        # workers; the finalizer holds the pool, never the backend
        self._pool_finalizer = weakref.finalize(self, self._pool.terminate)
        engine.pool_starts += 1
        return self._pool

    @property
    def pool_alive(self) -> bool:
        return self._pool is not None

    def _check_workers_alive(self) -> None:
        """Raise if any pool worker died (or was silently respawned)."""
        procs = list(self._pool._pool)
        dead = [w for w in procs if not w.is_alive()]
        if dead:
            raise EngineError(
                f"pool worker pid={dead[0].pid} died "
                f"(exitcode {dead[0].exitcode}) mid-shard")
        if {w.pid for w in procs} != self._worker_pids:
            raise EngineError(
                "pool worker died mid-shard (pool respawned it; the "
                "shard's results are lost)")

    # ------------------------------------------------------------ shards
    def run_shards(self, shards: Sequence[Sequence[FaultPlan]],
                   max_instr: Optional[int]
                   ) -> Iterator[tuple[int, list[str]]]:
        for index, plans in enumerate(shards):
            try:
                yield index, self._execute(plans, max_instr)
            except EngineError as exc:
                self.failed_shard = index
                raise EngineError(f"shard {index} failed: {exc}") from exc

    def _execute(self, plans: Sequence[FaultPlan],
                 max_instr: Optional[int]) -> list[str]:
        """Run one shard, pool-parallel when worthwhile, in plan order."""
        pool = self.pool_for(len(plans))
        if pool is None:
            return self.run_sequential(plans, max_instr)
        chunk = max(1, -(-len(plans) // (self.engine.workers * 4)))
        tasks = [(j, max_instr, plans[j:j + chunk])
                 for j in range(0, len(plans), chunk)]
        parts: dict[int, list[str]] = {}
        it = pool.imap_unordered(worker_mod.run_plans_task, tasks)
        while len(parts) < len(tasks):
            try:
                j, values = it.next(timeout=_POLL_S)
            except mp.TimeoutError:
                self._check_workers_alive()
                continue
            parts[j] = values
        out: list[str] = []
        for j, _mi, _chunk in tasks:
            out.extend(parts[j])
        return out

    # ------------------------------------------------------------ teardown
    def close(self) -> None:
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        self._pool_finalizer.detach()
        if self.failed_shard is None:
            pool.terminate()
            pool.join()
        else:
            self._kill_broken_pool(pool)
        worker_mod.clear_parent_state()

    @staticmethod
    def _kill_broken_pool(pool) -> None:
        """Tear down a pool whose worker died, without risking a hang.

        ``Pool.terminate()`` first takes the task queue's read lock,
        and an idle worker waits in ``SimpleQueue.get()`` holding that
        lock, so a worker killed while idle leaves it held for good.
        The pool's worker handler is stopped first (no replacement
        worker can start, or take the lock, after that), the workers
        are killed and reaped, and the lock is then left free: no live
        process can hold it.  The pool's own teardown still runs on a
        daemon thread with a deadline, so anything else that wedges it
        is abandoned rather than hanging ``ExecutionEngine.close()``.
        """
        handler = pool._worker_handler
        handler._state = mp.pool.TERMINATE
        pool._change_notifier.put(None)
        handler.join(_BROKEN_JOIN_S)
        for proc in list(pool._pool):
            if proc.is_alive():
                proc.terminate()
        for proc in list(pool._pool):
            proc.join(_BROKEN_JOIN_S)
        if not handler.is_alive():
            rlock = pool._inqueue._rlock
            rlock.acquire(block=False)
            rlock.release()
        reaper = threading.Thread(target=pool.terminate, daemon=True)
        reaper.start()
        reaper.join(_BROKEN_JOIN_S)
        # a handler that outlived its deadline may have replaced the
        # workers killed above, and a wedged terminate() never reaches
        # its own worker sweep: kill the replacements too
        for proc in list(pool._pool):
            if proc.is_alive():
                proc.kill()
                proc.join(_BROKEN_JOIN_S)
