"""The ``repro registry`` process: membership + scheduler + job queue.

One :class:`ServiceDaemon` is the whole service control plane:

* **Registry** — shard servers join with ``register`` frames, stay
  live with ``heartbeat``, depart with ``leave``; clients resolve live
  hosts with ``resolve``.  Membership rules live in
  :class:`~repro.service.registry.HostRegistry`.
* **Job queue** — ``submit`` validates an
  :class:`~repro.api.specs.Experiment` payload strictly (a typo'd spec
  is rejected in-band with ``bad-spec``, never queued), ``jobs`` lists,
  ``watch`` streams :class:`~repro.engine.progress.ProgressEvent`
  images live, ``fetch`` returns the finished
  :class:`~repro.api.result.ExperimentResult` envelope.  The queue is
  JSONL-spilled (:class:`~repro.service.queue.JobQueue`), so a
  restarted daemon resumes with every submitted job intact.
* **Executor** — one background thread drains the queue FIFO, running
  each job through :func:`~repro.api.runner.run_experiment`.  Each
  app's tracker gets the job's seed and engine config, a
  registry-resolved :class:`~repro.engine.backends.remote.
  SocketBackend` (capacity-aware placement, quarantine, mid-run
  re-placement; with no live host it falls back to local execution, so
  an empty cluster degrades to a slower daemon instead of a dead one),
  and the program's golden artifacts from the process-wide cache keyed
  by program fingerprint (:mod:`repro.golden`) — so only the first job
  for a program pays for its golden run, capture replay and region
  analysis.  Each app's tracker is closed as soon as that app is done,
  failed or not, releasing its engine and backend.  Results are
  stored with provenance; the canonical image a client derives from
  ``fetch`` is byte-identical to a static ``--backend-addr`` run of
  the same spec.

Connection handling mirrors :class:`~repro.engine.backends.server.
ShardServer`: thread per connection, frames until EOF/``bye``, every
request gated by the ``pv``/``v`` version pair.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import asdict
from typing import Callable, Optional

from repro.engine.backends import protocol
from repro.service.queue import TERMINAL_STATES, JobQueue
from repro.service.registry import HostRegistry, RegistryError

#: TCP port ``repro registry`` listens on by default (shard servers'
#: DEFAULT_PORT is 7453; keeping them distinct lets one host run both)
DEFAULT_REGISTRY_PORT = 7460

_WATCH_POLL_S = 0.5
_EXECUTOR_POLL_S = 0.2


class ServiceDaemon:
    """Threaded TCP daemon hosting registry, scheduler inputs and queue."""

    def __init__(self, host: str = "127.0.0.1",
                 port: int = DEFAULT_REGISTRY_PORT, *,
                 spill_dir: Optional[str] = None, ttl: float = 10.0,
                 registry: Optional[HostRegistry] = None,
                 backend_factory: Optional[Callable[[], object]] = None,
                 store_dir: Optional[str] = None):
        self.registry = registry if registry is not None \
            else HostRegistry(ttl=ttl)
        self.queue = JobQueue(spill_dir)
        self._backend_factory = backend_factory
        # one cross-experiment profile store shared by every job this
        # daemon runs (the executor is a single thread, so no locking;
        # concurrent *daemons* on one store_dir are safe through the
        # store's append-only JSONL discipline)
        self.store = None
        if store_dir is not None:
            from repro.profiles import ResultStore
            self.store = ResultStore(store_dir)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._executor_thread: Optional[threading.Thread] = None
        self._conn_threads: list[threading.Thread] = []
        # observability for tests and ops logs
        self.connections = 0
        self.jobs_run = 0
        #: per-app golden lookups that found the program's bundle new
        #: to the process cache / already cached
        self.golden_built = 0
        self.golden_reused = 0

    # ------------------------------------------------------------ serving
    def serve_forever(self) -> None:
        """Blocking accept loop (the CLI entry point)."""
        self._start_executor()
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed by stop()
                return
            thread = threading.Thread(target=self._serve_client,
                                      args=(conn,), daemon=True)
            thread.start()
            self._conn_threads = [t for t in self._conn_threads
                                  if t.is_alive()]
            self._conn_threads.append(thread)

    def start(self) -> "ServiceDaemon":
        """Run the accept loop on a daemon thread (for tests)."""
        self._accept_thread = threading.Thread(target=self.serve_forever,
                                               daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        self._listener.close()
        with self.queue.changed:       # wake the executor and watchers
            self.queue.changed.notify_all()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if self._executor_thread is not None:
            self._executor_thread.join(timeout=30.0)
        for thread in self._conn_threads:
            thread.join(timeout=1.0)
        self.queue.close()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "ServiceDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------ executor
    def _start_executor(self) -> None:
        if self._executor_thread is None:
            self._executor_thread = threading.Thread(
                target=self._executor_loop, daemon=True)
            self._executor_thread.start()

    def _executor_loop(self) -> None:
        while not self._stopping.is_set():
            job = self.queue.claim()
            if job is None:
                with self.queue.changed:
                    self.queue.changed.wait(timeout=_EXECUTOR_POLL_S)
                continue
            self._run_job(job)

    def _make_backend(self):
        """Registry-resolved socket backend for one app's tracker."""
        if self._backend_factory is not None:
            return self._backend_factory()
        from repro.engine.backends import SocketBackend
        return SocketBackend(registry=self.registry)

    def _golden_for(self, program):
        """The process-wide golden bundle for one app's program."""
        from repro.golden import shared_golden
        golden, reused = shared_golden(program)
        if reused:
            self.golden_reused += 1
        else:
            self.golden_built += 1
        return golden

    def _run_job(self, job) -> None:
        from repro.api import Experiment, run_experiment
        self.jobs_run += 1
        try:
            experiment = Experiment.from_dict(job.spec)

            def on_progress(event):
                self.queue.record_event(job.id, asdict(event))

            # run_experiment closes each app's tracker (engine, pool,
            # backend sockets) as soon as that app is done, failed or not
            result = run_experiment(experiment, on_progress=on_progress,
                                    backend_factory=self._make_backend,
                                    golden_factory=self._golden_for,
                                    store=self.store)
            self.queue.finish(job.id, result.to_dict(provenance=True))
        except Exception as exc:  # job failures are data, not crashes
            self.queue.fail(job.id, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------ requests
    def _serve_client(self, conn: socket.socket) -> None:
        self.connections += 1
        try:
            while True:
                msg = protocol.recv_msg(conn)
                if msg is None or msg.get("op") == protocol.OP_BYE:
                    return
                rejection = protocol.check_service_versions(msg)
                if rejection is not None:
                    protocol.send_msg(conn, rejection)
                    return
                if msg.get("op") == protocol.OP_WATCH:
                    self._serve_watch(conn, msg)
                    return
                protocol.send_msg(conn, self._dispatch(msg))
        except (OSError, protocol.ProtocolError):
            pass  # client vanished; registry state is unaffected
        finally:
            conn.close()

    def _dispatch(self, msg: dict) -> dict:
        op = msg.get("op")
        handler = {
            protocol.OP_REGISTER: self._handle_register,
            protocol.OP_HEARTBEAT: self._handle_heartbeat,
            protocol.OP_LEAVE: self._handle_leave,
            protocol.OP_RESOLVE: self._handle_resolve,
            protocol.OP_SUBMIT: self._handle_submit,
            protocol.OP_JOBS: self._handle_jobs,
            protocol.OP_FETCH: self._handle_fetch,
        }.get(op)
        if handler is None:
            return {"op": protocol.OP_ERROR, "code": protocol.ERR_BAD_OP,
                    "error": f"unexpected op {op!r}"}
        return handler(msg)

    # ------------------------------------------------------------ membership
    def _handle_register(self, msg: dict) -> dict:
        try:
            record = self.registry.register(
                host=str(msg.get("host", "")), port=int(msg.get("port", 0)),
                fingerprint=str(msg.get("fp", "")),
                capacity=int(msg.get("capacity", 1)))
        except RegistryError as exc:
            return {"op": protocol.OP_REGISTERED, "ok": False,
                    "code": exc.code, "error": str(exc)}
        return {"op": protocol.OP_REGISTERED, "ok": True,
                "ttl": self.registry.ttl,
                "host": record.host, "port": record.port}

    def _handle_heartbeat(self, msg: dict) -> dict:
        known = self.registry.heartbeat(
            host=str(msg.get("host", "")), port=int(msg.get("port", 0)),
            inflight=int(msg.get("inflight", 0)))
        if not known:
            return {"op": protocol.OP_ACK, "ok": False,
                    "code": protocol.ERR_UNKNOWN_HOST,
                    "error": f"{msg.get('host')}:{msg.get('port')} is "
                             f"not registered (expired?); re-register"}
        return {"op": protocol.OP_ACK, "ok": True}

    def _handle_leave(self, msg: dict) -> dict:
        self.registry.leave(host=str(msg.get("host", "")),
                            port=int(msg.get("port", 0)))
        return {"op": protocol.OP_ACK, "ok": True}

    def _handle_resolve(self, msg: dict) -> dict:
        hosts = self.registry.resolve(str(msg.get("fp", "")))
        return {"op": protocol.OP_HOSTS,
                "hosts": [record.to_wire() for record in hosts]}

    # ------------------------------------------------------------ job queue
    def _handle_submit(self, msg: dict) -> dict:
        from repro.api import Experiment, SpecError
        from repro.apps import ALL_APPS
        payload = msg.get("spec")
        try:
            experiment = Experiment.from_dict(payload)
        except SpecError as exc:
            return {"op": protocol.OP_JOB, "ok": False,
                    "code": protocol.ERR_BAD_SPEC, "error": str(exc)}
        unknown = sorted(set(experiment.apps) - set(ALL_APPS))
        if unknown:
            return {"op": protocol.OP_JOB, "ok": False,
                    "code": protocol.ERR_BAD_SPEC,
                    "error": f"unknown app(s): {', '.join(unknown)}"}
        job = self.queue.submit(payload, name=experiment.name)
        return {"op": protocol.OP_JOB, "ok": True, "id": job.id,
                "state": job.state}

    def _handle_jobs(self, msg: dict) -> dict:
        return {"op": protocol.OP_JOBLIST,
                "jobs": [job.summary() for job in self.queue.jobs()]}

    def _handle_fetch(self, msg: dict) -> dict:
        job = self.queue.get(str(msg.get("id", "")))
        if job is None:
            return {"op": protocol.OP_ERROR,
                    "code": protocol.ERR_UNKNOWN_JOB,
                    "error": f"no job {msg.get('id')!r}"}
        if job.state == "failed":
            return {"op": protocol.OP_ERROR,
                    "code": protocol.ERR_JOB_FAILED,
                    "error": job.error or "job failed"}
        if job.state not in TERMINAL_STATES:
            return {"op": protocol.OP_ERROR,
                    "code": protocol.ERR_UNKNOWN_JOB,
                    "error": f"{job.id} is {job.state}; watch it or "
                             f"fetch again when done"}
        return {"op": protocol.OP_FETCHED, "id": job.id,
                "state": job.state, "result": job.result}

    def _serve_watch(self, conn: socket.socket, msg: dict) -> None:
        """Stream a job's events until it reaches a terminal state."""
        job = self.queue.get(str(msg.get("id", "")))
        if job is None:
            protocol.send_msg(conn, {
                "op": protocol.OP_ERROR,
                "code": protocol.ERR_UNKNOWN_JOB,
                "error": f"no job {msg.get('id')!r}"})
            return
        cursor = 0
        while True:
            with self.queue.changed:
                fresh = job.events[cursor:]
                state = job.state
                if not fresh and state not in TERMINAL_STATES:
                    if self._stopping.is_set():
                        return
                    self.queue.changed.wait(timeout=_WATCH_POLL_S)
                    continue
            for event in fresh:
                protocol.send_msg(conn, {"op": protocol.OP_EVENT,
                                         "id": job.id, "event": event})
            cursor += len(fresh)
            if state in TERMINAL_STATES:
                # events stop before the terminal transition (same
                # thread), so this capture was complete
                protocol.send_msg(conn, {
                    "op": protocol.OP_JOB, "ok": True, "id": job.id,
                    "state": state, "error": job.error})
                return
