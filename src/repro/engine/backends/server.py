"""TCP shard server: the remote end of the socket backend.

One server holds one built program and executes shard requests for any
number of clients.  Start it from the CLI —

.. code-block:: bash

    python -m repro serve kmeans --host 0.0.0.0 --port 7453

— it prints ``serving <app> fp=<fingerprint> on <host>:<port>`` once
the socket is listening (scripts can wait for that line), then accepts
connections until interrupted.  Each connection is handled on its own
thread: fingerprint handshake first (mismatches are rejected before
any shard runs), then a loop of request/reply frames, ``run`` ->
``result``, for shards of any plan kind — untraced campaign runs,
protected recovery runs and traced pattern analyses.

Recovery and analysis plans need a :class:`~repro.core.FlipTracker`
(golden trace, recovery context, region model, pattern detectors); the
server resolves one lazily on the first plan that needs it.  Its golden
side comes from the process-wide cache keyed by program fingerprint
(:mod:`repro.golden`), shared with every other shard server and the
registry daemon in the process, and the tracker itself is the bundle's
shared one — so a server that stops and rejoins (registry restart,
port move) adopts the previous incarnation's tracker, recovery context
and warm-start snapshot ladder instead of recomputing them.  The bundle
builds each artifact once under its own lock, so shards of every kind
execute concurrently on the shared tracker.

Tests (and embedders) use :meth:`ShardServer.start` /
:meth:`ShardServer.stop` to run the accept loop on a background
thread; ``port=0`` binds an ephemeral port exposed as ``.port``.

With ``registry=`` the server additionally **joins the service tier**
(:mod:`repro.service`): it registers its program fingerprint and
advertised capacity, heartbeats every ``heartbeat_interval`` seconds
carrying its in-flight shard count (the scheduler's load signal),
re-registers when the registry answers ``unknown-host`` (expiry or a
registry restart — join is idempotent), and sends ``leave`` on a clean
:meth:`stop`.  An unreachable registry never takes the server down:
the join loop just keeps retrying, and shard clients that hold direct
connections are unaffected.
"""

from __future__ import annotations

import contextlib
import socket
import threading

from repro.engine.backends import protocol
from repro.engine.backends.remote import DEFAULT_PORT
from repro.engine.keys import program_fingerprint
from repro.golden import GOLDEN_CACHE, shared_golden

_HEARTBEAT_INTERVAL_S = 2.0

#: the process-wide golden cache (:mod:`repro.golden`) under the name
#: ``perfbench/workloads.py`` clears it by; new code uses
#: ``repro.golden.GOLDEN_CACHE``
_TRACKER_CACHE = GOLDEN_CACHE


class ShardServer:
    """Threaded shard-protocol server for one built program."""

    def __init__(self, program, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, *,
                 registry=None, capacity: int = 1,
                 advertise_host: str | None = None,
                 heartbeat_interval: float = _HEARTBEAT_INTERVAL_S):
        self.program = program
        self.fingerprint = program_fingerprint(program)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()[:2]
        #: the (host, port) peers should dial — differs from the bind
        #: address when listening on 0.0.0.0 behind NAT or containers
        self.advertise = (advertise_host or self.host, self.port)
        self.capacity = capacity
        self.registry = registry
        self.heartbeat_interval = heartbeat_interval
        self._registry_client = None
        self._registry_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._tracker = None
        self._analysis_lock = threading.Lock()
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        #: True when _analysis_tracker found the program's golden bundle
        #: already in the process-wide cache (a rejoined server, or a
        #: daemon in the same process that ran a job for the program)
        self.tracker_reused = False
        # observability for tests and ops logs
        self.connections = 0
        self.rejected = 0
        self.shards_served = 0
        self.heartbeats = 0

    # ------------------------------------------------------------ registry
    def _registry_loop(self) -> None:
        """Join the registry, then heartbeat until stopped.

        Every iteration tolerates a dead or restarted registry: an
        ``unknown-host`` heartbeat answer (we expired, or the registry
        lost its state) falls through to a fresh register on the next
        pass, and transport errors are retried at the same cadence.
        """
        from repro.service.registry import RegistryClient, RegistryError
        client = RegistryClient(self.registry)
        self._registry_client = client
        registered = False
        while not self._stopping.is_set():
            try:
                if not registered:
                    client.register(host=self.advertise[0],
                                    port=self.advertise[1],
                                    fingerprint=self.fingerprint,
                                    capacity=self.capacity)
                    registered = True
                else:
                    with self._inflight_lock:
                        inflight = self._inflight
                    registered = client.heartbeat(
                        host=self.advertise[0], port=self.advertise[1],
                        inflight=inflight)
                    self.heartbeats += 1
            except RegistryError:
                # in-band rejection (e.g. another live server owns our
                # address under a different fingerprint): keep retrying
                # — once it leaves or expires, our register lands
                registered = False
            except (OSError, protocol.ProtocolError):
                registered = False  # registry down; rejoin when it's back
            self._stopping.wait(self.heartbeat_interval)

    def _start_registry(self) -> None:
        if self.registry is not None and self._registry_thread is None:
            self._registry_thread = threading.Thread(
                target=self._registry_loop, daemon=True)
            self._registry_thread.start()

    def _leave_registry(self) -> None:
        if self._registry_thread is not None:
            self._registry_thread.join(
                timeout=self.heartbeat_interval + 1.0)
        if self._registry_client is not None:
            try:
                self._registry_client.leave(host=self.advertise[0],
                                            port=self.advertise[1])
            except Exception:
                pass  # best-effort: expiry reclaims the record anyway

    # ------------------------------------------------------------ serving
    def serve_forever(self) -> None:
        """Blocking accept loop (the CLI entry point)."""
        self._start_registry()
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed by stop()
                return
            thread = threading.Thread(target=self._serve_client,
                                      args=(conn,), daemon=True)
            thread.start()
            # prune finished handlers so a long-lived server does not
            # accumulate one dead Thread per connection ever served
            self._conn_threads = [t for t in self._conn_threads
                                  if t.is_alive()]
            self._conn_threads.append(thread)

    def start(self) -> "ShardServer":
        """Run :meth:`serve_forever` on a daemon thread (for tests)."""
        self._accept_thread = threading.Thread(target=self.serve_forever,
                                               daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        self._leave_registry()
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for thread in self._conn_threads:
            thread.join(timeout=0.5)

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------ tracker
    def _analysis_tracker(self):
        """The server's FlipTracker: the cached golden bundle's own.

        ``_analysis_lock`` guards only its lazy creation.
        """
        with self._analysis_lock:
            if self._tracker is None:
                golden, self.tracker_reused = shared_golden(
                    self.program, self.fingerprint)
                self._tracker = golden.shared_tracker()
            return self._tracker

    # ------------------------------------------------------------ clients
    def _dispatch(self, msg: dict) -> dict:
        """One request frame -> its reply frame (op-switched).

        Counters are bumped *before* the reply frame goes out, so a
        client that just received a reply observes consistent counts.
        """
        op = msg.get("op")
        if op == protocol.OP_RUN:
            # recovery and analysis plans resolve the server's tracker;
            # its golden bundle builds each artifact once under its own
            # lock, so every plan kind executes concurrently
            with self._count_inflight():
                result = protocol.execute_request(
                    self.program, msg,
                    tracker_factory=self._analysis_tracker)
            self.shards_served += 1
            return result
        return {"op": protocol.OP_ERROR, "code": protocol.ERR_BAD_OP,
                "error": f"unexpected op {op!r}"}

    @contextlib.contextmanager
    def _count_inflight(self):
        """Track executing shards — the load the heartbeat advertises."""
        with self._inflight_lock:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _serve_client(self, conn: socket.socket) -> None:
        self.connections += 1
        try:
            accepted, reply = protocol.hello_reply(
                protocol.recv_msg(conn), self.fingerprint)
            if not accepted:
                self.rejected += 1
                if reply is not None:
                    protocol.send_msg(conn, reply)
                return
            protocol.send_msg(conn, reply)
            while True:
                msg = protocol.recv_msg(conn)
                if msg is None or msg.get("op") == protocol.OP_BYE:
                    return
                protocol.send_msg(conn, self._dispatch(msg))
        except (OSError, protocol.ProtocolError):
            pass  # client vanished; its backend handles the retry
        finally:
            conn.close()
