"""Socket backend: execute shards on remote shard servers over TCP.

The client side of the shard protocol (:mod:`.protocol`).  One or more
:class:`~repro.engine.backends.server.ShardServer` processes (started
with ``python -m repro serve <app>``, possibly on other hosts) each
hold their own build of the program; the backend:

* connects to every address and runs the **fingerprint handshake** —
  a server built from a different program (or params) is rejected
  with :class:`EngineError`, because its results would poison the
  content-addressed cache;
* if *no* server is reachable at all (connection refused), warns and
  **falls back** to the engine's :class:`LocalPoolBackend`, so a lost
  cluster degrades to a slower run instead of a dead one;
* fans shards out across the live connections from a shared work
  queue (worker failover: a shard stranded by one server is picked up
  by another);
* on a mid-shard disconnect, **retries the shard exactly once** —
  the failed connection attempts a single reconnect, and the shard
  re-enters the queue for whichever worker grabs it first; a second
  failure of the same shard is fatal (:class:`EngineError`), never a
  silent gap.

Addresses come from either of two sources:

* a **static list** (``--backend-addr``), connected once per session,
  one connection per address — the original PR-2 behavior; or
* a **registry** (``registry=``, see :mod:`repro.service`): the
  backend resolves the live hosts serving the engine's program
  fingerprint and opens capacity-aware connections per the
  scheduler's placement (:func:`~repro.service.scheduler.
  plan_placement`).  Resolution repeats at every dispatch, so servers
  that joined since the last shard group are picked up and hosts that
  expired are dropped.  A host that fails its single retry is
  **quarantined** for the rest of the backend session — the scheduler
  cannot re-pick it for the next shard group — and a host lost
  mid-dispatch is **re-placed**: the dying connection thread resolves
  a replacement host and carries on, so a killed server costs one
  retry, not the campaign.  With no live host at all the backend
  falls back to local execution exactly like an empty static list.

Every shard travels as one ``run`` frame, whatever its plans' kind —
untraced campaign runs, protected recovery runs and traced pattern
analyses share the handshake, retry, failover and fallback, so a
`region_patterns` sweep scales across shard servers exactly like a
campaign.

Completions arrive out of order across connections and are reassembled
into shard order before the engine sees them, preserving byte-parity
with ``workers=1`` — and with the static-address path: placement never
changes results, only where they were computed.
"""

from __future__ import annotations

import queue
import socket
import threading
import warnings
from typing import Iterator, Optional, Sequence

from repro.engine.backends import protocol
from repro.engine.backends.base import Backend, reassemble
from repro.engine.errors import EngineError
from repro.vm.fault import FaultPlan

#: default shard-server port (CLI ``serve`` / ``--backend-addr``)
DEFAULT_PORT = 7453

_CONNECT_TIMEOUT_S = 5.0
_RESULT_POLL_S = 0.2


def parse_addresses(spec) -> list[tuple[str, int]]:
    """``"host:port,host:port"`` (or pre-split pairs) -> address list."""
    if spec is None:
        return [("127.0.0.1", DEFAULT_PORT)]
    if isinstance(spec, str):
        parts = [p for p in spec.split(",") if p.strip()]
    else:
        parts = list(spec)
    addresses: list[tuple[str, int]] = []
    for part in parts:
        if isinstance(part, str):
            host, _, port = part.strip().rpartition(":")
            if not host:
                host, port = part.strip(), str(DEFAULT_PORT)
            addresses.append((host, int(port)))
        else:
            host, port = part
            addresses.append((str(host), int(port)))
    if not addresses:
        raise ValueError(f"no shard-server addresses in {spec!r}")
    return addresses


class _Connection:
    """One live, handshaken link to a shard server."""

    def __init__(self, address: tuple[str, int], fingerprint: str):
        self.address = address
        self.fingerprint = fingerprint
        self.sock = socket.create_connection(address,
                                             timeout=_CONNECT_TIMEOUT_S)
        self.sock.settimeout(None)
        try:
            protocol.client_hello(self.sock, fingerprint)
        except Exception:
            self.sock.close()
            raise

    def run_shard(self, index: int, plans: Sequence[FaultPlan],
                  max_instr: Optional[int]) -> list[str]:
        """Round-trip one ``run`` frame -> validated values, plan order."""
        protocol.send_msg(self.sock,
                          protocol.run_request(index, plans, max_instr))
        reply = protocol.recv_msg(self.sock)
        if reply is None:
            raise protocol.ProtocolError("server closed mid-shard")
        if reply.get("op") != protocol.OP_RESULT:
            raise EngineError(f"shard {index}: server replied "
                              f"{reply.get('error', reply)!r}")
        return protocol.decode_run_values(reply, plans)

    def close(self) -> None:
        try:
            protocol.send_msg(self.sock, {"op": protocol.OP_BYE})
        except OSError:
            pass
        self.sock.close()


class SocketBackend(Backend):
    """TCP shard client with handshake, retry, failover and fallback.

    ``addresses`` is the static host list; ``registry`` (an address
    spec or any object with a ``resolve(fingerprint)`` method, e.g. a
    :class:`~repro.service.registry.HostRegistry` in-process or a
    :class:`~repro.service.registry.RegistryClient` over the wire)
    switches the backend to registry-resolved, capacity-aware
    placement.  The two are mutually exclusive.
    """

    name = "socket"

    def __init__(self, addresses=None, *, fallback: bool = True,
                 registry=None):
        super().__init__()
        if registry is not None and addresses is not None:
            raise ValueError("pass either a static address list or a "
                             "registry, not both")
        self.registry = registry
        self.addresses = [] if registry is not None \
            else parse_addresses(addresses)
        self.fallback = fallback
        self._connections: list[_Connection] = []
        self._fallback_backend: Optional[Backend] = None
        self._started = False
        #: hosts that failed their single retry this session; the
        #: scheduler must not re-pick them for a later shard group
        self._quarantined: set[tuple[str, int]] = set()
        self._conn_lock = threading.Lock()

    # ------------------------------------------------------------ lifecycle
    def _resolver(self):
        """The live-host resolver behind ``registry`` (lazy client)."""
        if hasattr(self.registry, "resolve"):
            return self.registry
        from repro.service.registry import RegistryClient
        self.registry = RegistryClient(self.registry)
        return self.registry

    def _ensure_started(self, n_shards: Optional[int] = None) -> None:
        """Connect + handshake; decide fallback; lazy on first use.

        Static addresses connect once per session.  A registry is
        re-resolved at *every* dispatch (dynamic membership): newly
        joined hosts gain connections, quarantined hosts are skipped,
        and the capacity-aware placement is sized by this dispatch's
        shard count.
        """
        first = not self._started
        self._started = True
        if self._fallback_backend is not None:
            return
        if self.registry is not None:
            self._connect_registry(n_shards)
        elif first:
            refused: list[str] = []
            for address in self.addresses:
                try:
                    self._connections.append(
                        _Connection(address, self.engine.program_fp))
                except protocol.ProtocolError as exc:
                    # the server answered and said no (fingerprint/
                    # version mismatch): running locally would mask a
                    # real bug
                    self._close_connections()
                    raise EngineError(
                        f"shard server {address[0]}:{address[1]} "
                        f"rejected handshake: {exc}") from exc
                except OSError as exc:
                    refused.append(f"{address[0]}:{address[1]} ({exc})")
            if not self._connections:
                self._enter_fallback("; ".join(refused))

    def _connect_registry(self, n_shards: Optional[int]) -> None:
        """Reconcile connections with the scheduler's placement.

        Hosts that left the placement since the last dispatch —
        expired, departed, or quarantined — are disconnected; placed
        hosts are topped up to their connection count.
        """
        from repro.service.scheduler import plan_placement
        try:
            hosts = self._resolver().resolve(self.engine.program_fp)
        except (OSError, protocol.ProtocolError) as exc:
            hosts = []
            detail = f"registry unreachable ({exc})"
        else:
            detail = "registry has no live host for this program"
        placements = plan_placement(hosts, n_shards,
                                    exclude=sorted(self._quarantined))
        placed = {p.address for p in placements}
        with self._conn_lock:
            stale = [c for c in self._connections
                     if c.address not in placed]
            self._connections = [c for c in self._connections
                                 if c.address in placed]
            have: dict[tuple[str, int], int] = {}
            for conn in self._connections:
                have[conn.address] = have.get(conn.address, 0) + 1
        for conn in stale:
            conn.close()
        for placement in placements:
            missing = placement.connections \
                - have.get(placement.address, 0)
            for _ in range(missing):
                conn = self._connect_host(placement.address)
                if conn is None:
                    break  # stale registry entry, now quarantined
                with self._conn_lock:
                    self._connections.append(conn)
        if not self._connections:
            self._enter_fallback(detail)

    def _connect_host(self,
                      address: tuple[str, int]) -> Optional[_Connection]:
        """One registry-placed connection; quarantine on refusal."""
        try:
            return _Connection(address, self.engine.program_fp)
        except protocol.ProtocolError as exc:
            # an answering server that rejects the handshake is a hard
            # error, registry-resolved or not: it would poison the cache
            self._close_connections()
            raise EngineError(
                f"shard server {address[0]}:{address[1]} rejected "
                f"handshake: {exc}") from exc
        except OSError:
            # the registry believes in this host but nothing answers
            # (crashed between heartbeats): quarantine it so neither
            # this nor a later shard group re-picks it before it
            # re-registers through a live process
            self._quarantined.add(address)
            return None

    def _enter_fallback(self, reason: str) -> None:
        if not self.fallback:
            raise EngineError(f"no shard server reachable: {reason}")
        warnings.warn(
            f"no shard server reachable ({reason}); falling back to "
            f"LocalPoolBackend", RuntimeWarning, stacklevel=6)
        self._fallback_backend = self.engine.local_backend

    def close(self) -> None:
        self._close_connections()
        # a pre-built instance may be handed to a fresh engine later:
        # reconnect (re-resolve, re-decide fallback) on next use —
        # quarantine is per-session, so a recovered host is eligible
        # again after close()
        self._started = False
        self._fallback_backend = None
        self._quarantined.clear()

    def _close_connections(self) -> None:
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            conn.close()

    # ------------------------------------------------------------ shards
    def run_shards(self, shards: Sequence[Sequence[FaultPlan]],
                   max_instr: Optional[int]
                   ) -> Iterator[tuple[int, list[str]]]:
        if not shards:
            return
        self._ensure_started(len(shards))
        if self._fallback_backend is not None:
            yield from self._fallback_backend.run_shards(shards, max_instr)
            return
        pending: queue.Queue = queue.Queue()
        for index, plans in enumerate(shards):
            pending.put((index, plans, 0))
        results: queue.Queue = queue.Queue()
        stop = threading.Event()
        with self._conn_lock:
            connections = list(self._connections)
        threads = [threading.Thread(
            target=self._serve_connection,
            args=(conn, pending, results, stop, max_instr),
            daemon=True)
            for conn in connections]
        for thread in threads:
            thread.start()
        try:
            yield from reassemble(
                self._collect(results, threads, len(shards)), len(shards))
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def _collect(self, results: queue.Queue, threads, n_shards: int):
        done = 0
        while done < n_shards:
            try:
                item = results.get(timeout=_RESULT_POLL_S)
            except queue.Empty:
                if not any(t.is_alive() for t in threads):
                    raise EngineError(
                        f"all shard servers lost with "
                        f"{n_shards - done} shard(s) unfinished")
                continue
            if isinstance(item, BaseException):
                raise item
            yield item
            done += 1

    def _serve_connection(self, conn: _Connection, pending: queue.Queue,
                          results: queue.Queue, stop: threading.Event,
                          max_instr: Optional[int]) -> None:
        """Connection-thread body: pull shards until done or dead."""
        while not stop.is_set():
            try:
                index, plans, attempt = pending.get(timeout=_RESULT_POLL_S)
            except queue.Empty:
                continue
            try:
                results.put((index, conn.run_shard(index, plans,
                                                   max_instr)))
            except (OSError, protocol.ProtocolError) as exc:
                if attempt == 0:
                    # exactly-once retry: hand the shard back for any
                    # live connection (failover) — including this one,
                    # if its single reconnect attempt succeeds
                    pending.put((index, plans, 1))
                else:
                    self.failed_shard = index
                    results.put(EngineError(
                        f"shard {index} failed twice on shard servers "
                        f"(last: {conn.address[0]}:{conn.address[1]}: "
                        f"{exc})"))
                    return
                conn = self._reconnect(conn)
                if conn is None:
                    return  # this worker is gone; others may survive
            except EngineError as exc:
                self.failed_shard = index
                results.put(exc)
                return

    def _reconnect(self, dead: _Connection) -> Optional[_Connection]:
        """One reconnect attempt for a failed connection.

        When the host does not come back it is quarantined for the
        rest of this backend session — without this, a registry that
        still lists the host (heartbeat not yet expired) would hand it
        straight back to the scheduler on the next shard group, and
        the next dispatch would burn its retries on the same corpse.
        With a registry configured the thread then **re-places**
        itself: it resolves a replacement host (excluding quarantined
        and already-connected addresses) and keeps pulling shards, so
        losing a server mid-campaign costs one retry, not a worker.
        """
        try:
            dead.sock.close()
        except OSError:
            pass
        with self._conn_lock:
            if dead in self._connections:
                self._connections.remove(dead)
        try:
            conn = _Connection(dead.address, dead.fingerprint)
        except (OSError, protocol.ProtocolError):
            self._quarantined.add(dead.address)
            conn = self._replacement_connection()
            if conn is None:
                return None
        with self._conn_lock:
            self._connections.append(conn)
        return conn

    def _replacement_connection(self) -> Optional[_Connection]:
        """Registry re-placement for a thread that lost its host."""
        if self.registry is None:
            return None
        from repro.service.scheduler import plan_placement
        try:
            hosts = self._resolver().resolve(self.engine.program_fp)
        except (OSError, protocol.ProtocolError):
            return None  # registry gone too; other threads may survive
        with self._conn_lock:
            exclude = self._quarantined | \
                {conn.address for conn in self._connections}
        for placement in plan_placement(hosts, 1, exclude=sorted(exclude)):
            try:
                return _Connection(placement.address,
                                   self.engine.program_fp)
            except (OSError, protocol.ProtocolError):
                self._quarantined.add(placement.address)
        return None
