"""Service tier: registry liveness, scheduler placement, queue, daemon.

Covers the ``repro.service`` control plane end to end:

* ``HostRegistry`` liveness rules under an injectable clock —
  heartbeat expiry, leave-then-rejoin under the same fingerprint,
  fingerprint-mismatch rejection at REGISTER;
* ``plan_placement`` — least-loaded ordering, capacity sizing, shard
  budget, quarantine exclusion;
* ``JobQueue`` — lifecycle, JSONL spill, restart replay (including
  the running->queued requeue);
* ``SocketBackend`` in registry mode — capacity-aware connections,
  re-resolution per dispatch, re-placement when a host expires
  mid-campaign (byte-parity with the uninterrupted run), quarantine
  of hosts that failed their retry;
* ``ShardServer --registry`` — dynamic join, heartbeats, re-register
  after the registry forgets us, leave on stop;
* ``ServiceDaemon`` — wire membership ops, version gating, job
  submit/watch/fetch, spill-dir restart recovery, and canonical-
  envelope byte-parity between a queued job and a local run;
* the process-wide golden cache (``repro.golden``) — jobs and shard
  servers share one bundle per program fingerprint, a plain
  ``FlipTracker`` never reads it, and a failed job releases every
  tracker it opened.
"""

import json
import socket
import threading
import time
import warnings

import pytest

from helpers import assert_canonical_match, small_experiment_payload
from test_engine import loop_instance, tiny_program

from repro.core import FlipTracker
from repro.engine import EngineError, ExecutionEngine
from repro.engine.backends import (LocalPoolBackend, ShardServer,
                                    SocketBackend, protocol)
from repro.service import (DEFAULT_REGISTRY_PORT, HostRecord,
                           HostRegistry, JobQueue, Placement,
                           RegistryClient, RegistryError, ServiceDaemon,
                           plan_placement)


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------- registry
class TestHostRegistry:
    def test_register_and_resolve(self):
        reg = HostRegistry(ttl=10.0, clock=FakeClock())
        reg.register("a", 1, "fp", capacity=3)
        (rec,) = reg.resolve("fp")
        assert rec.address == ("a", 1) and rec.capacity == 3
        assert reg.resolve("other-fp") == []

    def test_heartbeat_expiry(self):
        clock = FakeClock()
        reg = HostRegistry(ttl=10.0, clock=clock)
        reg.register("a", 1, "fp")
        clock.advance(9.0)
        assert reg.heartbeat("a", 1) is True      # refreshed in time
        clock.advance(10.5)                        # > ttl since refresh
        assert reg.live_hosts() == []
        assert reg.expirations == 1
        # an expired host's heartbeat answers "unknown": re-register
        assert reg.heartbeat("a", 1) is False
        reg.register("a", 1, "fp")
        assert len(reg.live_hosts()) == 1

    def test_heartbeat_keeps_alive_past_ttl(self):
        clock = FakeClock()
        reg = HostRegistry(ttl=1.0, clock=clock)
        reg.register("a", 1, "fp")
        for _ in range(5):
            clock.advance(0.9)
            assert reg.heartbeat("a", 1, inflight=2) is True
        (rec,) = reg.live_hosts()
        assert rec.inflight == 2

    def test_leave_then_rejoin_same_fingerprint(self):
        reg = HostRegistry(ttl=10.0, clock=FakeClock())
        reg.register("a", 1, "fp")
        assert reg.leave("a", 1) is True
        assert reg.live_hosts() == []
        reg.register("a", 1, "fp")          # rolling restart: fine
        assert len(reg.live_hosts()) == 1
        assert reg.leave("nope", 9) is False

    def test_fingerprint_mismatch_rejected_while_live(self):
        reg = HostRegistry(ttl=10.0, clock=FakeClock())
        reg.register("a", 1, "fp-one")
        with pytest.raises(RegistryError) as err:
            reg.register("a", 1, "fp-two")
        assert err.value.code == protocol.ERR_FINGERPRINT
        assert reg.rejections == 1
        # the live registration is untouched by the rejected attempt
        (rec,) = reg.live_hosts()
        assert rec.fingerprint == "fp-one"
        # after leave, the new fingerprint is admissible
        reg.leave("a", 1)
        reg.register("a", 1, "fp-two")
        assert reg.live_hosts()[0].fingerprint == "fp-two"

    def test_expired_host_may_rejoin_with_new_fingerprint(self):
        clock = FakeClock()
        reg = HostRegistry(ttl=1.0, clock=clock)
        reg.register("a", 1, "fp-one")
        clock.advance(2.0)
        reg.register("a", 1, "fp-two")      # old record expired: fine
        assert reg.live_hosts()[0].fingerprint == "fp-two"

    def test_same_fingerprint_reregister_refreshes(self):
        clock = FakeClock()
        reg = HostRegistry(ttl=10.0, clock=clock)
        reg.register("a", 1, "fp", capacity=1)
        clock.advance(9.0)
        reg.register("a", 1, "fp", capacity=4)   # idempotent join
        clock.advance(9.0)                        # < ttl since refresh
        (rec,) = reg.live_hosts()
        assert rec.capacity == 4

    def test_bad_inputs(self):
        reg = HostRegistry(ttl=10.0, clock=FakeClock())
        with pytest.raises(RegistryError):
            reg.register("a", 1, "fp", capacity=0)
        with pytest.raises(ValueError):
            HostRegistry(ttl=0)


# --------------------------------------------------------------- scheduler
class TestScheduler:
    def rec(self, host, port, capacity=1, inflight=0):
        return HostRecord(host=host, port=port, fingerprint="fp",
                          capacity=capacity, inflight=inflight)

    def test_least_loaded_first_then_address(self):
        hosts = [self.rec("b", 1, capacity=2, inflight=2),
                 self.rec("a", 1, capacity=2, inflight=0),
                 self.rec("c", 1, capacity=2, inflight=0)]
        order = [p.address for p in plan_placement(hosts)]
        assert order == [("a", 1), ("c", 1), ("b", 1)]

    def test_capacity_sizes_connections(self):
        hosts = [self.rec("a", 1, capacity=3), self.rec("b", 1)]
        placements = plan_placement(hosts, n_shards=16)
        assert [(p.address, p.connections) for p in placements] == \
            [(("a", 1), 3), (("b", 1), 1)]

    def test_shard_budget_caps_total(self):
        hosts = [self.rec("a", 1, capacity=4),
                 self.rec("b", 1, capacity=4)]
        placements = plan_placement(hosts, n_shards=5)
        assert [p.connections for p in placements] == [4, 1]
        # a 1-shard dispatch opens exactly one connection
        assert [p.connections for p in plan_placement(hosts, 1)] == [1]

    def test_exclude_drops_quarantined(self):
        hosts = [self.rec("a", 1), self.rec("b", 1)]
        placements = plan_placement(hosts, exclude=[("a", 1)])
        assert [p.address for p in placements] == [("b", 1)]
        assert plan_placement(hosts,
                              exclude=[("a", 1), ("b", 1)]) == []

    def test_empty_hosts(self):
        assert plan_placement([]) == []

    def test_placement_validates(self):
        with pytest.raises(ValueError):
            Placement(address=("a", 1), connections=0)


# --------------------------------------------------------------- job queue
class TestJobQueue:
    def test_lifecycle_in_memory(self):
        q = JobQueue()
        job = q.submit({"name": "x"}, name="x")
        assert job.id == "job-000001" and job.state == "queued"
        assert q.claim() is job and job.state == "running"
        assert q.claim() is None
        q.record_event(job.id, {"phase": "run"})
        q.finish(job.id, {"ok": 1})
        assert job.state == "done" and job.result == {"ok": 1}
        assert job.events == [{"phase": "run"}]
        assert [j.id for j in q.jobs()] == [job.id]

    def test_fifo_claim_order(self):
        q = JobQueue()
        first = q.submit({}, name="first")
        q.submit({}, name="second")
        assert q.claim() is first

    def test_spill_and_replay(self, tmp_path):
        spill = str(tmp_path / "svc")
        q = JobQueue(spill)
        done = q.submit({"s": 1}, name="done-job")
        q.claim()
        q.finish(done.id, {"answer": 42})
        failed = q.submit({"s": 2}, name="failed-job")
        q.claim()
        q.fail(failed.id, "boom")
        stuck = q.submit({"s": 3}, name="stuck-job")
        q.claim()                          # running when the daemon dies
        q.close()

        revived = JobQueue(spill)
        assert revived.get(done.id).state == "done"
        assert revived.get(done.id).result == {"answer": 42}
        assert revived.get(failed.id).state == "failed"
        assert revived.get(failed.id).error == "boom"
        # the job caught running is requeued (idempotent execution)
        assert revived.get(stuck.id).state == "queued"
        assert revived.get(stuck.id).spec == {"s": 3}
        # ids continue past the replayed ones
        assert revived.submit({}).id == "job-000004"
        revived.close()

    def test_replay_requeue_survives_second_restart(self, tmp_path):
        spill = str(tmp_path / "svc")
        q = JobQueue(spill)
        job = q.submit({}, name="j")
        q.claim()
        q.close()
        mid = JobQueue(spill)               # requeued, never claimed
        assert mid.get(job.id).state == "queued"
        mid.close()
        again = JobQueue(spill)
        assert again.get(job.id).state == "queued"
        again.close()


# --------------------------------------- registry-resolved socket backend
def sequential_outcome(prog, plans, max_instr):
    with ExecutionEngine(prog) as eng:
        r = eng.run_plans(plans, max_instr=max_instr)
    return (r.success, r.failed, r.crashed)


def make_plans(n=24):
    prog = tiny_program()
    ft = FlipTracker(prog, workers=1)
    inst = loop_instance(ft)
    plans = ft.make_plans(inst, "internal", n)
    budget = ft.faulty_budget
    ft.close()
    return prog, plans, budget


class StaticResolver:
    """An in-test registry: returns a scripted sequence of host lists."""

    def __init__(self, *snapshots):
        self.snapshots = list(snapshots)
        self.calls = 0

    def resolve(self, fingerprint):
        self.calls += 1
        index = min(self.calls - 1, len(self.snapshots) - 1)
        return [HostRecord(host=h, port=p, fingerprint=fingerprint,
                           capacity=c)
                for h, p, c in self.snapshots[index]]


class DyingServer(ShardServer):
    """Serves the handshake, then kills the whole server on the first
    shard request — the client's reconnect is refused, forcing
    quarantine + registry re-placement."""

    def _serve_client(self, conn):
        try:
            accepted, reply = protocol.hello_reply(
                protocol.recv_msg(conn), self.fingerprint)
            protocol.send_msg(conn, reply)
            protocol.recv_msg(conn)          # the doomed shard request
        except (OSError, protocol.ProtocolError):
            pass
        finally:
            # die in-thread (stop() would join ourselves): listener
            # first, so the client's reconnect is refused by the time
            # it observes the EOF below
            self._stopping.set()
            self._listener.close()
            conn.close()


class TestRegistryBackend:
    def test_registry_placement_matches_sequential(self):
        prog, plans, budget = make_plans()
        expected = sequential_outcome(prog, plans, budget)
        clock = FakeClock()
        reg = HostRegistry(ttl=60.0, clock=clock)
        with ShardServer(prog, port=0) as a, ShardServer(prog, port=0) as b:
            a.start(), b.start()
            for srv in (a, b):
                reg.register(srv.host, srv.port, srv.fingerprint,
                             capacity=2)
            with ExecutionEngine(prog, backend="socket", registry=reg,
                                 shard_size=4) as eng:
                r = eng.run_plans(plans, max_instr=budget)
                assert (r.success, r.failed, r.crashed) == expected
                assert isinstance(eng.backend, SocketBackend)
                connections = [conn.address
                               for conn in eng.backend._connections]
            # capacity-aware: 6 shards, two capacity-2 hosts -> two
            # connections to each
            assert sorted(set(connections)) == \
                sorted([(a.host, a.port), (b.host, b.port)])
            assert len(connections) == 4
            assert a.shards_served + b.shards_served > 0

    def test_registry_implies_socket_backend(self):
        prog, _plans, _budget = make_plans(2)
        reg = HostRegistry(ttl=60.0, clock=FakeClock())
        with ExecutionEngine(prog, registry=reg) as eng:
            assert isinstance(eng.backend, SocketBackend)

    def test_static_and_registry_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            SocketBackend("127.0.0.1:1", registry=object())

    def test_empty_registry_falls_back_to_local(self):
        prog, plans, budget = make_plans(6)
        expected = sequential_outcome(prog, plans, budget)
        reg = HostRegistry(ttl=60.0, clock=FakeClock())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ExecutionEngine(prog, backend="socket",
                                 registry=reg) as eng:
                r = eng.run_plans(plans, max_instr=budget)
        assert (r.success, r.failed, r.crashed) == expected
        assert any("falling back to LocalPoolBackend" in str(w.message)
                   for w in caught)

    def test_unreachable_registry_falls_back_to_local(self):
        prog, plans, budget = make_plans(6)
        expected = sequential_outcome(prog, plans, budget)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ExecutionEngine(
                    prog, backend="socket",
                    registry=f"127.0.0.1:{free_port()}") as eng:
                r = eng.run_plans(plans, max_instr=budget)
        assert (r.success, r.failed, r.crashed) == expected
        assert any("registry unreachable" in str(w.message)
                   for w in caught)

    def test_expired_host_replaced_between_dispatches(self):
        """A host that expires mid-campaign drops out at the next
        dispatch; the survivor serves it — byte-parity throughout."""
        prog, plans, budget = make_plans(24)
        first, second = plans[:12], plans[12:]
        exp_first = sequential_outcome(prog, first, budget)
        exp_second = sequential_outcome(prog, second, budget)
        clock = FakeClock()
        reg = HostRegistry(ttl=10.0, clock=clock)
        with ShardServer(prog, port=0) as a, ShardServer(prog, port=0) as b:
            a.start(), b.start()
            reg.register(a.host, a.port, a.fingerprint)
            reg.register(b.host, b.port, b.fingerprint)
            with ExecutionEngine(prog, backend="socket", registry=reg,
                                 shard_size=4) as eng:
                r1 = eng.run_plans(first, max_instr=budget)
                assert (r1.success, r1.failed, r1.crashed) == exp_first
                # host A expires (b alone heartbeats in time)
                clock.advance(8.0)
                reg.heartbeat(b.host, b.port)
                clock.advance(8.0)
                a.stop()
                assert [rec.address for rec in reg.live_hosts()] == \
                    [(b.host, b.port)]
                r2 = eng.run_plans(second, max_instr=budget)
                assert (r2.success, r2.failed, r2.crashed) == exp_second
                assert all(conn.address == (b.host, b.port)
                           for conn in eng.backend._connections)

    def test_host_killed_mid_dispatch_is_replaced_and_quarantined(self):
        """The tentpole failure path: the only placed host dies on its
        first shard; the thread quarantines it, re-resolves, and the
        replacement host finishes the campaign — results identical."""
        prog, plans, budget = make_plans(12)
        expected = sequential_outcome(prog, plans, budget)
        dying = DyingServer(prog, port=0)
        dying.start()
        with ShardServer(prog, port=0) as healthy:
            healthy.start()
            resolver = StaticResolver(
                [(dying.host, dying.port, 1)],          # first resolve
                [(dying.host, dying.port, 1),           # re-placement
                 (healthy.host, healthy.port, 1)])
            with ExecutionEngine(prog, backend="socket",
                                 registry=resolver,
                                 shard_size=4) as eng:
                r = eng.run_plans(plans, max_instr=budget)
                assert (r.success, r.failed, r.crashed) == expected
                backend = eng.backend
                assert (dying.host, dying.port) in backend._quarantined
                assert {conn.address for conn in backend._connections} \
                    == {(healthy.host, healthy.port)}
            assert healthy.shards_served >= 3

    def test_quarantined_host_not_repicked_next_dispatch(self):
        """After failing its retry, a host stays excluded from later
        shard groups even though the registry still lists it."""
        prog, plans, budget = make_plans(16)
        first, second = plans[:8], plans[8:]
        exp_first = sequential_outcome(prog, first, budget)
        exp_second = sequential_outcome(prog, second, budget)
        dying = DyingServer(prog, port=0)
        dying.start()
        with ShardServer(prog, port=0) as healthy:
            healthy.start()
            # only the doomed host is placed at first (so it is
            # guaranteed to take a shard and fail); from then on the
            # registry keeps listing it forever alongside the healthy
            # one — quarantine must win over the listing
            resolver = StaticResolver(
                [(dying.host, dying.port, 1)],
                [(dying.host, dying.port, 1),
                 (healthy.host, healthy.port, 1)])
            with ExecutionEngine(prog, backend="socket",
                                 registry=resolver,
                                 shard_size=4) as eng:
                r1 = eng.run_plans(first, max_instr=budget)
                assert (r1.success, r1.failed, r1.crashed) == exp_first
                backend = eng.backend
                assert (dying.host, dying.port) in backend._quarantined
                before = resolver.calls
                r2 = eng.run_plans(second, max_instr=budget)
                assert (r2.success, r2.failed, r2.crashed) == exp_second
                assert resolver.calls > before  # re-resolved, and yet:
                assert {conn.address for conn in backend._connections} \
                    == {(healthy.host, healthy.port)}
            # close() ends the session: quarantine is cleared
            assert backend._quarantined == set()


# -------------------------------------------------------- server joining
class TestShardServerJoin:
    def test_join_heartbeat_leave(self):
        prog = tiny_program()
        with ServiceDaemon(port=0, ttl=5.0) as daemon:
            daemon.start()
            server = ShardServer(
                prog, port=0,
                registry=f"127.0.0.1:{daemon.port}",
                capacity=3, heartbeat_interval=0.05)
            server.start()
            assert wait_until(lambda: daemon.registry.live_hosts())
            (rec,) = daemon.registry.live_hosts()
            assert rec.address == (server.host, server.port)
            assert rec.fingerprint == server.fingerprint
            assert rec.capacity == 3
            assert wait_until(lambda: server.heartbeats > 0)
            server.stop()                   # leaves on the way out
            assert wait_until(lambda: not daemon.registry.live_hosts())

    def test_reregisters_after_registry_forgets(self):
        prog = tiny_program()
        with ServiceDaemon(port=0, ttl=5.0) as daemon:
            daemon.start()
            server = ShardServer(
                prog, port=0,
                registry=f"127.0.0.1:{daemon.port}",
                heartbeat_interval=0.05)
            server.start()
            try:
                assert wait_until(lambda: daemon.registry.live_hosts())
                # simulate expiry/registry restart: drop the record
                daemon.registry.leave(server.host, server.port)
                # the next heartbeat answers unknown-host; the server
                # re-registers on the pass after that
                assert wait_until(lambda: daemon.registry.live_hosts())
            finally:
                server.stop()


# ----------------------------------------------------------------- daemon
class TestDaemonWire:
    def test_membership_ops_over_the_wire(self):
        with ServiceDaemon(port=0, ttl=30.0) as daemon:
            daemon.start()
            client = RegistryClient(f"127.0.0.1:{daemon.port}")
            reply = client.register("w1", 7001, "fp", capacity=2)
            assert reply["ok"] is True and reply["ttl"] == 30.0
            assert client.heartbeat("w1", 7001, inflight=1) is True
            (rec,) = client.resolve("fp")
            assert rec.address == ("w1", 7001)
            assert rec.capacity == 2 and rec.inflight == 1
            assert client.resolve("nope") == []
            client.leave("w1", 7001)
            assert client.resolve("fp") == []
            # heartbeat after leave: unknown -> False (re-register cue)
            assert client.heartbeat("w1", 7001) is False

    def test_fingerprint_conflict_rejected_in_band(self):
        with ServiceDaemon(port=0) as daemon:
            daemon.start()
            client = RegistryClient(f"127.0.0.1:{daemon.port}")
            client.register("w1", 7001, "fp-one")
            with pytest.raises(RegistryError) as err:
                client.register("w1", 7001, "fp-two")
            assert err.value.code == protocol.ERR_FINGERPRINT

    def test_version_gate_on_service_frames(self):
        with ServiceDaemon(port=0) as daemon:
            daemon.start()
            sock = socket.create_connection(("127.0.0.1", daemon.port),
                                            timeout=5.0)
            try:
                frame = protocol.service_request(protocol.OP_RESOLVE,
                                                 fp="fp")
                frame["pv"] = protocol.PROTOCOL_VERSION + 1
                protocol.send_msg(sock, frame)
                reply = protocol.recv_msg(sock)
            finally:
                sock.close()
            assert reply["ok"] is False
            assert reply["code"] == protocol.ERR_PROTOCOL_VERSION

    def test_submit_validates_spec(self):
        with ServiceDaemon(port=0) as daemon:
            daemon.start()
            client = RegistryClient(f"127.0.0.1:{daemon.port}")
            with pytest.raises(RegistryError) as err:
                client.submit({"not": "an experiment"})
            assert err.value.code == protocol.ERR_BAD_SPEC
            with pytest.raises(RegistryError) as err:
                client.submit({
                    "schema_version": 1, "name": "x",
                    "apps": ["nosuchapp"],
                    "specs": [{"type": "campaign", "target": "region",
                               "region": "r", "kind": "internal",
                               "n": 1}]})
            assert err.value.code == protocol.ERR_BAD_SPEC
            assert daemon.queue.jobs() == []    # nothing was queued

    def test_fetch_unknown_and_pending_jobs(self):
        with ServiceDaemon(port=0) as daemon:
            daemon.start()
            client = RegistryClient(f"127.0.0.1:{daemon.port}")
            with pytest.raises(RegistryError) as err:
                client.fetch("job-999999")
            assert err.value.code == protocol.ERR_UNKNOWN_JOB
            with pytest.raises(RegistryError) as err:
                client.watch("job-999999")
            assert err.value.code == protocol.ERR_UNKNOWN_JOB


class TestDaemonJobs:
    def test_submit_watch_fetch_roundtrip(self, tmp_path):
        from repro.api import Experiment, ExperimentResult, run_experiment
        payload = small_experiment_payload()
        local = run_experiment(Experiment.from_dict(payload))
        with ServiceDaemon(port=0,
                           spill_dir=str(tmp_path / "svc")) as daemon:
            daemon.start()
            client = RegistryClient(f"127.0.0.1:{daemon.port}")
            job = client.submit(payload)
            assert job["id"] == "job-000001"
            events = []
            final = client.watch(job["id"], on_event=events.append)
            assert final["state"] == "done"
            assert events, "watch streamed no progress events"
            assert all(e["shards"] >= e["shard"] for e in events)
            listed = client.jobs()
            assert [(j["id"], j["state"]) for j in listed] == \
                [("job-000001", "done")]
            envelope = client.fetch(job["id"])
            fetched = ExperimentResult.from_dict(envelope)
            # the invariant: canonical image is byte-identical to the
            # local run (the daemon ran with local fallback here, but
            # provenance=False strips substrate either way)
            assert_canonical_match(local, fetched,
                                   context="daemon vs local run")

    def test_queue_survives_daemon_restart(self, tmp_path):
        from repro.api import ExperimentResult
        spill = str(tmp_path / "svc")
        payload = small_experiment_payload()
        with ServiceDaemon(port=0, spill_dir=spill) as daemon:
            daemon.start()
            client = RegistryClient(f"127.0.0.1:{daemon.port}")
            job = client.submit(payload)
            final = client.watch(job["id"])
            assert final["state"] == "done"
        # a fresh daemon on the same spill dir still serves the result
        with ServiceDaemon(port=0, spill_dir=spill) as revived:
            revived.start()
            client = RegistryClient(f"127.0.0.1:{revived.port}")
            envelope = client.fetch(job["id"])
            assert ExperimentResult.from_dict(envelope).experiment.name \
                == "svc-mini"

    def test_store_dir_survives_daemon_restart(self, tmp_path):
        """``repro registry --store-dir``: profiles a first daemon's
        jobs produced are served by a restarted daemon on the same
        store dir — zero new faulty runs, byte-identical canonical
        envelope."""
        from repro.api import ExperimentResult
        from repro.profiles import ResultStore
        store = str(tmp_path / "store")
        payload = {"schema_version": 1, "name": "svc-store",
                   "apps": ["kmeans"], "seed": 20181111,
                   "incremental": True,
                   "specs": [{"type": "profile", "kind": "internal",
                              "n": 2, "loop_only": True}]}
        with ServiceDaemon(port=0, store_dir=store) as daemon:
            daemon.start()
            client = RegistryClient(f"127.0.0.1:{daemon.port}")
            job = client.submit(payload)
            assert client.watch(job["id"])["state"] == "done"
            first = client.fetch(job["id"])
        with ResultStore(store) as written:
            assert len(written) > 0   # the job populated the store
        with ServiceDaemon(port=0, store_dir=store) as revived:
            revived.start()
            client = RegistryClient(f"127.0.0.1:{revived.port}")
            job = client.submit(payload)
            assert client.watch(job["id"])["state"] == "done"
            second = client.fetch(job["id"])
        assert_canonical_match(ExperimentResult.from_dict(first),
                               ExperimentResult.from_dict(second),
                               context="store-served rerun vs fresh run")
        assert sum(d.get("executed", 0) for d in first["dispatches"]) > 0
        # the restarted daemon served every region from the store
        assert sum(d.get("executed", 0)
                   for d in second["dispatches"]) == 0

    def test_failed_job_reported_via_fetch(self):
        with ServiceDaemon(port=0, backend_factory=None) as daemon:
            daemon.start()
            client = RegistryClient(f"127.0.0.1:{daemon.port}")
            payload = small_experiment_payload()
            # valid spec, but the target region does not exist ->
            # execution fails, submission cannot know that
            payload["specs"][0]["region"] = "no_such_region"
            job = client.submit(payload)
            final = client.watch(job["id"])
            assert final["state"] == "failed"
            with pytest.raises(RegistryError) as err:
                client.fetch(job["id"])
            assert err.value.code == protocol.ERR_JOB_FAILED


# ------------------------------------------------------------ golden cache
@pytest.fixture
def job_trackers(monkeypatch):
    """Every tracker a daemon's jobs build (the ones handed a golden
    bundle), in build order."""
    import repro.api.runner as runner_mod
    original = runner_mod._default_tracker
    built = []

    def recording(experiment, app, **overrides):
        tracker = original(experiment, app, **overrides)
        if "golden_factory" in overrides:
            built.append(tracker)
        return tracker

    monkeypatch.setattr(runner_mod, "_default_tracker", recording)
    return built


class ProbedBackend(LocalPoolBackend):
    """A local backend that calls ``probe()`` before every dispatch."""

    def __init__(self, probe):
        super().__init__()
        self._probe = probe

    def run_shards(self, shards, max_instr):
        self._probe()
        yield from super().run_shards(shards, max_instr)


def run_job(daemon, payload) -> dict:
    """Submit ``payload``, wait for it, return its final watch frame."""
    client = RegistryClient(f"127.0.0.1:{daemon.port}")
    return client.watch(client.submit(payload)["id"])


def kmeans_fingerprint() -> str:
    from repro.apps import REGISTRY
    from repro.engine.keys import program_fingerprint
    return program_fingerprint(REGISTRY.build("kmeans"))


class TestGoldenCache:
    def test_second_job_builds_nothing(self, job_trackers):
        from repro.golden import GOLDEN_CACHE
        with ServiceDaemon(port=0) as daemon:
            daemon.start()
            assert run_job(daemon, small_experiment_payload())["state"] \
                == "done"
            bundle = GOLDEN_CACHE[kmeans_fingerprint()]
            builds = bundle.builds
            reused = daemon.golden_reused
            assert run_job(daemon, small_experiment_payload())["state"] \
                == "done"
            assert daemon.golden_reused == reused + 1
            assert bundle.builds == builds
            assert job_trackers[-1]._golden is bundle

    def test_jobs_with_different_seeds_share_one_bundle(self, job_trackers):
        first = small_experiment_payload()
        second = dict(small_experiment_payload(), seed=7)
        with ServiceDaemon(port=0) as daemon:
            daemon.start()
            assert run_job(daemon, first)["state"] == "done"
            assert run_job(daemon, second)["state"] == "done"
        one, two = job_trackers
        assert (one.seed, two.seed) == (first["seed"], 7)
        assert one._golden is two._golden

    def test_variant_gets_its_own_bundle(self):
        from repro.apps import REGISTRY
        from repro.golden import GOLDEN_CACHE, shared_golden
        base, _ = shared_golden(REGISTRY.build("kmeans"))
        assert shared_golden(REGISTRY.build("kmeans"))[0] is base
        tuned = REGISTRY.build("kmeans", variant="tuned")
        bundle, reused = shared_golden(tuned)
        try:
            assert bundle is not base and bundle.program is tuned
            assert shared_golden(REGISTRY.build(
                "kmeans", variant="tuned")) == (bundle, True)
        finally:
            from repro.engine.keys import program_fingerprint
            if not reused:
                GOLDEN_CACHE.pop(program_fingerprint(tuned), None)

    def test_daemon_and_shard_server_share_one_bundle(self, job_trackers):
        from repro.apps import REGISTRY
        with ServiceDaemon(port=0) as daemon:
            daemon.start()
            assert run_job(daemon, small_experiment_payload())["state"] \
                == "done"
        server = ShardServer(REGISTRY.build("kmeans"), port=0)
        try:
            assert server._analysis_tracker()._golden is \
                job_trackers[0]._golden
            assert server.tracker_reused is True
        finally:
            server.stop()

    def test_plain_tracker_never_reads_the_cache(self, monkeypatch):
        import repro.golden
        from repro.apps import REGISTRY
        cached, _ = repro.golden.shared_golden(REGISTRY.build("kmeans"))

        def forbidden(*args, **kwargs):
            raise AssertionError("a plain FlipTracker read the cache")

        monkeypatch.setattr(repro.golden, "shared_golden", forbidden)
        with FlipTracker(REGISTRY.build("kmeans"), workers=1) as ft:
            ft.instances()
            ft.warm_ladder()
            assert ft._golden is not cached

    def test_failed_job_releases_trackers_then_next_job_succeeds(
            self, job_trackers):
        """The second tracker's backend cannot be built: the job fails,
        the first tracker (which already dispatched) is closed with its
        engine and backend, and the next job runs on the cached bundle
        byte-identically to a local run."""
        from repro.api import Experiment, ExperimentResult, run_experiment
        backends = []

        def backend_factory():
            if len(backends) == 1:
                backends.append(None)
                raise RuntimeError("no backend for the second app")
            backend = LocalPoolBackend()
            backends.append(backend)
            return backend

        two_apps = {"schema_version": 1, "name": "svc-two",
                    "apps": ["kmeans", "ft"], "seed": 20181111,
                    "specs": [{"type": "campaign", "target": "region",
                               "app": "kmeans", "region": "k_d",
                               "kind": "internal", "n": 3}]}
        payload = small_experiment_payload()
        local = run_experiment(Experiment.from_dict(payload))
        with ServiceDaemon(port=0,
                           backend_factory=backend_factory) as daemon:
            daemon.start()
            client = RegistryClient(f"127.0.0.1:{daemon.port}")
            events = []
            failed = client.watch(client.submit(two_apps)["id"],
                                  on_event=events.append)
            assert failed["state"] == "failed"
            assert "no backend for the second app" in failed["error"]
            assert events, "the first app never dispatched"
            assert len(job_trackers) == 1
            assert job_trackers[0]._engine is None
            job = client.submit(payload)
            assert client.watch(job["id"])["state"] == "done"
            fetched = ExperimentResult.from_dict(client.fetch(job["id"]))
        assert all(t._engine is None for t in job_trackers)
        assert all(b is None or b._pool is None for b in backends)
        assert job_trackers[1]._golden is job_trackers[0]._golden
        assert_canonical_match(local, fetched,
                               context="job after a failed job vs local")

    def test_each_app_tracker_closes_before_the_next_app_runs(
            self, job_trackers):
        """In a two-app job the first app's tracker has released its
        engine by the time the second app dispatches."""
        open_at_dispatch = []

        def probe():
            open_at_dispatch.append(
                [t._engine is not None for t in job_trackers])

        two_apps = {"schema_version": 1, "name": "svc-two",
                    "apps": ["kmeans", "ft"], "seed": 20181111,
                    "specs": [{"type": "campaign", "target": "region",
                               "app": app, "region": region,
                               "kind": "internal", "n": 3}
                              for app, region in (("kmeans", "k_d"),
                                                  ("ft", "ft_b"))]}
        with ServiceDaemon(port=0, backend_factory=lambda: ProbedBackend(
                probe)) as daemon:
            daemon.start()
            assert run_job(daemon, two_apps)["state"] == "done"
        assert [True] in open_at_dispatch          # kmeans dispatched
        second = [seen for seen in open_at_dispatch if len(seen) == 2]
        assert second and all(seen == [False, True] for seen in second)
        assert all(t._engine is None for t in job_trackers)


# -------------------------------------------------------------------- CLI
class TestServiceCLI:
    def test_submit_jobs_watch_fetch(self, tmp_path, capsys):
        from repro.cli import main
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(small_experiment_payload()))
        with ServiceDaemon(port=0) as daemon:
            daemon.start()
            registry = f"127.0.0.1:{daemon.port}"
            code = main(["--registry", registry, "submit",
                         str(spec_path)])
            out = capsys.readouterr().out
            assert code == 0
            job_id = out.strip()
            assert job_id == "job-000001"
            code = main(["--registry", registry, "watch", job_id])
            out = capsys.readouterr().out
            assert code == 0 and "done" in out
            code = main(["--registry", registry, "jobs"])
            out = capsys.readouterr().out
            assert code == 0 and job_id in out and "done" in out
            code = main(["--registry", registry, "fetch", job_id,
                         "--canonical"])
            out = capsys.readouterr().out
            assert code == 0
            envelope = json.loads(out)
            assert envelope["experiment"]["name"] == "svc-mini"
            # canonical form: substrate config is stripped/neutral
            assert envelope["experiment"]["backend"] is None

    def test_submit_rejects_bad_spec(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a spec\"}")
        with ServiceDaemon(port=0) as daemon:
            daemon.start()
            code = main(["--registry", f"127.0.0.1:{daemon.port}",
                         "submit", str(bad)])
            assert code == 1

    def test_registry_and_backend_addr_conflict(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["--registry", "127.0.0.1:7460",
                  "--backend-addr", "127.0.0.1:7453", "apps"])

    def test_default_registry_port_constant(self):
        assert DEFAULT_REGISTRY_PORT == 7460
