"""Backend seam: protocol framing, failure paths, pool-death close().

The byte-parity of all backends against the sequential engine lives in
``tests/test_determinism.py``; this file covers everything that can go
*wrong* at the seam:

* shard-protocol framing (roundtrip, torn frames, oversized frames);
* ``SocketBackend`` failure paths — connection refused falls back to
  the local pool with a warning, a mid-shard disconnect retries the
  shard exactly once, a second failure is fatal, and a
  fingerprint-mismatch handshake is rejected outright;
* the ``close()`` fix — a pool worker that calls ``os._exit`` mid-shard
  fails the campaign with the shard index and lets ``close()`` raise
  promptly instead of hanging on the pool join.
"""

import os
import socket
import threading

import pytest

from test_engine import loop_instance, tiny_program

from repro.apps import REGISTRY
from repro.core import FlipTracker
from repro.engine import EngineError, ExecutionEngine
from repro.engine.backends import (ShardServer, SocketBackend,
                                   parse_addresses, resolve_backend)
from repro.engine.backends import protocol
from repro.engine.backends.base import reassemble
from repro.engine.cache import SPILL_NAME
from repro.faults.analysis import AnalysisPlan, decode_analysis

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="worker processes need fork here")


def sequential_outcome(prog, plans, max_instr):
    with ExecutionEngine(prog) as eng:
        r = eng.run_plans(plans, max_instr=max_instr)
    return (r.success, r.failed, r.crashed)


def free_port() -> int:
    """A port that was just free (nothing listens there afterwards)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# ---------------------------------------------------------------- protocol
class TestProtocol:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        protocol.send_msg(a, {"op": "run", "plans": [1, 2], "x": None})
        assert protocol.recv_msg(b) == {"op": "run", "plans": [1, 2],
                                        "x": None}
        a.close()
        assert protocol.recv_msg(b) is None  # clean EOF
        b.close()

    def test_torn_frame_raises(self):
        a, b = socket.socketpair()
        a.sendall(b"\x00\x00\x00\x10{\"tor")  # promises 16 bytes, sends 6
        a.close()
        with pytest.raises(protocol.ProtocolError, match="mid-frame"):
            protocol.recv_msg(b)
        b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        a.sendall(b"\xff\xff\xff\xff")
        with pytest.raises(protocol.ProtocolError, match="MAX_FRAME"):
            protocol.recv_msg(b)
        a.close()
        b.close()

    def test_execute_request_reports_errors_in_band(self):
        reply = protocol.execute_request(FlipTracker(tiny_program()),
                                         {"op": "run", "shard": 7,
                                          "plans": [{"bogus": 1}]})
        assert reply["op"] == "error" and reply["shard"] == 7
        assert "KeyError" in reply["error"] or "bogus" in reply["error"]

    def test_parse_addresses(self):
        assert parse_addresses("h1:70,h2:71") == [("h1", 70), ("h2", 71)]
        assert parse_addresses(None) == [("127.0.0.1", 7453)]
        assert parse_addresses([("h", 9)]) == [("h", 9)]
        with pytest.raises(ValueError):
            parse_addresses("")

    def test_resolve_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("carrier-pigeon")

    def test_reassemble_orders_out_of_order_completions(self):
        completions = [(2, ["c"]), (0, ["a"]), (3, ["d"]), (1, ["b"])]
        assert list(reassemble(iter(completions), 4)) == \
            [(0, ["a"]), (1, ["b"]), (2, ["c"]), (3, ["d"])]


# ----------------------------------------------------------- socket happy
class TestSocketBackend:
    @pytest.mark.parametrize("n_servers", [1, 2])
    def test_end_to_end_matches_sequential(self, n_servers):
        """With two servers, shards outnumber connections and complete
        out of order across them; results still match in plan order."""
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 8)
        baseline = sequential_outcome(prog, plans, ft.faulty_budget)
        servers = [ShardServer(tiny_program(), port=0).start()
                   for _ in range(n_servers)]
        try:
            backend = SocketBackend([("127.0.0.1", srv.port)
                                     for srv in servers], fallback=False)
            with ExecutionEngine(tiny_program(), shard_size=3,
                                 backend=backend) as eng:
                r = eng.run_plans(plans, max_instr=ft.faulty_budget)
            assert sum(srv.shards_served for srv in servers) == \
                r.details["shards"] > n_servers
        finally:
            for srv in servers:
                srv.stop()
        assert (r.success, r.failed, r.crashed) == baseline
        assert r.details["backend"] == "socket"

    def test_connection_refused_falls_back_to_local(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 6)
        baseline = sequential_outcome(prog, plans, ft.faulty_budget)
        backend = SocketBackend([("127.0.0.1", free_port())])
        with ExecutionEngine(tiny_program(), backend=backend) as eng:
            with pytest.warns(RuntimeWarning, match="falling back to "
                                                    "LocalPoolBackend"):
                r = eng.run_plans(plans, max_instr=ft.faulty_budget)
        assert (r.success, r.failed, r.crashed) == baseline

    def test_no_fallback_raises(self):
        backend = SocketBackend([("127.0.0.1", free_port())],
                                fallback=False)
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 2)
        with pytest.raises(EngineError, match="no shard server reachable"):
            with ExecutionEngine(tiny_program(), backend=backend) as eng:
                eng.run_plans(plans, max_instr=ft.faulty_budget)

    def test_backend_instance_reusable_across_engines(self):
        """close() resets the connection latch: a pre-built backend
        handed to a second engine reconnects instead of running with
        zero workers."""
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 4)
        with ShardServer(tiny_program(), port=0).start() as srv:
            backend = SocketBackend([("127.0.0.1", srv.port)],
                                    fallback=False)
            with ExecutionEngine(tiny_program(), backend=backend) as e1:
                r1 = e1.run_plans(plans, max_instr=ft.faulty_budget)
            with ExecutionEngine(tiny_program(), backend=backend) as e2:
                r2 = e2.run_plans(plans, max_instr=ft.faulty_budget)
            assert srv.connections >= 2
        assert (r1.success, r1.failed, r1.crashed) == \
            (r2.success, r2.failed, r2.crashed)

    def test_fingerprint_mismatch_rejected(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 2)
        with ShardServer(tiny_program("imposter"), port=0).start() as srv:
            backend = SocketBackend([("127.0.0.1", srv.port)])
            with pytest.raises(EngineError,
                               match="fingerprint mismatch"):
                with ExecutionEngine(tiny_program(),
                                     backend=backend) as eng:
                    eng.run_plans(plans, max_instr=ft.faulty_budget)
            assert srv.rejected == 1


# --------------------------------------------------------- socket failure
class DroppingServer(ShardServer):
    """Shard server that abruptly drops the first ``drop_first``
    requests mid-shard, accepting reconnects afterwards."""

    def __init__(self, program, drop_first: int):
        super().__init__(program, port=0)
        self._drop_remaining = drop_first
        self._drop_lock = threading.Lock()
        self.run_requests = 0

    def _serve_client(self, conn):
        self.connections += 1
        try:
            if not protocol.serve_hello(conn, self.fingerprint):
                self.rejected += 1
                return
            while True:
                msg = protocol.recv_msg(conn)
                if msg is None or msg.get("op") == "bye":
                    return
                with self._drop_lock:
                    self.run_requests += 1
                    drop = self._drop_remaining > 0
                    if drop:
                        self._drop_remaining -= 1
                if drop:
                    return  # vanish mid-shard, no reply
                # the real op dispatch, counters included
                protocol.send_msg(conn, self._dispatch(msg))
        except (OSError, protocol.ProtocolError):
            pass
        finally:
            conn.close()


class TestSocketRetry:
    def test_mid_shard_disconnect_retries_exactly_once(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 8)
        baseline = sequential_outcome(prog, plans, ft.faulty_budget)
        with DroppingServer(tiny_program(), drop_first=1).start() as srv:
            backend = SocketBackend([("127.0.0.1", srv.port)],
                                    fallback=False)
            with ExecutionEngine(tiny_program(), shard_size=3,
                                 backend=backend) as eng:
                r = eng.run_plans(plans, max_instr=ft.faulty_budget)
            # the dropped shard was re-sent once; every shard answered
            assert srv.run_requests == r.details["shards"] + 1
            assert srv.shards_served == r.details["shards"]
        assert (r.success, r.failed, r.crashed) == baseline

    def test_second_failure_of_same_shard_is_fatal(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 4)
        with DroppingServer(tiny_program(), drop_first=99).start() as srv:
            backend = SocketBackend([("127.0.0.1", srv.port)],
                                    fallback=False)
            eng = ExecutionEngine(tiny_program(), backend=backend)
            with pytest.raises(EngineError, match="failed twice"):
                eng.run_plans(plans, max_instr=ft.faulty_budget)
            assert srv.run_requests == 2  # original + exactly one retry
            # close() reports the lost shard instead of pretending success
            with pytest.raises(EngineError, match="shard 0 failed"):
                eng.close()


# ------------------------------------------------- analysis plans in run
def sequential_analyses(plans):
    """Reference traced results on a fresh sequential tracker."""
    with FlipTracker(tiny_program(), seed=9) as ft:
        return ft._analyze_many(plans)


def analysis_frame(shard, plans):
    """A ``run`` frame whose plans are traced analyses."""
    return protocol.run_request(shard, [AnalysisPlan(p) for p in plans],
                                None)


class TestAnalyzeOp:
    """Traced analyses as analysis plans in ``run`` shards: happy paths,
    in-band errors, handshake rejection, retry, worker death, malformed
    replies and duplicate aliasing."""

    def test_protocol_roundtrip_is_sorted_lists(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 2)
        msg = analysis_frame(5, plans)
        assert all(p["analysis"] is True for p in msg["plans"])
        reply = protocol.execute_request(ft, msg)
        assert reply["op"] == "result" and reply["shard"] == 5
        values = protocol.decode_run_values(
            reply, [AnalysisPlan(p) for p in plans])
        for value in values:
            m, patterns = decode_analysis(value)
            assert isinstance(m, str)
            for pats in patterns.values():
                assert pats == sorted(pats)  # canonical wire image

    def test_execute_analyze_reports_errors_in_band(self):
        ft = FlipTracker(tiny_program(), seed=9)
        reply = protocol.execute_request(
            ft, {"op": "run", "shard": 2,
                 "plans": [{"bogus": 1, "analysis": True}]})
        assert reply["op"] == "error" and reply["shard"] == 2
        assert reply["code"] == protocol.ERR_EXEC

    def test_socket_analyze_end_to_end(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 6)
        baseline = sequential_analyses(plans)
        with ShardServer(tiny_program(), port=0).start() as srv:
            backend = SocketBackend([("127.0.0.1", srv.port)],
                                    fallback=False)
            with ExecutionEngine(tiny_program(), shard_size=2,
                                 backend=backend) as eng:
                from repro.engine import plan_key
                unique = len({plan_key(eng.program_fp, p,
                                       ft.faulty_budget) for p in plans})
                results = eng.analyze_plans(plans,
                                            max_instr=ft.faulty_budget)
            # one run frame per shard of unique plans
            assert srv.shards_served == -(-unique // 2)
        assert results == baseline

    def test_analyze_server_fallback_when_unreachable(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 4)
        baseline = sequential_analyses(plans)
        backend = SocketBackend([("127.0.0.1", free_port())])
        with ExecutionEngine(tiny_program(), backend=backend) as eng:
            with pytest.warns(RuntimeWarning, match="falling back to "
                                                    "LocalPoolBackend"):
                results = eng.analyze_plans(plans,
                                            max_instr=ft.faulty_budget)
        assert results == baseline

    def test_analyze_fingerprint_mismatch_rejected(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 2)
        with ShardServer(tiny_program("imposter"), port=0).start() as srv:
            backend = SocketBackend([("127.0.0.1", srv.port)])
            with pytest.raises(EngineError,
                               match="fingerprint mismatch"):
                with ExecutionEngine(tiny_program(),
                                     backend=backend) as eng:
                    eng.analyze_plans(plans, max_instr=ft.faulty_budget)
            assert srv.rejected == 1 and srv.shards_served == 0

    def test_analyze_mid_shard_drop_retries_once(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 6)
        baseline = sequential_analyses(plans)
        with DroppingServer(tiny_program(), drop_first=1).start() as srv:
            backend = SocketBackend([("127.0.0.1", srv.port)],
                                    fallback=False)
            with ExecutionEngine(tiny_program(), shard_size=2,
                                 backend=backend) as eng:
                results = eng.analyze_plans(plans,
                                            max_instr=ft.faulty_budget)
            # the dropped shard was re-sent once; every shard answered
            assert srv.run_requests == srv.shards_served + 1
        assert results == baseline

    @needs_fork
    def test_analyze_dead_pool_worker_fails_shard(self, monkeypatch):
        """A pool worker dying mid-analysis must fail the shard with its
        index (and close() must report it), like the campaign path."""
        import repro.engine.worker as worker_mod
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 8)
        eng = ExecutionEngine(tiny_program(), workers=2, min_parallel=1)
        monkeypatch.setattr(worker_mod, "run_plans_task", _exit_worker)
        with pytest.raises(EngineError, match="shard 0"):
            eng.analyze_plans(plans, max_instr=ft.faulty_budget)
        assert eng.backend.failed_shard == 0
        with pytest.raises(EngineError, match="shard 0 failed"):
            eng.close()

    def test_malformed_analyzed_reply_fails_not_hangs(self):
        """A rogue server passing the handshake but replying null
        values must fail the shard through the retry machinery — a
        bounded EngineError, never a dead thread and a hung engine."""
        class RogueServer(ShardServer):
            def _dispatch(self, msg):
                return {"op": "result", "shard": msg["shard"],
                        "values": [None] * len(msg["plans"])}

        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 4)
        with RogueServer(tiny_program(), port=0).start() as srv:
            backend = SocketBackend([("127.0.0.1", srv.port)],
                                    fallback=False)
            eng = ExecutionEngine(tiny_program(), backend=backend)
            with pytest.raises(EngineError, match="failed twice"):
                eng.analyze_plans(plans, max_instr=ft.faulty_budget)
            with pytest.raises(EngineError, match="failed"):
                eng.close()

    @pytest.mark.parametrize("analyze,bad", [
        (False, 1),
        (False, "bogus"),
        (True, 1),
        (True, '{"m":1,"patterns":{}}'),
        (True, '{"m":"success","patterns":{"w0":"DO"}}'),
        (True, "not json"),
    ])
    def test_ill_typed_values_fail_and_cache_nothing(self, tmp_path,
                                                     analyze, bad):
        """A value of the wrong type or shape never reaches the cache
        or its spill: the shard fails through the retry path instead."""
        class RogueServer(ShardServer):
            def _dispatch(self, msg):
                self.shards_served += 1
                return {"op": "result", "shard": msg["shard"],
                        "values": [bad] * len(msg["plans"])}

        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 3)
        with RogueServer(tiny_program(), port=0).start() as srv:
            backend = SocketBackend([("127.0.0.1", srv.port)],
                                    fallback=False)
            eng = ExecutionEngine(tiny_program(), backend=backend,
                                  cache_dir=str(tmp_path))
            run = eng.analyze_plans if analyze else eng.run_plans
            with pytest.raises(EngineError, match="failed twice"):
                run(plans, max_instr=ft.faulty_budget)
            assert srv.shards_served == 2  # the shard and its one retry
            with pytest.raises(EngineError, match="failed"):
                eng.close()
        assert len(eng.cache) == 0
        spill = tmp_path / SPILL_NAME
        assert not spill.exists() or spill.read_text() == ""

    def test_duplicate_plans_analyzed_once(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plan = ft.make_plans(loop_instance(ft), "internal", 1)[0]
        with ExecutionEngine(tiny_program()) as eng:
            before = eng.executed
            results = eng.analyze_plans([plan, plan, plan],
                                        max_instr=ft.faulty_budget)
            assert eng.executed == before + 1  # aliased, one traced run
        assert results[0] == results[1] == results[2]
        # aliases carry fresh sets: mutating one must not leak
        for pats in results[0].values():
            pats.add("MUTATED")
        assert all("MUTATED" not in pats
                   for pats in results[1].values())


    def test_analyze_shards_adapter_delegates_to_run_shards(self):
        """``Backend.analyze_shards`` is an adapter over ``run_shards``:
        same shard order, values decoded to ``(m, sorted patterns)``."""
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 3)
        baseline = sequential_analyses(plans)
        with ExecutionEngine(tiny_program()) as eng:
            pairs = list(eng.backend.analyze_shards(
                [plans[:2], plans[2:]], ft.faulty_budget))
        assert [index for index, _values in pairs] == [0, 1]
        decoded = [pair for _index, values in pairs for pair in values]
        assert [{region: set(pats) for region, pats in patterns.items()}
                for _m, patterns in decoded] == baseline


# --------------------------------------------------------- handshake v2
class TestHandshakeVersioning:
    def test_hello_carries_protocol_version(self):
        a, b = socket.socketpair()
        t = threading.Thread(target=protocol.client_hello, args=(a, "fp"))
        t.start()
        msg = protocol.recv_msg(b)
        assert msg["pv"] == protocol.PROTOCOL_VERSION
        protocol.send_msg(b, {"op": "hello", "ok": True, "fp": "fp"})
        t.join()
        a.close()
        b.close()

    def test_protocol_version_mismatch_rejected_with_code(self):
        accepted, reply = protocol.hello_reply(
            {"op": "hello", "pv": protocol.PROTOCOL_VERSION + 1,
             "v": 1, "fp": "fp"}, "fp")
        assert not accepted
        assert reply["code"] == protocol.ERR_PROTOCOL_VERSION

    def test_v4_client_refused(self):
        """Version 5 retired the ANALYZE op: a v4 peer would run an
        analysis plan as its bare fault, so the handshake refuses it."""
        assert protocol.PROTOCOL_VERSION == 5
        accepted, reply = protocol.hello_reply(
            {"op": "hello", "pv": 4, "v": protocol.KEY_VERSION,
             "fp": "fp"}, "fp")
        assert not accepted
        assert reply["code"] == protocol.ERR_PROTOCOL_VERSION

    def test_fingerprint_mismatch_carries_code(self):
        accepted, reply = protocol.hello_reply(
            {"op": "hello", "pv": protocol.PROTOCOL_VERSION,
             "v": protocol.KEY_VERSION, "fp": "other"}, "fp")
        assert not accepted
        assert reply["code"] == protocol.ERR_FINGERPRINT

    def test_unknown_op_rejected_in_dispatch(self):
        srv = ShardServer(tiny_program(), port=0)
        try:
            reply = srv._dispatch({"op": "carrier-pigeon"})
            assert reply["op"] == "error"
            assert reply["code"] == protocol.ERR_BAD_OP
        finally:
            srv.stop()


# -------------------------------------------------- pool-death regression
def _exit_worker(task):  # must be module-level: pickled by reference
    os._exit(13)


@needs_fork
class TestPoolDeath:
    def test_dead_worker_fails_shard_and_close_raises(self, monkeypatch):
        """A worker that calls ``os._exit`` mid-shard must fail the
        campaign with the shard index — and ``close()`` must raise, not
        hang on the broken pool's join."""
        import repro.engine.worker as worker_mod
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 8)
        eng = ExecutionEngine(tiny_program(), workers=2, min_parallel=1)
        monkeypatch.setattr(worker_mod, "run_plans_task", _exit_worker)
        with pytest.raises(EngineError, match="shard 0"):
            eng.run_plans(plans, max_instr=ft.faulty_budget)
        assert eng.backend.failed_shard == 0
        with pytest.raises(EngineError, match="shard 0 failed"):
            eng.close()

    def test_with_block_does_not_mask_root_cause(self, monkeypatch):
        """__exit__'s close() must not replace the in-flight error: the
        caller should see the worker-death message, not the generic
        'engine closed after shard N failed' one."""
        import repro.engine.worker as worker_mod
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 8)
        with pytest.raises(EngineError, match="worker") as excinfo:
            with ExecutionEngine(tiny_program(), workers=2,
                                 min_parallel=1) as eng:
                monkeypatch.setattr(worker_mod, "run_plans_task",
                                    _exit_worker)
                eng.run_plans(plans, max_instr=ft.faulty_budget)
        assert "engine closed after" not in str(excinfo.value)

    def test_broken_pool_close_is_prompt_and_releases_all(self,
                                                          monkeypatch):
        """A broken pool's teardown must not wedge: each ``close()``
        after a worker death returns well inside the abandon deadline,
        and leaves no thread, pool worker or child process behind."""
        import multiprocessing as mp
        import time
        import repro.engine.worker as worker_mod
        from repro.engine.backends import local
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 8)
        threads = threading.active_count()
        children = {p.pid for p in mp.active_children()}
        for _ in range(3):
            eng = ExecutionEngine(tiny_program(), workers=2, min_parallel=1)
            with monkeypatch.context() as m:
                m.setattr(worker_mod, "run_plans_task", _exit_worker)
                with pytest.raises(EngineError, match="shard 0"):
                    eng.run_plans(plans, max_instr=ft.faulty_budget)
            start = time.monotonic()
            with pytest.raises(EngineError, match="shard 0 failed"):
                eng.close()
            assert time.monotonic() - start < local._BROKEN_JOIN_S / 2
        deadline = time.monotonic() + 5.0
        while threading.active_count() > threads and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert threading.active_count() == threads
        assert {p.pid for p in mp.active_children()} <= children

    def test_healthy_close_still_silent(self):
        prog = tiny_program()
        ft = FlipTracker(prog, seed=9)
        plans = ft.make_plans(loop_instance(ft), "internal", 6)
        eng = ExecutionEngine(tiny_program(), workers=2, min_parallel=1)
        eng.run_plans(plans, max_instr=ft.faulty_budget)
        eng.close()  # no exception: nothing failed


# -------------------------------------------------------------- CLI wiring
class TestCliBackendFlag:
    def test_campaign_over_socket_backend(self, capsys):
        from repro.cli import main
        with ShardServer(REGISTRY.build("kmeans"), port=0).start() as srv:
            code = main(["--seed", "3", "--backend", "socket",
                         "--backend-addr", f"127.0.0.1:{srv.port}",
                         "campaign", "kmeans", "k_d", "-n", "4"])
            out = capsys.readouterr().out
            assert code == 0 and "success_rate" in out
            assert srv.shards_served >= 1

    def test_patterns_over_socket_backend(self, capsys):
        """The Table I sweep ships analysis plans to the shard server."""
        from repro.cli import main
        with ShardServer(REGISTRY.build("kmeans"), port=0).start() as srv:
            code = main(["--seed", "3", "--backend", "socket",
                         "--backend-addr", f"127.0.0.1:{srv.port}",
                         "patterns", "kmeans", "--runs-per-kind", "1",
                         "--loop-only"])
            out = capsys.readouterr().out
            assert code == 0 and "resilience patterns" in out
            assert srv.shards_served >= 1

    def test_serve_parser_accepts_host_port(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "kmeans", "--host", "0.0.0.0", "--port", "0"])
        assert args.command == "serve" and args.port == 0
