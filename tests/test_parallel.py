"""Simulated MPI: communicator, scheduler, replay, overhead harness."""

import pytest

from repro.parallel.comm import ANY_SOURCE, SimComm
from repro.parallel.demo import (N_LOCAL, build_any_source,
                                 build_dot_product, build_ring)
from repro.ir import opcodes as oc
from repro.parallel.overhead import measure_tracing_overhead
from repro.parallel.scheduler import RankScheduler
from repro.trace.events import R_OP, Trace
from repro.vm.errors import MPIDeadlock, WouldBlock
from repro.vm.fault import FaultPlan
from repro.vm.interp import Interpreter


class TestSimComm:
    def test_send_recv(self):
        c = SimComm(2)
        c.send(0, 1, 7, 3.5)
        assert c.recv(1, 0, 7) == 3.5

    def test_recv_blocks_when_empty(self):
        c = SimComm(2)
        with pytest.raises(WouldBlock):
            c.recv(1, 0, 7)

    def test_tag_matching(self):
        c = SimComm(2)
        c.send(0, 1, tag=1, value="a")
        c.send(0, 1, tag=2, value="b")
        assert c.recv(1, 0, 2) == "b"
        assert c.recv(1, 0, 1) == "a"

    def test_fifo_per_source(self):
        c = SimComm(2)
        c.send(0, 1, 0, "first")
        c.send(0, 1, 0, "second")
        assert c.recv(1, 0, 0) == "first"
        assert c.recv(1, 0, 0) == "second"

    def test_invalid_destination(self):
        c = SimComm(2)
        with pytest.raises(ValueError):
            c.send(0, 5, 0, 1)

    def test_allreduce_sum(self):
        c = SimComm(3)
        with pytest.raises(WouldBlock):
            c.allreduce(0, 1.0)
        with pytest.raises(WouldBlock):
            c.allreduce(1, 2.0)
        assert c.allreduce(2, 3.0) == 6.0
        assert c.allreduce(0, 1.0) == 6.0
        assert c.allreduce(1, 2.0) == 6.0

    def test_allreduce_minmax(self):
        c = SimComm(2)
        with pytest.raises(WouldBlock):
            c.allreduce(0, 5, "min")
        assert c.allreduce(1, 3, "min") == 3
        assert c.allreduce(0, 5, "min") == 3

    def test_consecutive_epochs(self):
        c = SimComm(2)
        for round_vals in ((1.0, 2.0), (10.0, 20.0)):
            with pytest.raises(WouldBlock):
                c.allreduce(0, round_vals[0])
            assert c.allreduce(1, round_vals[1]) == sum(round_vals)
            assert c.allreduce(0, round_vals[0]) == sum(round_vals)

    def test_bcast(self):
        c = SimComm(3)
        with pytest.raises(WouldBlock):
            c.bcast(1, 0, None)
        assert c.bcast(0, 0, 42) == 42
        assert c.bcast(1, 0, None) == 42
        assert c.bcast(2, 0, None) == 42

    def test_barrier(self):
        c = SimComm(2)
        with pytest.raises(WouldBlock):
            c.barrier(0)
        c.barrier(1)
        c.barrier(0)

    def test_any_source_records_matches(self):
        c = SimComm(3, seed=1)
        c.send(1, 0, 0, "from1")
        c.send(2, 0, 0, "from2")
        got = {c.recv(0, ANY_SOURCE, 0), c.recv(0, ANY_SOURCE, 0)}
        assert got == {"from1", "from2"}
        assert sorted(c.match_log) == [1, 2]


class TestScheduler:
    def test_dot_product(self):
        m = build_dot_product()
        job = RankScheduler(lambda r: m, 4).run()
        expected = 2.0 * sum(range(4 * N_LOCAL))
        for interp in job.ranks:
            assert interp.read_scalar("result") == expected

    def test_ring(self):
        m = build_ring(hops=3)
        job = RankScheduler(lambda r: m, 3).run()
        tokens = [i.read_scalar("token_out") for i in job.ranks]
        assert max(tokens) == 1.0 + 3 * 3  # 3 hops per rank, +1 each

    def test_single_rank_job(self):
        m = build_dot_product()
        job = RankScheduler(lambda r: m, 1).run()
        assert job.ranks[0].read_scalar("result") == \
            2.0 * sum(range(N_LOCAL))

    def test_deadlock_detected(self):
        from repro.frontend import ProgramBuilder
        pb = ProgramBuilder("dead")
        pb.func_source("def main() -> None:\n"
                       "    x = mpi_recv(0, 9)\n")
        m = pb.build()
        with pytest.raises(MPIDeadlock):
            RankScheduler(lambda r: m, 2).run()

    def test_schedule_shuffle_still_correct(self):
        m = build_dot_product()
        for seed in (1, 2, 3):
            job = RankScheduler(lambda r: m, 4, shuffle_seed=seed).run()
            assert job.ranks[0].read_scalar("result") == \
                2.0 * sum(range(4 * N_LOCAL))

    def test_record_and_replay_reproduces_matching(self):
        m = build_any_source()
        recorded = RankScheduler(lambda r: m, 4, shuffle_seed=13).run()
        log = list(recorded.comm.match_log)
        replayed = RankScheduler(lambda r: m, 4, shuffle_seed=99,
                                 replay_log=log).run()
        assert replayed.comm.match_log == log
        assert replayed.ranks[0].read_scalar("gathered") == \
            recorded.ranks[0].read_scalar("gathered")

    def test_per_rank_tracing(self):
        m = build_dot_product()
        job = RankScheduler(lambda r: m, 3, trace=True).run()
        lengths = [len(i.records) for i in job.ranks]
        assert all(n > 100 for n in lengths)


class TestBlockedFaultRearm:
    """Regression: a fault trigger consumed by an instruction that then
    *blocks* (``WouldBlock``) used to be lost — the pre-execution hook
    had disarmed it, the collective raised, and the retry re-executed
    the same dynamic instruction with no fault armed.  The flip must
    re-arm on block and fire when the instruction finally commits.
    """

    def test_result_fault_on_blocking_allreduce_fires(self):
        m = build_dot_product()
        # Discover the dyn index of rank 0's MPI_ALLREDUCE from a clean
        # traced job.  Blocked attempts record nothing, and the record
        # count equals dyn_count (no NOPs), so record index == dyn index.
        traced = RankScheduler(lambda r: m, 2, trace=True,
                               quantum=1_000_000).run()
        recs = Trace(traced.ranks[0].records, m)
        assert len(recs) == traced.ranks[0].dyn_count
        trigger = next(i for i, r in enumerate(recs)
                       if r[R_OP] == oc.MPI_ALLREDUCE)
        clean = traced.ranks[0].read_scalar("result")

        # Round-robin visits rank 0 first; with a quantum larger than
        # the whole program, rank 0 is guaranteed to reach the
        # allreduce — and block on it — before rank 1 has contributed.
        sched = RankScheduler(lambda r: m, 2, quantum=1_000_000)
        plan = FaultPlan(trigger=trigger, mode="result", bit=51)
        sched.ranks[0] = Interpreter(m, comm=sched.comm, rank=0,
                                     fault=plan, max_instr=50_000_000)
        job = sched.run()
        assert job.passes >= 2  # rank 0 did block and was revisited

        rec = job.ranks[0].fault_record
        assert rec.fired
        assert rec.dyn_index == trigger
        assert rec.old_value == clean
        assert rec.new_value != clean
        assert job.ranks[0].read_scalar("result") == rec.new_value
        assert job.ranks[1].read_scalar("result") == clean  # unfaulted


class TestOverheadHarness:
    def test_overhead_row(self, tmp_path):
        row = measure_tracing_overhead("ft", nranks=2,
                                       trace_dir=str(tmp_path))
        assert row.time_traced > 0 and row.time_untraced > 0
        assert row.trace_records > 0
        assert row.overhead > 0  # tracing always costs something
