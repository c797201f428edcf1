"""Trace schema, persistence, divergence, and index correctness."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import ProgramBuilder
from repro.ir.types import F64
from repro.trace.columnar import GoldenTrace
from repro.trace.events import (R_DLOC, R_DVAL, R_FN, R_OP, R_PC, R_SLOCS,
                                Trace, TraceMeta)
from repro.trace.index import INF, TraceIndex
from repro.vm import FaultPlan, Interpreter


def traced_run(fault=None):
    pb = ProgramBuilder("t")
    pb.array("a", F64, (6,))
    pb.func_source("""
def main() -> float:
    for i in range(6):
        a[i] = float(i) * 2.0
    s = 0.0
    for i in range(6):
        if a[i] > 4.0:
            s = s + a[i]
    return s
""")
    module = pb.build()
    interp = Interpreter(module, trace=True, fault=fault)
    interp.run()
    return Trace(interp.records, module), interp


class TestTraceBasics:
    def test_len_and_iter(self):
        trace, interp = traced_run()
        assert len(trace) == interp.dyn_count
        assert sum(1 for _ in trace) == len(trace)

    def test_count_ops_sums_to_len(self):
        trace, _ = traced_run()
        assert sum(trace.count_ops().values()) == len(trace)

    def test_describe(self):
        trace, _ = traced_run()
        assert "records" in trace.describe()

    def test_value_at(self):
        trace, _ = traced_run()
        base = trace.module.arrays["a"].base
        found, v = trace.records.last_write(base + 3, len(trace))
        assert found and v == 6.0
        found, _ = trace.records.last_write(10 ** 9, len(trace))
        assert not found


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace, _ = traced_run()
        trace.meta.program = "toy"
        path = os.path.join(tmp_path, "t.pkl.gz")
        trace.save(path)
        loaded = Trace.load(path, trace.module)
        assert loaded.records.suffix == trace.records.suffix
        assert list(loaded) == list(trace)
        assert loaded.meta.program == "toy"


class TestDivergence:
    def test_identical_traces_no_divergence(self):
        a, _ = traced_run()
        b, _ = traced_run()
        assert a.first_divergence(b) is None

    def test_benign_fault_no_control_divergence(self):
        a, _ = traced_run()
        # flip a low mantissa bit of a stored value: data corrupt,
        # control path identical
        from repro.ir import opcodes as oc
        t = next(i for i, r in enumerate(a.records) if r[R_OP] == oc.STORE)
        b, interp = traced_run(FaultPlan(trigger=t, mode="result", bit=0))
        assert interp.fault_record.fired
        assert a.first_divergence(b) is None

    def test_control_divergence_detected(self):
        a, _ = traced_run()
        # flip the sign of a[5]'s stored value: 10.0 -> -10.0 changes the
        # `a[i] > 4.0` branch on the last iteration
        from repro.ir import opcodes as oc
        stores = [i for i, r in enumerate(a.records)
                  if r[R_OP] == oc.STORE and r[R_DVAL] == 10.0]
        b, interp = traced_run(FaultPlan(trigger=stores[0], mode="result",
                                         bit=63))
        div = a.first_divergence(b)
        assert div is not None
        assert div > stores[0]


class TestTraceIndex:
    def test_queries_match_bruteforce(self):
        trace, _ = traced_run()
        index = TraceIndex(GoldenTrace.from_records(trace.records.suffix,
                                                    trace.module))
        base = trace.module.arrays["a"].base
        for loc in [base + i for i in range(6)]:
            brute_writes = [t for t, r in enumerate(trace.records)
                            if r[R_DLOC] == loc]
            brute_reads = [t for t, r in enumerate(trace.records)
                           if loc in (r[R_SLOCS] or ())]
            assert index.writes.get(loc, []) == brute_writes
            assert index.reads.get(loc, []) == brute_reads

    def test_next_write(self):
        trace, _ = traced_run()
        index = TraceIndex(GoldenTrace.from_records(trace.records.suffix,
                                                    trace.module))
        base = trace.module.arrays["a"].base
        w = index.writes[base][0]
        assert index.next_write_at_or_after(base, 0) == w
        assert index.next_write_at_or_after(base, w + 1) == INF

    def test_unknown_loc(self):
        trace, _ = traced_run()
        index = TraceIndex(GoldenTrace.from_records(trace.records.suffix,
                                                    trace.module))
        assert index.next_write_at_or_after(10 ** 9, 0) == INF
        assert index.last_read_in(10 ** 9, 0, len(trace)) is None
        assert not index.has_read_in(10 ** 9, 0, len(trace))

    @given(st.integers(min_value=0, max_value=400),
           st.integers(min_value=0, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_has_read_in_matches_bruteforce(self, a, b):
        trace, _ = traced_run()
        if a > b:
            a, b = b, a
        index = TraceIndex(GoldenTrace.from_records(trace.records.suffix,
                                                    trace.module))
        base = trace.module.arrays["a"].base
        brute = any(base in (r[R_SLOCS] or ())
                    for r in trace.records[a:b])
        assert index.has_read_in(base, a, b) == brute

    def test_call_defines_params(self):
        pb = ProgramBuilder("t")
        pb.func_source("""
def g(v: float) -> float:
    return v * 2.0

def main() -> float:
    return g(21.0)
""")
        module = pb.build()
        interp = Interpreter(module, trace=True)
        interp.run()
        golden = GoldenTrace.from_records(interp.records, module)
        index = TraceIndex(golden)
        from repro.ir import opcodes as oc
        from repro.trace.events import R_EXTRA
        call = next(r for r in golden if r[R_OP] == oc.CALL)
        uid, _callee, nargs = call[R_EXTRA]
        assert nargs == 1
        from repro.vm.interp import reg_loc
        ploc = reg_loc(uid, 0)
        assert index.write_count(ploc) >= 1
        assert index.read_count(ploc) >= 1  # v is read by the multiply
