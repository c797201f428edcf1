"""Interpreter-vs-compiled differential suite (the execution-tier contract).

The compiled tier must be byte-identical to the interpreter on every
observable: the dynamic record stream (compared by ``repr`` so ``1`` /
``1.0`` / ``True`` stay distinct), ``dyn_count``, program output, the
memory image, fault records (including ``dyn_index``), and the crash
surface (exception type, message, and the state at the raise).  The
suite drives hand-written kernels covering each opcode family, random
hypothesis kernels, random fault plans, and the fallback plus
tier-selection machinery.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import ProgramBuilder
from repro.ir.types import F64
from repro.trace.events import R_DLOC
from repro.vm import (CompiledInterpreter, FaultPlan, Interpreter,
                      compile_module, make_interpreter, resolve_exec_tier)


def build(source, *, arrays=(), scalars=(), pyglobals=None):
    pb = ProgramBuilder("t")
    for name, shape in arrays:
        pb.array(name, F64, shape)
    for name, init in scalars:
        pb.scalar(name, F64, init)
    pb.func_source(source, pyglobals=pyglobals)
    return pb.build(entry="main")


def observe(interp):
    """Run to completion or crash -> (result, (exc type name, message))."""
    try:
        return interp.run(), None
    except Exception as exc:
        return None, (type(exc).__name__, str(exc))


def assert_tier_parity(module, *, trace=False, fault=None,
                       max_instr=50_000_000, expect_compiled=True):
    a = Interpreter(module, trace=trace, fault=fault, max_instr=max_instr)
    b = CompiledInterpreter(module, trace=trace, fault=fault,
                            max_instr=max_instr)
    result_a, error_a = observe(a)
    result_b, error_b = observe(b)
    if expect_compiled and error_b is None:
        assert b.exec_tier == "compiled"  # no silent fallback
    assert (repr(result_b), error_b) == (repr(result_a), error_a)
    assert b.dyn_count == a.dyn_count
    assert b.output == a.output
    assert b.sp == a.sp
    # repr-compare: a flipped float can be nan, and two runs produce
    # distinct nan objects that list equality rejects (nan != nan)
    assert repr(b.mem) == repr(a.mem)
    assert repr(b.fault_record) == repr(a.fault_record)
    if trace:
        assert repr(b.records) == repr(a.records)
    return a, b


# one meaty kernel shared by the fault-parity tests: globals, calls,
# alloca'd frame arrays, float/int mixing and emit all in one stream
FAULT_SOURCE = """
def norm(k: int) -> float:
    buf = alloca_f64(4)
    for i in range(4):
        buf[i] = a[i] * float(k + 1)
    s = 0.0
    for i in range(4):
        s = s + buf[i] * buf[i]
    return sqrt(s)

def main() -> float:
    for i in range(4):
        a[i] = float(i) - 1.5
    acc = 0.0
    for k in range(3):
        acc = acc + norm(k)
    emit("acc %12.6e", acc)
    return acc
"""
FAULT_MODULE = build(FAULT_SOURCE, arrays=[("a", (4,))])
_CLEAN = Interpreter(FAULT_MODULE, trace=True)
_CLEAN.run()
N_DYN = _CLEAN.dyn_count


KERNELS = [
    ("int_wrap_div_bits", """
def main() -> int:
    a = 9223372036854775807
    b = a + 1
    c = 0 - 17
    d = (c // 5) * 1000 + c % 5
    e = ((a >> 3) ^ (b >> 62)) | 255
    f = 123 << 200
    g = lshr(c, 1)
    return b + d + e + f + g % 977
""", ()),
    ("float_intrinsics_casts", """
def main() -> float:
    x = 2.25
    y = sqrt(x) + exp(1.0) + log(2.0) + sin(0.5) + cos(0.5)
    z = floor(y) + fabs(0.0 - y) + fmin(x, y) + fmax(x, y) + 2.0 ** 8
    w = f32(0.1) + float(int(3.9))
    return y * z + w + i32(4294967296 + 7)
""", ()),
    ("control_flow", """
def main() -> int:
    s = 0
    for i in range(50):
        if i == 31:
            break
        if i % 3 == 0:
            continue
        s = s + (i if i % 2 == 0 else 0 - i)
    j = 0
    while j < 10 and s != 0:
        s = s + j
        j = j + 1
    if j == 10 or s // j > 100:
        s = s * 2
    return s
""", ()),
    ("calls_and_alloca", """
def helper() -> float:
    buf = alloca_f64(8)
    for i in range(8):
        buf[i] = float(i)
    return buf[5]

def add3(a: float, b: float, c: float) -> float:
    return a + b + c

def main() -> float:
    s = 0.0
    for k in range(10):
        s = s + helper()
    return add3(s, 2.0, add3(3.0, 4.0, 5.0))
""", ()),
    ("globals_2d", """
def bump() -> None:
    g[0, 0] = g[0, 0] + g[2, 3]

def main() -> float:
    for i in range(3):
        for j in range(4):
            g[i, j] = float(i * 10 + j)
    bump()
    bump()
    return g[0, 0] + g[1, 2]
""", (("g", (3, 4)),)),
    ("emit_formats", """
def main() -> None:
    emit("v=%12.6e i=%d", 1.5, 42)
    emit("plain")
    a = 1.0
    b = 0.0
    emit("%d", a / b)
""", ()),
    ("trap_div_zero", """
def main() -> int:
    a = 1
    b = 0
    return a // b
""", ()),
    ("trap_negative_shift", """
def main() -> int:
    a = 1
    b = 0 - 2
    return a << b
""", ()),
    ("trap_oob_load", """
def main() -> float:
    i = 100000
    return g[i]
""", (("g", (3,)),)),
    ("trap_negative_store", """
def main() -> float:
    i = 0 - 5
    g[i] = 1.0
    return g[0]
""", (("g", (3,)),)),
]


class TestKernelParity:
    @pytest.mark.parametrize("trace", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("name,source,arrays", KERNELS,
                             ids=[k[0] for k in KERNELS])
    def test_kernel(self, name, source, arrays, trace):
        module = build(source, arrays=arrays)
        assert_tier_parity(module, trace=trace)

    @pytest.mark.parametrize("trace", [False, True],
                             ids=["untraced", "traced"])
    def test_hang_budget(self, trace):
        module = build("def main() -> int:\n    s = 0\n"
                       "    while 0 == 0:\n        s = s + 1\n"
                       "    return s")
        a, b = assert_tier_parity(module, trace=trace, max_instr=5_000)
        assert a.dyn_count == b.dyn_count == 5_000

    @given(st.integers(-10 ** 9, 10 ** 9),
           st.integers(-10 ** 9, 10 ** 9), st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_random_int_kernels(self, x, y, n):
        module = build(
            "def main() -> int:\n"
            "    x = X\n"
            "    y = Y\n"
            "    s = 0\n"
            "    for i in range(N):\n"
            "        s = s + x * y + (x - y) // (i + 1) + ((x ^ i) | y) % 9\n"
            "        x = x + s % 1024\n"
            "    return s",
            pyglobals={"X": x, "Y": y, "N": n})
        assert_tier_parity(module, trace=True)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
           st.floats(min_value=0.1, max_value=100.0), st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_random_float_kernels(self, x, y, n):
        module = build(
            "def main() -> float:\n"
            "    x = X\n"
            "    y = Y\n"
            "    s = 0.0\n"
            "    for i in range(N):\n"
            "        s = s + sqrt(fabs(x)) * y + sin(x / y)\n"
            "        x = x * 0.5 + s\n"
            '    emit("s %12.6e", s)\n'
            "    return s",
            pyglobals={"X": x, "Y": y, "N": n})
        assert_tier_parity(module, trace=True)


class TestFaultParity:
    """Identical fault manifestations, records and crash surfaces."""

    @given(st.integers(0, N_DYN - 1), st.integers(0, 63))
    @settings(max_examples=40, deadline=None)
    def test_random_result_faults(self, trigger, bit):
        plan = FaultPlan(trigger=trigger, mode="result", bit=bit)
        assert_tier_parity(FAULT_MODULE, trace=True, fault=plan,
                           max_instr=200_000)

    @given(st.integers(0, N_DYN - 1), st.integers(0, 3),
           st.integers(0, 63))
    @settings(max_examples=25, deadline=None)
    def test_random_loc_faults(self, trigger, loc, bit):
        plan = FaultPlan(trigger=trigger, mode="loc", loc=loc, bit=bit)
        assert_tier_parity(FAULT_MODULE, trace=True, fault=plan,
                           max_instr=200_000)

    def test_register_loc_fault(self):
        idx, rec = next((i, r) for i, r in enumerate(_CLEAN.records)
                        if r[R_DLOC] is not None and r[R_DLOC] < 0)
        plan = FaultPlan(trigger=idx + 1, mode="loc",
                         loc=rec[R_DLOC], bit=7)
        a, b = assert_tier_parity(FAULT_MODULE, trace=True, fault=plan)
        assert a.fault_record.fired and b.fault_record.fired

    def test_fault_record_dyn_index_semantics(self):
        # a STORE into a[0]: fires in both modes (value def + live loc)
        trigger = next(i for i, r in enumerate(_CLEAN.records)
                       if r[R_DLOC] == 0)
        for mode, extra in (("result", {}), ("loc", {"loc": 0})):
            plan = FaultPlan(trigger=trigger, mode=mode, bit=1, **extra)
            a, b = assert_tier_parity(FAULT_MODULE, fault=plan)
            assert a.fault_record.fired and b.fault_record.fired
            assert b.fault_record.dyn_index == \
                a.fault_record.dyn_index == trigger

    def test_trigger_beyond_execution_never_fires(self):
        plan = FaultPlan(trigger=10 ** 9, mode="result", bit=0)
        a, b = assert_tier_parity(FAULT_MODULE, trace=True, fault=plan)
        assert not a.fault_record.fired and not b.fault_record.fired


class TestFallbacks:
    def test_unsupported_opcode_falls_back_to_interp(self):
        module = build("def main() -> int:\n    return 1")
        fn = module.functions[module.entry]
        op, dest, srcs, aux, line = fn.code[0]
        fn.code[0] = (99, dest, srcs, aux, line)
        assert compile_module(module, False) is None
        a, b = Interpreter(module), CompiledInterpreter(module)
        _, error_a = observe(a)
        _, error_b = observe(b)
        assert b.exec_tier == "interp"
        assert error_b == error_a and error_a is not None

    def test_communicator_runs_interpreted(self, monkeypatch):
        from repro.parallel.comm import SimComm
        from repro.parallel.demo import N_LOCAL, build_dot_product
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        module = build_dot_product()
        # the default tier hands back a CompiledInterpreter, which must
        # still execute a communicator-attached run interpreted
        b = make_interpreter(module, comm=SimComm(1), rank=0)
        assert isinstance(b, CompiledInterpreter)
        b.run()
        assert b.exec_tier == "interp"
        assert b.read_scalar("result") == 2.0 * sum(range(N_LOCAL))

    def test_codegen_bug_safety_net_adopts_twin_state(self):
        module = build("def main() -> int:\n    s = 0\n"
                       "    for i in range(5):\n        s = s + i\n"
                       "    return s")
        compiled = compile_module(module, False)

        def boom(vm, frame, limit):
            raise RuntimeError("injected codegen bug")

        originals = [fn.body for fn in compiled.fns]
        for fn in compiled.fns:
            fn.body = boom
        try:
            b = CompiledInterpreter(module)
            with pytest.raises(RuntimeError, match="injected codegen bug"):
                b.run()
        finally:
            for fn, body in zip(compiled.fns, originals):
                fn.body = body
        # the replay twin's exact state was adopted before the re-raise
        a = Interpreter(module)
        a.run()
        assert b.exec_tier == "interp"
        assert b.finished and b.result == 10
        assert b.dyn_count == a.dyn_count
        assert b.mem == a.mem


class TestTierSelection:
    def test_default_is_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        assert resolve_exec_tier() == "compiled"
        module = build("def main() -> int:\n    return 4")
        assert type(make_interpreter(module)) is CompiledInterpreter

    def test_env_selects_interp_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "interp")
        assert resolve_exec_tier() == "interp"
        module = build("def main() -> int:\n    return 4")
        assert type(make_interpreter(module)) is Interpreter

    def test_env_selects_compiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "compiled")
        assert resolve_exec_tier() == "compiled"
        module = build("def main() -> int:\n    return 4")
        interp = make_interpreter(module)
        assert isinstance(interp, CompiledInterpreter)
        assert interp.run() == 4
        assert interp.exec_tier == "compiled"

    def test_explicit_arg_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "compiled")
        assert resolve_exec_tier("interp") == "interp"
        module = build("def main() -> int:\n    return 4")
        assert type(make_interpreter(module, exec_tier="interp")) \
            is Interpreter

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            resolve_exec_tier("turbo")


class TestDefaultTierNoSilentFallback:
    """Default paths run compiled: a regression that quietly routed
    them back through the interpreter would keep every parity check
    green while losing the speedup, so assert the tier that executed."""

    @pytest.mark.parametrize("app", ["kmeans", "cg", "lulesh"])
    def test_default_campaign_runs_compiled(self, app, monkeypatch):
        from repro.apps import REGISTRY
        from repro.core import FlipTracker
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        with FlipTracker(REGISTRY.build(app), seed=7, workers=1) as ft:
            result = ft.whole_program_campaign("internal", n=4)
            assert ft.engine.stats()["exec_tier"] == "compiled"
            assert result.total == 4
            probe = ft.program.fresh_interpreter()
            probe.run(ft.program.entry)
            assert probe.exec_tier == "compiled"
