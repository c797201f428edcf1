"""Interpreter semantics: arithmetic, control, frames, crashes, faults."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import ProgramBuilder
from repro.ir.types import F64, I64
from repro.vm import FaultPlan, Interpreter
from repro.vm.errors import ComputeTrap, HangError, MemoryFault


def run_expr(body: str, ret: str = "float", pyglobals=None):
    """Compile 'def main() -> <ret>: <body>' and run it."""
    pb = ProgramBuilder("t")
    pb.func_source(f"def main() -> {ret}:\n"
                   + "\n".join("    " + ln for ln in body.splitlines()),
                   pyglobals=pyglobals)
    interp = Interpreter(pb.build())
    return interp.run(), interp


class TestArithmetic:
    def test_float_ops(self):
        v, _ = run_expr("return 2.5 * 4.0 - 1.0 / 2.0 + 3.0")
        assert v == 2.5 * 4.0 - 1.0 / 2.0 + 3.0

    def test_int_ops(self):
        v, _ = run_expr("a = 17\nb = 5\nreturn a // b * 100 + a % b", "int")
        assert v == 3 * 100 + 2

    def test_c_division_negative(self):
        v, _ = run_expr("a = -17\nreturn a // 5", "int")
        assert v == -3  # C semantics, not Python's -4

    def test_c_modulo_negative(self):
        v, _ = run_expr("a = -17\nreturn a % 5", "int")
        assert v == -2

    def test_int64_wraparound(self):
        v, _ = run_expr("a = 9223372036854775807\nreturn a + 1", "int")
        assert v == -(2 ** 63)

    def test_mixed_promotion(self):
        v, _ = run_expr("a = 3\nreturn a * 0.5")
        assert v == 1.5

    def test_bitwise(self):
        v, _ = run_expr("a = 0b1100\nreturn (a >> 2) | (a << 1) ^ 1", "int")
        assert v == (0b1100 >> 2) | (0b1100 << 1) ^ 1

    def test_shift_semantics(self):
        v, _ = run_expr("a = -8\nreturn a >> 1", "int")
        assert v == -4  # arithmetic shift

    def test_float_div_by_zero_is_inf(self):
        v, _ = run_expr("a = 1.0\nb = 0.0\nreturn a / b")
        assert v == math.inf

    def test_int_div_by_zero_traps(self):
        with pytest.raises(ComputeTrap):
            run_expr("a = 1\nb = 0\nreturn a // b", "int")

    def test_negative_shift_traps(self):
        with pytest.raises(ComputeTrap):
            run_expr("a = 1\nb = 0 - 2\nreturn a << b", "int")

    def test_huge_shift_is_zero(self):
        v, _ = run_expr("a = 123\nb = 200\nreturn a << b", "int")
        assert v == 0

    def test_pow(self):
        v, _ = run_expr("return 2.0 ** 10")
        assert v == 1024.0

    @given(st.integers(min_value=-10 ** 9, max_value=10 ** 9),
           st.integers(min_value=-10 ** 9, max_value=10 ** 9))
    @settings(max_examples=25, deadline=None)
    def test_int_add_mul_matches_python(self, a, b):
        v, _ = run_expr(f"x = {a}\ny = {b}\nreturn x * y + x - y", "int")
        assert v == a * b + a - b


class TestIntrinsics:
    def test_sqrt(self):
        v, _ = run_expr("return sqrt(2.25)")
        assert v == 1.5

    def test_sqrt_negative_is_nan(self):
        v, _ = run_expr("a = 0.0 - 4.0\nreturn sqrt(a)")
        assert math.isnan(v)

    def test_fabs_minmax(self):
        v, _ = run_expr("a = 0.0 - 3.0\nreturn fabs(a) + fmin(1.0, 2.0) "
                        "+ fmax(1.0, 2.0)")
        assert v == 3.0 + 1.0 + 2.0

    def test_exp_log(self):
        v, _ = run_expr("return log(exp(2.0))")
        assert abs(v - 2.0) < 1e-12

    def test_exp_overflow_inf(self):
        v, _ = run_expr("return exp(1.0e4)")
        assert v == math.inf

    def test_log_zero_neginf(self):
        v, _ = run_expr("return log(0.0)")
        assert v == -math.inf

    def test_casts(self):
        v, _ = run_expr("return int(3.9)", "int")
        assert v == 3
        v, _ = run_expr("a = 0.0 - 3.9\nreturn int(a)", "int")
        assert v == -3

    def test_i32_truncation(self):
        v, _ = run_expr("a = 4294967296 + 5\nreturn i32(a)", "int")
        assert v == 5

    def test_f32_precision_loss(self):
        v, _ = run_expr("return f32(0.1)")
        assert v != 0.1 and abs(v - 0.1) < 1e-7

    def test_lshr(self):
        v, _ = run_expr("a = 0 - 8\nreturn lshr(a, 1)", "int")
        assert v == ((-8) & ((1 << 64) - 1)) >> 1


class TestControlFlow:
    def test_if_else(self):
        v, _ = run_expr("a = 5\nif a > 3:\n    return 1\nelse:\n"
                        "    return 2", "int")
        assert v == 1

    def test_while(self):
        v, _ = run_expr("s = 0\ni = 0\nwhile i < 10:\n    s = s + i\n"
                        "    i = i + 1\nreturn s", "int")
        assert v == 45

    def test_for_negative_step(self):
        v, _ = run_expr("s = 0\nfor i in range(10, 0, -2):\n    s = s + i\n"
                        "return s", "int")
        assert v == 10 + 8 + 6 + 4 + 2

    def test_break_continue(self):
        v, _ = run_expr(
            "s = 0\nfor i in range(100):\n    if i == 7:\n        break\n"
            "    if i % 2 == 0:\n        continue\n    s = s + i\n"
            "return s", "int")
        assert v == 1 + 3 + 5

    def test_short_circuit_and(self):
        # the second operand would trap on evaluation; and must skip it
        v, _ = run_expr("a = 0\nb = 10\nif a != 0 and b // a > 1:\n"
                        "    return 1\nreturn 2", "int")
        assert v == 2

    def test_short_circuit_or(self):
        v, _ = run_expr("a = 0\nb = 10\nif a == 0 or b // a > 1:\n"
                        "    return 1\nreturn 2", "int")
        assert v == 1

    def test_ternary(self):
        v, _ = run_expr("a = 4\nreturn 1.5 if a > 2 else 2.5")
        assert v == 1.5

    def test_hang_detection(self):
        pb = ProgramBuilder("t")
        pb.func_source("def main() -> int:\n    while 1 == 1:\n"
                       "        pass\n    return 0")
        interp = Interpreter(pb.build(), max_instr=10_000)
        with pytest.raises(HangError):
            interp.run()


class TestMemoryAndFrames:
    def test_global_arrays(self):
        pb = ProgramBuilder("t")
        pb.array("a", F64, (3, 4))
        pb.func_source("""
def main() -> float:
    for i in range(3):
        for j in range(4):
            a[i, j] = float(i * 10 + j)
    return a[2, 3]
""")
        assert Interpreter(pb.build()).run() == 23.0

    def test_out_of_bounds_crashes(self):
        pb = ProgramBuilder("t")
        pb.array("a", F64, (3,))
        pb.func_source("def main() -> float:\n    i = 100000\n"
                       "    return a[i]")
        with pytest.raises(MemoryFault):
            Interpreter(pb.build()).run()

    def test_negative_index_crashes(self):
        pb = ProgramBuilder("t")
        pb.array("a", F64, (3,))
        pb.func_source("def main() -> float:\n    i = 0 - 5\n"
                       "    return a[i]")
        with pytest.raises(MemoryFault):
            Interpreter(pb.build()).run()

    def test_alloca_stack_discipline(self):
        pb = ProgramBuilder("t")
        pb.func_source("""
def helper() -> float:
    buf = alloca_f64(8)
    for i in range(8):
        buf[i] = float(i)
    return buf[5]

def main() -> float:
    s = 0.0
    for k in range(10):
        s = s + helper()
    return s
""")
        interp = Interpreter(pb.build())
        sp0 = interp.sp
        assert interp.run() == 50.0
        assert interp.sp == sp0  # stack fully unwound

    def test_calls_and_returns(self):
        pb = ProgramBuilder("t")
        pb.func_source("""
def add3(a: float, b: float, c: float) -> float:
    return a + b + c

def main() -> float:
    return add3(1.0, 2.0, add3(3.0, 4.0, 5.0))
""")
        assert Interpreter(pb.build()).run() == 15.0

    def test_scalar_globals(self):
        pb = ProgramBuilder("t")
        pb.scalar("acc", F64, 10.0)
        pb.func_source("""
def bump() -> None:
    acc = acc + 1.0

def main() -> float:
    bump()
    bump()
    return acc
""")
        interp = Interpreter(pb.build())
        assert interp.run() == 12.0
        assert interp.read_scalar("acc") == 12.0


class TestOutput:
    def test_emit_formats(self):
        pb = ProgramBuilder("t")
        pb.func_source('def main() -> None:\n'
                       '    emit("v=%12.6e i=%d", 1.5, 42)\n'
                       '    emit("plain")')
        interp = Interpreter(pb.build())
        interp.run()
        assert interp.output == ["v=1.500000e+00 i=42", "plain"]

    def test_emit_bad_value_does_not_crash(self):
        pb = ProgramBuilder("t")
        pb.func_source('def main() -> None:\n'
                       '    a = 1.0\n'
                       '    b = 0.0\n'
                       '    emit("%d", a / b)')
        interp = Interpreter(pb.build())
        interp.run()
        assert len(interp.output) == 1


class TestFaultInjection:
    def _program(self):
        pb = ProgramBuilder("t")
        pb.array("a", F64, (4,))
        pb.func_source("""
def main() -> float:
    for i in range(4):
        a[i] = 1.0
    s = 0.0
    for i in range(4):
        s = s + a[i]
    return s
""")
        return pb.build()

    def test_no_fault_baseline(self):
        assert Interpreter(self._program()).run() == 4.0

    def test_result_fault_changes_output(self):
        module = self._program()
        clean = Interpreter(module, trace=True)
        clean.run()
        # find a dynamic store of 1.0 into the array and flip its sign bit
        from repro.trace.events import R_DLOC, R_OP
        from repro.ir import opcodes as oc
        from repro.trace.events import Trace
        target = next(t for t, r in enumerate(Trace(clean.records, module))
                      if r[R_OP] == oc.STORE and r[R_DLOC] == 0)
        plan = FaultPlan(trigger=target, mode="result", bit=63)
        faulty = Interpreter(module, fault=plan)
        assert faulty.run() == 2.0  # one +1.0 became -1.0
        assert faulty.fault_record.fired
        assert faulty.fault_record.old_value == 1.0
        assert faulty.fault_record.new_value == -1.0

    def test_loc_fault_on_memory(self):
        module = self._program()
        clean = Interpreter(module, trace=True)
        clean.run()
        n = clean.dyn_count
        # flip the sign of a[2] midway through execution
        plan = FaultPlan(trigger=n // 2, mode="loc", bit=63, loc=2)
        faulty = Interpreter(module, fault=plan)
        result = faulty.run()
        assert faulty.fault_record.fired
        assert result != 4.0

    def test_trigger_beyond_execution_never_fires(self):
        module = self._program()
        plan = FaultPlan(trigger=10 ** 9, mode="result", bit=0)
        faulty = Interpreter(module, fault=plan)
        assert faulty.run() == 4.0
        assert not faulty.fault_record.fired

    def test_faulty_and_clean_dyn_counts_match_when_benign(self):
        module = self._program()
        clean = Interpreter(module)
        clean.run()
        plan = FaultPlan(trigger=5, mode="result", bit=0)
        faulty = Interpreter(module, fault=plan)
        faulty.run()
        assert faulty.dyn_count == clean.dyn_count

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(trigger=-1, mode="result", bit=0)
        with pytest.raises(ValueError):
            FaultPlan(trigger=0, mode="bogus", bit=0)
        with pytest.raises(ValueError):
            FaultPlan(trigger=0, mode="loc", bit=0)  # missing loc


class TestLocFaultLiveness:
    """Regression: 'loc' flips must target *live* memory only.

    The bounds check used to compare against ``len(self.mem)`` — which
    includes the pre-touched stack reserve — so a plan aimed at a dead
    stack word reported ``fired=True`` and corrupted a cell the program
    never owned, instead of being the miss the paper's model requires.
    """

    def _module(self):
        pb = ProgramBuilder("t")
        pb.scalar("g", F64, 7.0)
        pb.func_source("def main() -> float:\n    return g + 1.0")
        return pb.build()

    def test_dead_stack_loc_is_a_miss(self):
        module = self._module()
        dead = module.stack_base + 100  # above live sp, inside reserve
        plan = FaultPlan(trigger=0, mode="loc", bit=3, loc=dead)
        interp = Interpreter(module, fault=plan)
        assert dead < len(interp.mem)  # the old check would have "hit"
        assert interp.run() == 8.0
        assert not interp.fault_record.fired
        assert interp.mem[dead] == 0  # dead word left untouched

    def test_live_global_loc_still_fires(self):
        module = self._module()
        loc = module.scalars["g"].base
        plan = FaultPlan(trigger=0, mode="loc", bit=63, loc=loc)
        interp = Interpreter(module, fault=plan)
        assert interp.run() == -6.0  # sign of g flipped before the load
        assert interp.fault_record.fired


class TestTraceRecords:
    def test_trace_length_equals_dyn_count(self):
        pb = ProgramBuilder("t")
        pb.func_source("def main() -> int:\n    s = 0\n"
                       "    for i in range(10):\n        s = s + i\n"
                       "    return s")
        interp = Interpreter(pb.build(), trace=True)
        interp.run()
        assert len(interp.records) == interp.dyn_count

    def test_untraced_run_same_dyn_count(self):
        pb = ProgramBuilder("t")
        pb.func_source("def main() -> int:\n    s = 0\n"
                       "    for i in range(10):\n        s = s + i\n"
                       "    return s")
        module = pb.build()
        a = Interpreter(module, trace=True)
        a.run()
        b = Interpreter(module)
        b.run()
        assert a.dyn_count == b.dyn_count
        assert b.records is None
