"""IR construction, layout, verification and printing tests."""

import pytest

from repro.ir import opcodes as oc
from repro.ir.builder import IRBuilder
from repro.ir.function import Function, SLOT_LIMIT
from repro.ir.instructions import Instr, const, reg
from repro.ir.module import Module
from repro.ir.printer import format_function, format_module
from repro.ir.types import F64, I1, I32, I64, promote, python_type_of
from repro.ir.verifier import VerificationError, verify_module


def make_trivial(ret=0):
    m = Module("t")
    fn = m.add_function(Function("main", []))
    b = IRBuilder(fn)
    b.ret(ret)
    return m, fn, b


class TestTypes:
    def test_bits(self):
        assert I1.bits == 1 and I32.bits == 32 and I64.bits == 64
        assert F64.bits == 64

    def test_promote(self):
        assert promote(I64, F64) is F64
        assert promote(I32, I64) is I64
        assert promote(I1, I1) is I1

    def test_python_type_of(self):
        assert python_type_of(True) is I1
        assert python_type_of(3) is I64
        assert python_type_of(3.5) is F64
        with pytest.raises(TypeError):
            python_type_of("s")

    def test_zero(self):
        assert F64.zero() == 0.0 and isinstance(F64.zero(), float)
        assert I64.zero() == 0 and isinstance(I64.zero(), int)


class TestModuleLayout:
    def test_scalar_then_arrays(self):
        m = Module()
        m.add_scalar("s", F64, 2.5)
        m.add_array("a", F64, (4,))
        m.add_array("b", I64, (2, 3))
        fn = m.add_function(Function("main", []))
        IRBuilder(fn).ret()
        m.finalize("main")
        assert m.scalars["s"].base == 0
        assert m.arrays["a"].base == 1
        assert m.arrays["b"].base == 5
        assert m.globals_size == 11

    def test_initial_memory(self):
        m = Module()
        m.add_scalar("s", F64, 2.5)
        m.add_array("a", I64, (3,), init=7)
        m.add_array("c", F64, (2,), init=[1.0, 2.0])
        fn = m.add_function(Function("main", []))
        IRBuilder(fn).ret()
        m.finalize("main")
        mem = m.initial_memory()
        assert mem[0] == 2.5
        assert mem[1:4] == [7, 7, 7]
        assert mem[4:6] == [1.0, 2.0]

    def test_addr_info(self):
        m = Module()
        m.add_scalar("s", I64)
        m.add_array("a", I32, (2, 2))
        fn = m.add_function(Function("main", []))
        IRBuilder(fn).ret()
        m.finalize("main")
        assert m.addr_info(0) == ("s", I64, 0)
        assert m.addr_info(3) == ("a", I32, 2)
        assert m.addr_info(99) is None

    def test_strides_row_major(self):
        m = Module()
        arr = m.add_array("a", F64, (2, 3, 4))
        assert arr.strides == (12, 4, 1)
        assert arr.size == 24

    def test_bad_init_length(self):
        m = Module()
        m.add_array("a", F64, (3,), init=[1.0])
        fn = m.add_function(Function("main", []))
        IRBuilder(fn).ret()
        m.finalize("main")
        with pytest.raises(ValueError):
            m.initial_memory()

    def test_duplicate_global(self):
        m = Module()
        m.add_scalar("s", F64)
        with pytest.raises(ValueError):
            m.add_array("s", F64, (1,))

    def test_missing_entry(self):
        m = Module()
        with pytest.raises(ValueError):
            m.finalize("nope")


class TestFunctionFinalize:
    def test_branch_targets_resolve(self):
        m = Module()
        fn = m.add_function(Function("main", []))
        b = IRBuilder(fn)
        b.br("next")
        nxt = b.new_block("next")
        b.set_block(nxt)
        b.ret(1)
        m.finalize("main")
        assert fn.code[0][0] == oc.BR
        assert fn.code[0][3] == fn.pc_of_block["next"]

    def test_unknown_label(self):
        m = Module()
        fn = m.add_function(Function("main", []))
        IRBuilder(fn).br("ghost")
        with pytest.raises(ValueError):
            m.finalize("main")

    def test_unterminated_block(self):
        m = Module()
        fn = m.add_function(Function("main", []))
        IRBuilder(fn).mov(1)
        with pytest.raises(ValueError):
            m.finalize("main")

    def test_duplicate_block(self):
        fn = Function("f", [])
        fn.new_block("b")
        with pytest.raises(ValueError):
            fn.new_block("b")


class TestBuilder:
    def test_emit_after_terminator_rejected(self):
        _m, _fn, b = make_trivial()
        with pytest.raises(ValueError):
            b.mov(1)

    def test_operand_coercion(self):
        assert IRBuilder.operand(5) == (True, 5)
        assert IRBuilder.operand(2.5) == (True, 2.5)
        assert IRBuilder.operand(reg(3)) == (False, 3)
        with pytest.raises(TypeError):
            IRBuilder.operand("x")

    def test_dest_allocation(self):
        m = Module()
        fn = m.add_function(Function("f", ["a"]))
        b = IRBuilder(fn)
        d1 = b.binop(oc.ADD, reg(0), 1)
        d2 = b.binop(oc.ADD, reg(d1), 1)
        b.ret(reg(d2))
        assert d1 == 1 and d2 == 2
        assert fn.nslots == 3


class TestVerifier:
    def test_valid_module_passes(self):
        m, _fn, _b = make_trivial()
        m.finalize("main")
        verify_module(m)

    def test_arity_violation(self):
        m = Module()
        fn = m.add_function(Function("main", []))
        blk = fn.new_block("entry")
        blk.append(Instr(oc.ADD, dest=0, srcs=(const(1),)))
        fn.nslots = 1
        blk.append(Instr(oc.RET))
        with pytest.raises(VerificationError, match="arity"):
            m.finalize("main")
            verify_module(m)

    def test_missing_dest(self):
        m = Module()
        fn = m.add_function(Function("main", []))
        blk = fn.new_block("entry")
        blk.append(Instr(oc.ADD, dest=None, srcs=(const(1), const(2))))
        blk.append(Instr(oc.RET))
        m.finalize("main")
        with pytest.raises(VerificationError, match="destination"):
            verify_module(m)

    def test_slot_out_of_range(self):
        m = Module()
        fn = m.add_function(Function("main", []))
        blk = fn.new_block("entry")
        blk.append(Instr(oc.MOV, dest=50, srcs=(const(1),)))
        blk.append(Instr(oc.RET))
        m.finalize("main")
        with pytest.raises(VerificationError, match="out of range"):
            verify_module(m)

    def test_undefined_callee(self):
        m = Module()
        fn = m.add_function(Function("main", []))
        b = IRBuilder(fn)
        b.call("ghost", ())
        b.ret()
        with pytest.raises(ValueError):
            m.finalize("main")

    def test_call_arg_count(self):
        m = Module()
        callee = m.add_function(Function("g", ["a", "b"]))
        IRBuilder(callee).ret(0)
        fn = m.add_function(Function("main", []))
        b = IRBuilder(fn)
        b.call("g", (const(1),))
        b.ret()
        m.finalize("main")
        with pytest.raises(VerificationError, match="args"):
            verify_module(m)

    def test_emit_needs_format(self):
        m = Module()
        fn = m.add_function(Function("main", []))
        blk = fn.new_block("entry")
        blk.append(Instr(oc.EMIT, srcs=(), aux=123))
        blk.append(Instr(oc.RET))
        m.finalize("main")
        with pytest.raises(VerificationError, match="format"):
            verify_module(m)


class TestPrinter:
    def test_function_dump(self):
        m = Module()
        fn = m.add_function(Function("f", ["n"]))
        b = IRBuilder(fn)
        d = b.binop(oc.ADD, reg(0), 1)
        b.ret(reg(d))
        m.finalize("main" if "main" in m.functions else "f")
        text = format_function(fn)
        assert "@f(n)" in text
        assert "add" in text

    def test_module_dump(self):
        m = Module()
        m.add_scalar("s", F64, 1.0)
        m.add_array("a", I64, (3,))
        fn = m.add_function(Function("main", []))
        IRBuilder(fn).ret()
        m.finalize("main")
        text = format_module(m)
        assert "@s" in text and "@a[3]" in text and "@main" in text
