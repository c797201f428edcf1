"""Compiled execution tier: lowers finalized modules to specialized Python.

The interpreter (:mod:`repro.vm.interp`) decodes every instruction tuple
on every dynamic execution — operand unpacking, const tests and opcode
dispatch are paid millions of times per faulty run.  This module pays
them **once**, at lowering time: each function is translated to one
generated Python function whose body is straight-line code per basic
block with constants, register slots and record shapes baked in as
literals.  ``exec`` of the generated source yields per-function
closures; a small trampoline (:class:`CompiledInterpreter`) drives them
frame by frame.

Contract (enforced by ``tests/test_exec_compiled.py``): the compiled
tier is **byte-identical** to the interpreter across every observable —
dynamic record stream, :class:`~repro.vm.fault.FaultRecord` (including
``dyn_index``), crash surface (exception type *and* ``dyn_count``),
EMIT output, final memory and result.

How fault injection stays free
------------------------------
Generated code contains **no** per-instruction fault checks.  Instead
every basic-block segment begins with a single guard
``if dyn + L > limit: return RES_LIMIT`` where ``limit`` is the next
"interesting" dynamic index (the fault trigger if still pending, else
the hang budget).  When a segment would cross the limit the trampoline
falls back to :meth:`Interpreter.step` one instruction at a time — the
*interpreter's* pre-hook applies the fault / raises ``HangError`` with
its exact semantics — and resumes compiled execution at the next
segment entry.  Fault-free runs and all non-trigger instructions
therefore pay one integer compare per basic block, not per instruction.

Fallback rules
--------------
* A module using an opcode the lowerer does not know → ``compile_module``
  returns ``None`` and :class:`CompiledInterpreter` runs fully
  interpreted (:class:`UnsupportedProgram` never escapes).
* A communicator-attached run (simulated MPI with peers, which can
  block/resume) stays interpreted; ``step()`` is inherited unchanged,
  so the rank scheduler always drives the interpreter loop.
* An *unanticipated* exception inside generated code (e.g. a
  type-confused value produced by an earlier bit flip) deterministically
  replays the whole run through a twin interpreter and re-raises, so
  even pathological crashes keep interpreter-exact state.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.ir import opcodes as oc
from repro.ir.module import Module
from repro.trace.events import static_table
from repro.vm import bitops
from repro.vm.errors import ComputeTrap, HangError, MemoryFault, VMError
from repro.vm.fault import FaultPlan
from repro.vm.interp import Interpreter

#: generated-body return codes
RES_DONE = 0      # entry function returned; vm.result is set
RES_REENTER = 1   # frame switch (CALL/RET); re-dispatch on the new top frame
RES_LIMIT = 2     # next segment would cross ``limit``; interpret a window

_CACHE_ATTR = "_compiled_tier_cache"


class UnsupportedProgram(Exception):
    """Lowering found a construct the codegen cannot translate."""


class CompiledFunction:
    __slots__ = ("body", "entries")

    def __init__(self, body, entries: frozenset):
        self.body = body          # body(vm, frame, limit) -> RES_* code
        self.entries = entries    # pcs at which the body may be (re)entered


class CompiledModule:
    __slots__ = ("fns", "source")

    def __init__(self, fns: list, source: str):
        self.fns = fns            # CompiledFunction, indexed by Function.index
        self.source = source      # generated Python (debugging / inspection)


# ---------------------------------------------------------------- lowering

#: exec-namespace helpers; underscore names keep generated code compact
_HELPERS = {
    "_wrap64": bitops.wrap64,
    "_wrap32": bitops.wrap32,
    "_fptosi": bitops.fptosi,
    "_fptrunc32": bitops.fptrunc32,
    "_ieee_div": bitops.ieee_div,
    "_c_div": bitops.c_div,
    "_c_rem": bitops.c_rem,
    "_M64": bitops.MASK64,
    "_sqrt": math.sqrt,
    "_exp": math.exp,
    "_log": math.log,
    "_sin": math.sin,
    "_cos": math.cos,
    "_floor": math.floor,
    "_pow": math.pow,
    "_isfinite": math.isfinite,
    "_inf": math.inf,
    "_nan": math.nan,
    "_MemoryFault": MemoryFault,
    "_ComputeTrap": ComputeTrap,
    "_VMError": VMError,
}

#: ops whose result expression is a pure single-use-per-operand expression
_SIMPLE = {
    oc.FADD: "{a} + {b}",
    oc.FSUB: "{a} - {b}",
    oc.FMUL: "{a} * {b}",
    oc.ICMP_EQ: "1 if {a} == {b} else 0",
    oc.FCMP_EQ: "1 if {a} == {b} else 0",
    oc.ICMP_NE: "1 if {a} != {b} else 0",
    oc.FCMP_NE: "1 if {a} != {b} else 0",
    oc.ICMP_SLT: "1 if {a} < {b} else 0",
    oc.FCMP_LT: "1 if {a} < {b} else 0",
    oc.ICMP_SLE: "1 if {a} <= {b} else 0",
    oc.FCMP_LE: "1 if {a} <= {b} else 0",
    oc.ICMP_SGT: "1 if {a} > {b} else 0",
    oc.FCMP_GT: "1 if {a} > {b} else 0",
    oc.ICMP_SGE: "1 if {a} >= {b} else 0",
    oc.FCMP_GE: "1 if {a} >= {b} else 0",
    oc.AND: "{a} & {b}",
    oc.OR: "{a} | {b}",
    oc.XOR: "{a} ^ {b}",
    oc.MOV: "{a}",
    oc.NEG: "_wrap64(-{a})",
    oc.FNEG: "-{a}",
    oc.NOT: "1 if {a} == 0 else 0",
    oc.SITOFP: "float({a})",
    oc.FPTOSI: "_fptosi({a})",
    oc.TRUNC32: "_wrap32({a})",
    oc.FPTRUNC32: "_fptrunc32({a})",
    oc.FABS: "abs({a})",
    oc.IABS: "_wrap64(abs({a}))",
    oc.MPI_RANK: "vm.rank",
    oc.MPI_SIZE: "1",
}

#: wrapping int arithmetic: compute, then range-check into wrap64
_WRAPPING = {oc.ADD: "+", oc.SUB: "-", oc.MUL: "*"}

#: min/max family: {a} and {b} each read twice
_SELECT2 = {oc.FMIN: "<", oc.IMIN: "<", oc.FMAX: ">", oc.IMAX: ">"}

_SUPPORTED = (set(_SIMPLE) | set(_WRAPPING) | set(_SELECT2) | {
    oc.SDIV, oc.SREM, oc.FDIV, oc.SHL, oc.LSHR, oc.ASHR,
    oc.SQRT, oc.EXP, oc.LOG, oc.SIN, oc.COS, oc.FLOOR, oc.POW,
    oc.LOAD, oc.STORE, oc.ALLOCA, oc.BR, oc.CBR, oc.CALL, oc.RET,
    oc.EMIT, oc.NOP,
    oc.MPI_SEND, oc.MPI_RECV, oc.MPI_ALLREDUCE, oc.MPI_BCAST,
    oc.MPI_BARRIER,
})

_FRAME_EXITS = (oc.CALL, oc.BR, oc.CBR, oc.RET)


class _Pool:
    """Values that cannot round-trip through ``repr`` get namespace slots."""

    def __init__(self):
        self.ns: dict = {}
        self._n = 0

    def add(self, value) -> str:
        name = f"_k{self._n}"
        self._n += 1
        self.ns[name] = value
        return name


def _const_expr(value, pool: _Pool) -> str:
    if value is None or value is True or value is False:
        return repr(value)
    cls = value.__class__
    if cls is int:
        return f"({value!r})"
    if cls is float:
        # repr round-trips finite floats exactly; inf/nan need the pool
        if math.isfinite(value):
            return f"({value!r})"
        return pool.add(value)
    if cls is str:
        return repr(value)
    return pool.add(value)


def _tup(items: list) -> str:
    if not items:
        return "()"
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


class _FunctionLowering:
    """Emits one ``_body_<index>`` function for one finalized Function."""

    def __init__(self, fn, trace: bool, pool: _Pool, lines: list,
                 sid_base: int):
        self.fn = fn
        self.trace = trace
        self.sid_base = sid_base
        self.pool = pool
        self.lines = lines
        self.indent = 0

    def w(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    # -------------------------------------------------------- operands
    def operand(self, i: int, src, multi: bool) -> str:
        """Expression for operand ``i``; materializes a ``_v{i}`` temp
        when the value is read more than once (or a record needs it).

        Temps are cached per instruction: a second request for the same
        operand returns the existing name instead of re-emitting the
        read — essential because the commit record runs *after*
        ``regs[dest]`` is overwritten, which may alias a source slot.
        """
        if i in self._temps:
            return self._temps[i]
        is_const, payload = src
        if is_const:
            expr = _const_expr(payload, self.pool)
            if multi and len(expr) > 8:
                self.w(f"_v{i} = {expr}")
                expr = f"_v{i}"
                self._temps[i] = expr
            return expr
        expr = f"regs[{payload}]"
        if multi or self.trace:
            self.w(f"_v{i} = {expr}")
            expr = f"_v{i}"
            self._temps[i] = expr
        return expr

    def reg(self, slot: int) -> str:
        """Name of register ``slot``'s location, computed once per
        segment (records of one segment share the int)."""
        name = self._locs.get(slot)
        if name is None:
            name = self._locs[slot] = f"_l{slot}"
            self.w(f"{name} = rb - {slot}")
        return name

    def sloc(self, src) -> str:
        is_const, payload = src
        return "None" if is_const else self.reg(payload)

    def record(self, pc: int, dloc: str, dval: str, pairs: list,
               payload: Optional[str] = None) -> None:
        """Append the flat record of the instruction at ``pc``:
        ``pairs`` are ``(sloc, sval)`` expressions, in source order."""
        items = [str(self.sid_base + pc), dloc, dval]
        for sloc, sval in pairs:
            items += (sloc, sval)
        if payload is not None:
            items.append(payload)
        self.w(f"recs.append(({', '.join(items)}))")

    # -------------------------------------------------------- lowering
    def lower(self) -> frozenset:
        fn, code = self.fn, self.fn.code
        for pc, ins in enumerate(code):
            if ins[0] not in _SUPPORTED:
                raise UnsupportedProgram(
                    f"{fn.name}: opcode {ins[0]} at pc {pc}")
        entries = sorted(
            set(fn.pc_of_block.values())
            | {pc + 1 for pc, ins in enumerate(code)
               if ins[0] == oc.CALL})
        segs = []
        for entry in entries:
            pc, seg = entry, []
            while True:
                ins = code[pc]
                seg.append((pc, ins))
                if ins[0] in _FRAME_EXITS:
                    break
                pc += 1
            segs.append((entry, seg))

        self.w(f"def _body_{fn.index}(vm, frame, limit):")
        self.indent += 1
        self.w("regs = frame.regs")
        self.w("mem = vm.mem")
        self.w("sp = vm.sp")
        self.w("dyn = vm.dyn_count")
        self.w("pc = frame.pc")
        if self.trace:
            self.w("rb = frame.rbase")
            self.w("recs = vm.records")
        self.w("while 1:")
        self.indent += 1
        self._dispatch(segs)
        self.indent -= 2
        self.w("")
        return frozenset(entries)

    def _dispatch(self, segs: list) -> None:
        if len(segs) == 1:
            self._segment(*segs[0])
            return
        mid = len(segs) // 2
        self.w(f"if pc < {segs[mid][0]}:")
        self.indent += 1
        self._dispatch(segs[:mid])
        self.indent -= 1
        self.w("else:")
        self.indent += 1
        self._dispatch(segs[mid:])
        self.indent -= 1

    def _segment(self, entry: int, seg: list) -> None:
        length = len(seg)
        self._locs: dict = {}
        self.w(f"if dyn + {length} > limit:")
        self.indent += 1
        self.w(f"frame.pc = {entry}")
        self.w("vm.dyn_count = dyn")
        self.w("return 2")
        self.indent -= 1
        for k, (pc, ins) in enumerate(seg):
            self._instr(pc, ins, k, length)

    # Record shapes below mirror interp.py's ``_loop`` exactly — any
    # divergence is a parity-suite failure, not a style choice.
    def _instr(self, pc: int, ins, k: int, length: int) -> None:  # noqa: C901
        op, dest, srcs, aux, _line = ins
        t = self.trace
        self._temps: dict = {}
        trap_dyn = f"vm.dyn_count = dyn + {k}" if k else "vm.dyn_count = dyn"

        def commit(res_expr: str) -> None:
            """Common commit for register-defining ops."""
            if t:
                if res_expr != "_r":
                    self.w(f"_r = {res_expr}")
                self.w(f"regs[{dest}] = _r")
                self.record(pc, self.reg(dest), "_r",
                            [(self.sloc(s), self.operand(i, s, False))
                             for i, s in enumerate(srcs)])
            else:
                self.w(f"regs[{dest}] = {res_expr}")

        if op in _SIMPLE:
            if t:
                a = self.operand(0, srcs[0], True) if srcs else None
                b = self.operand(1, srcs[1], True) if len(srcs) > 1 else None
            else:
                a = self.operand(0, srcs[0], False) if srcs else None
                b = (self.operand(1, srcs[1], False)
                     if len(srcs) > 1 else None)
            commit(_SIMPLE[op].format(a=a, b=b))

        elif op in _WRAPPING:
            a = self.operand(0, srcs[0], t)
            b = self.operand(1, srcs[1], t)
            self.w(f"_r = {a} {_WRAPPING[op]} {b}")
            self.w("if _r > 9223372036854775807 "
                   "or _r < -9223372036854775808:")
            self.indent += 1
            self.w("_r = _wrap64(_r)")
            self.indent -= 1
            commit("_r")

        elif op in _SELECT2:
            a = self.operand(0, srcs[0], True)
            b = self.operand(1, srcs[1], True)
            commit(f"{a} if {a} {_SELECT2[op]} {b} else {b}")

        elif op == oc.FDIV:
            a = self.operand(0, srcs[0], True)
            b = self.operand(1, srcs[1], True)
            commit(f"_ieee_div({a}, {b}) if {b} == 0.0 else {a} / {b}")

        elif op in (oc.SDIV, oc.SREM):
            a = self.operand(0, srcs[0], t)
            b = self.operand(1, srcs[1], True)
            word = "division" if op == oc.SDIV else "remainder"
            helper = "_c_div" if op == oc.SDIV else "_c_rem"
            self.w(f"if {b} == 0:")
            self.indent += 1
            self.w(trap_dyn)
            self.w(f'raise _ComputeTrap("integer {word} by zero")')
            self.indent -= 1
            commit(f"{helper}({a}, {b})")

        elif op in (oc.SHL, oc.LSHR, oc.ASHR):
            a = self.operand(0, srcs[0], op != oc.ASHR or t)
            b = self.operand(1, srcs[1], True)
            self.w(f"if {b}.__class__ is not int or {b} < 0:")
            self.indent += 1
            self.w(trap_dyn)
            self.w(f'raise _ComputeTrap(f"shift by {{{b}!r}}")')
            self.indent -= 1
            if op == oc.SHL:
                commit(f"0 if {b} >= 64 else _wrap64({a} << {b})")
            elif op == oc.LSHR:
                commit(f"0 if {b} >= 64 else ({a} & _M64) >> {b}")
            else:
                commit(f"{a} >> min({b}, 63)")

        elif op == oc.SQRT:
            a = self.operand(0, srcs[0], True)
            commit(f"_sqrt({a}) if {a} >= 0 else _nan")

        elif op == oc.EXP:
            a = self.operand(0, srcs[0], t)
            self.w("try:")
            self.indent += 1
            self.w(f"_r = _exp({a})")
            self.indent -= 1
            self.w("except OverflowError:")
            self.indent += 1
            self.w("_r = _inf")
            self.indent -= 1
            commit("_r")

        elif op == oc.LOG:
            a = self.operand(0, srcs[0], True)
            self.w(f"if {a} > 0:")
            self.indent += 1
            self.w(f"_r = _log({a})")
            self.indent -= 1
            self.w(f"elif {a} == 0:")
            self.indent += 1
            self.w("_r = -_inf")
            self.indent -= 1
            self.w("else:")
            self.indent += 1
            self.w("_r = _nan")
            self.indent -= 1
            commit("_r")

        elif op in (oc.SIN, oc.COS):
            a = self.operand(0, srcs[0], True)
            helper = "_sin" if op == oc.SIN else "_cos"
            commit(f"{helper}({a}) if _isfinite({a}) else _nan")

        elif op == oc.FLOOR:
            a = self.operand(0, srcs[0], True)
            commit(f"_floor({a}) if _isfinite({a}) else {a}")

        elif op == oc.POW:
            a = self.operand(0, srcs[0], True)
            b = self.operand(1, srcs[1], t)
            self.w("try:")
            self.indent += 1
            self.w(f"_r = _pow({a}, {b})")
            self.indent -= 1
            self.w("except (OverflowError, ValueError):")
            self.indent += 1
            self.w(f"_r = _nan if {a} < 0 else _inf")
            self.indent -= 1
            commit("_r")

        elif op == oc.LOAD:
            a = self.operand(0, srcs[0], True)
            self.w(f"if {a}.__class__ is int and 0 <= {a} < sp:")
            self.indent += 1
            if t:
                self.w(f"_r = mem[{a}]")
            else:
                self.w(f"regs[{dest}] = mem[{a}]")
            self.indent -= 1
            self.w("else:")
            self.indent += 1
            self.w(trap_dyn)
            self.w(f'raise _MemoryFault({a}, "load out of segment")')
            self.indent -= 1
            if t:
                self.w(f"regs[{dest}] = _r")
                self.record(pc, self.reg(dest), "_r",
                            [(a, "_r"), (self.sloc(srcs[0]), a)])

        elif op == oc.STORE:
            a = self.operand(0, srcs[0], True)
            b = self.operand(1, srcs[1], t)
            self.w(f"if {a}.__class__ is int and 0 <= {a} < sp:")
            self.indent += 1
            self.w(f"mem[{a}] = {b}")
            self.indent -= 1
            self.w("else:")
            self.indent += 1
            self.w(trap_dyn)
            self.w(f'raise _MemoryFault({a}, "store out of segment")')
            self.indent -= 1
            if t:
                self.record(pc, a, b, [(self.sloc(srcs[1]), b),
                                       (self.sloc(srcs[0]), a)])

        elif op == oc.ALLOCA:
            a = self.operand(0, srcs[0], True)
            self.w(f"if {a}.__class__ is not int or {a} < 0 "
                   f"or sp + {a} > vm.MEM_CAP:")
            self.indent += 1
            self.w(trap_dyn)
            self.w(f'raise _MemoryFault({a}, "bad alloca size")')
            self.indent -= 1
            self.w("_r = sp")
            self.w(f"sp = sp + {a}")
            self.w("vm.sp = sp")
            # slice-assign both extends the heap and re-zeroes reused
            # stack words (same effect as the interpreter's zeroing loop)
            self.w(f"mem[_r:sp] = [0] * {a}")
            commit("_r")

        elif op == oc.CBR:
            a = self.operand(0, srcs[0], t)
            tpc, fpc = aux
            self.w(f"dyn += {length}")
            if t:
                self.w(f"_t = True if {a} else False")
                self.record(pc, "None", "_t", [(self.sloc(srcs[0]), a)])
                self.w(f"pc = {tpc} if _t else {fpc}")
            else:
                self.w(f"pc = {tpc} if {a} else {fpc}")
            self.w("continue")

        elif op == oc.BR:
            self.w(f"dyn += {length}")
            if t:
                self.record(pc, "None", "None", [])
            self.w(f"pc = {aux}")
            self.w("continue")

        elif op == oc.CALL:
            callee = aux
            arg_exprs = [self.operand(i, s, t)
                         for i, s in enumerate(srcs)]
            args_tup = _tup(arg_exprs)
            self.w(f"vm.dyn_count = dyn + {length}")
            self.w(f"frame.pc = {pc + 1}")
            self.w("vm.sp = sp")
            self.w(f"_nf = vm._push(_fn{callee.index}, {args_tup}, {dest})")
            if t:
                self.record(pc, "_nf.rbase", "None",
                            list(zip(map(self.sloc, srcs), arg_exprs)),
                            f"(_nf.uid, {callee.index}, {len(srcs)})")
            self.w("return 1")

        elif op == oc.RET:
            n = len(srcs)
            if n:
                a = self.operand(0, srcs[0], True)
                self.w(f"_rv = {a}")
            else:
                self.w("_rv = None")
            pairs = [(self.sloc(srcs[0]), "_rv")] if n and t else []
            payload = "(_dead.uid, _dead.stack_mark, _hi)"
            self.w(f"vm.dyn_count = dyn + {length}")
            self.w("_dead = vm.frames.pop()")
            self.w("_hi = sp")
            self.w("sp = _dead.stack_mark")
            self.w("vm.sp = sp")
            self.w("if vm.frames:")
            self.indent += 1
            self.w("_s = _dead.ret_slot")
            if t:
                self.w("if _s is None:")
                self.indent += 1
                self.w("_dl = None")
                self.indent -= 1
                self.w("else:")
                self.indent += 1
                self.w("_c = vm.frames[-1]")
                self.w("_c.regs[_s] = _rv")
                self.w("_dl = _c.rbase - _s")
                self.indent -= 1
                self.record(pc, "_dl", "_rv", pairs, payload)
            else:
                self.w("if _s is not None:")
                self.indent += 1
                self.w("vm.frames[-1].regs[_s] = _rv")
                self.indent -= 1
            self.w("return 1")
            self.indent -= 1
            if t:
                self.record(pc, "None", "_rv", pairs, payload)
            self.w("vm.finished = True")
            self.w("vm.result = _rv")
            self.w("return 0")

        elif op == oc.EMIT:
            val_exprs = [self.operand(i, s, True) for i, s in enumerate(srcs)]
            fmt = _const_expr(aux, self.pool)
            if val_exprs:
                self.w(f"_vs = {_tup(val_exprs)}")
                self.w("try:")
                self.indent += 1
                self.w(f"_t = {fmt} % _vs")
                self.indent -= 1
                self.w("except (OverflowError, ValueError, TypeError):")
                self.indent += 1
                self.w('_t = "<fmt-error " + repr(_vs) + ">"')
                self.indent -= 1
            else:
                self.w("_vs = ()")
                self.w(f"_t = {fmt}")
            self.w("vm.output.append(_t)")
            if t:
                self.record(pc, "None", "None",
                            list(zip(map(self.sloc, srcs), val_exprs)), "_t")

        elif op in (oc.NOP, oc.MPI_BARRIER):
            # record-only no-ops (comm is always None on the compiled path)
            if t:
                self.record(pc, "None", "None", [])

        elif op in (oc.MPI_SEND, oc.MPI_RECV):
            name = "MPI_SEND" if op == oc.MPI_SEND else "MPI_RECV"
            self.w(trap_dyn)
            self.w(f'raise _VMError("{name} without a communicator")')

        elif op == oc.MPI_ALLREDUCE:
            commit(self.operand(0, srcs[0], False))

        elif op == oc.MPI_BCAST:
            self.operand(0, srcs[0], False)  # root ignored without a comm
            commit(self.operand(1, srcs[1], False))

        else:  # pragma: no cover - guarded by the _SUPPORTED pre-scan
            raise UnsupportedProgram(f"opcode {op}")


def _lower_module(module: Module, trace: bool) -> CompiledModule:
    pool = _Pool()
    lines: list = []
    fns = sorted(module.functions.values(), key=lambda f: f.index)
    entries = []
    sid_base = static_table(module).base
    for i, fn in enumerate(fns):
        if fn.index != i:
            raise UnsupportedProgram(
                f"non-contiguous function index {fn.index} for {fn.name}")
        entries.append(_FunctionLowering(fn, trace, pool, lines,
                                         sid_base[i]).lower())
    source = "\n".join(lines)
    ns = dict(_HELPERS)
    ns.update(pool.ns)
    for fn in fns:
        ns[f"_fn{fn.index}"] = fn
    exec(compile(source, f"<compiled:{module.name}>", "exec"), ns)
    compiled = [CompiledFunction(ns[f"_body_{fn.index}"], entries[i])
                for i, fn in enumerate(fns)]
    return CompiledModule(compiled, source)


def compile_module(module: Module, trace: bool) -> Optional[CompiledModule]:
    """Lower ``module`` (memoized per module + trace flag).

    Returns ``None`` when the module is not compilable — callers fall
    back to the interpreter.
    """
    cache = getattr(module, _CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(module, _CACHE_ATTR, cache)
    key = bool(trace)
    if key not in cache:
        try:
            cache[key] = _lower_module(module, key)
        except UnsupportedProgram:
            cache[key] = None
    return cache[key]


# --------------------------------------------------------------- trampoline

class CompiledInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` whose ``run()`` drives compiled bodies.

    All state (memory, frames, records, fault bookkeeping) lives on the
    inherited instance, so tracing, verification checks and campaign
    classification work unchanged.  ``step()`` is deliberately *not*
    overridden: scheduler-driven (communicator) execution always uses
    the interpreter loop, which is the documented fallback for
    blocking/resuming MPI ops.
    """

    #: which tier actually executed the last ``run()`` (fallback guard)
    exec_tier = "interp"

    def __init__(self, module: Module, *, trace: bool = False,
                 fault: Optional[FaultPlan] = None,
                 max_instr: int = 50_000_000,
                 stack_words: int = Module.STACK_RESERVE,
                 comm=None, rank: int = 0):
        super().__init__(module, trace=trace, fault=fault,
                         max_instr=max_instr, stack_words=stack_words,
                         comm=comm, rank=rank)
        self._stack_words = stack_words

    def resume_run(self, entry: Optional[str] = None, args: tuple = ()):
        """Drive compiled bodies to completion from the current state.

        :meth:`run` lands here right after its :meth:`start`; a
        warm start lands here after a snapshot restore.  A snapshot
        rung may stop mid-basic-block (ladder grid points
        are arbitrary ``run_to`` boundaries), so the trampoline first
        single-steps through the interpreter window until the pc
        re-aligns with a compiled segment entry — the same mechanism
        ``run_to`` resumes use — then drives compiled bodies normally.
        ``entry``/``args`` name the run being resumed; they are only
        used by the cold twin-replay fallback, which re-executes the
        whole run interpreted (valid precisely because the restored
        prefix is byte-identical to a cold prefix).
        """
        compiled = None
        if self.comm is None:
            compiled = compile_module(self.module, self.records is not None)
        if compiled is None:
            return super().resume_run(entry, args)
        self.exec_tier = "compiled"
        fns = compiled.fns
        try:
            if not self.finished:
                frame = self.frames[-1]
                if frame.pc not in fns[frame.fn.index].entries:
                    if self._interp_window(fns) == "done":
                        return self.result
                self._drive(compiled)
        except VMError:
            raise  # anticipated crash surface: state is interpreter-exact
        except Exception:
            # unanticipated (e.g. fault-corrupted value hit a type error
            # mid-segment, where dyn_count is stale): replay through a
            # twin interpreter, adopt its exact state, re-raise its error
            self._replay_interpreted(entry, args)
            raise  # pragma: no cover - replay did not reproduce the error
        return self.result

    # ---------------------------------------------------------- driving
    def _drive(self, compiled: CompiledModule) -> None:
        fns = compiled.fns
        frames = self.frames
        hard = self.max_instr
        while True:
            ftrig = self._ftrig
            limit = hard if ftrig < 0 else min(ftrig, hard)
            frame = frames[-1]
            rc = fns[frame.fn.index].body(self, frame, limit)
            if rc == RES_REENTER:
                continue
            if rc == RES_DONE:
                return
            if self._interp_window(fns) == "done":
                return

    def _interp_window(self, fns: list) -> str:
        """Single-step interpreted until the top frame re-aligns with a
        compiled segment entry (fault pre-hook / HangError fire here
        with exact interpreter semantics)."""
        frames = self.frames
        while True:
            status = Interpreter.step(self, 1)
            if status != "budget":
                return status
            frame = frames[-1]
            if frame.pc in fns[frame.fn.index].entries:
                return status

    # --------------------------------------------------------- run_to
    def run_to(self, stop_dyn: int) -> str:
        """Compiled-tier :meth:`Interpreter.run_to`.

        Drives compiled bodies with ``limit`` folded over the stop
        target (and the fault trigger / hang budget, exactly like
        :meth:`_drive`); when a segment would cross the boundary the
        trampoline falls back to the interpreter window at the
        checkpointed region — the same mechanism that gives the fault
        trigger interpreter-exact semantics — so the stop state is
        byte-identical to the interpreter tier's.  A resume from a
        mid-block stop (a checkpoint restore lands wherever the
        detector fired) also goes through the window until the pc
        re-aligns with a segment entry.
        """
        if self.comm is not None:
            return super().run_to(stop_dyn)
        compiled = compile_module(self.module, self.records is not None)
        if compiled is None:
            return super().run_to(stop_dyn)
        self.exec_tier = "compiled"
        fns = compiled.fns
        frames = self.frames
        hard = self.max_instr
        while True:
            if self.finished:
                return "done"
            if self.dyn_count >= stop_dyn:
                if self.dyn_count >= hard:
                    raise HangError(self.dyn_count)
                return "budget"
            frame = frames[-1]
            if frame.pc not in fns[frame.fn.index].entries:
                if self._interp_window_to(fns, stop_dyn) == "done":
                    return "done"
                continue
            ftrig = self._ftrig
            limit = min(stop_dyn, hard) if ftrig < 0 \
                else min(ftrig, stop_dyn, hard)
            rc = fns[frame.fn.index].body(self, frame, limit)
            if rc == RES_DONE:
                return "done"
            if rc == RES_REENTER:
                continue
            if self._interp_window_to(fns, stop_dyn) == "done":
                return "done"

    def _interp_window_to(self, fns: list, stop_dyn: int) -> str:
        """:meth:`_interp_window` bounded by a stop target: single-step
        interpreted until the program finishes, the stop boundary is
        reached, or the pc re-aligns with a compiled segment entry."""
        frames = self.frames
        hard = self.max_instr
        while True:
            if self.dyn_count >= stop_dyn:
                if self.dyn_count >= hard:
                    raise HangError(self.dyn_count)
                return "budget"
            status = Interpreter.step(self, 1)
            if status != "budget":
                return status
            frame = frames[-1]
            if frame.pc in fns[frame.fn.index].entries:
                return status

    # ---------------------------------------------------------- fallback
    def _replay_interpreted(self, entry, args) -> None:
        twin = Interpreter(self.module, trace=self.records is not None,
                           fault=self.fault, max_instr=self.max_instr,
                           stack_words=self._stack_words, rank=self.rank)
        self.exec_tier = "interp"
        try:
            twin.run(entry, args)
        finally:
            self._adopt(twin)

    def _adopt(self, twin: Interpreter) -> None:
        self.mem = twin.mem
        self.sp = twin.sp
        self.frames = twin.frames
        self.records = twin.records
        self.record_base = twin.record_base
        self.output = twin.output
        self.dyn_count = twin.dyn_count
        self.fault_record = twin.fault_record
        self.next_uid = twin.next_uid
        self.finished = twin.finished
        self.result = twin.result
        self._ftrig = twin._ftrig
