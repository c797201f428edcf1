"""The mini-IR interpreter: executes programs, traces them, injects faults.

This is the substitute for "compiled binary + LLVM-Tracer instrumentation"
in the paper's pipeline.  One object executes one process (MPI rank).

Key observables (all of which the analyses consume):

* **dynamic instruction stream** — when ``trace=True`` every executed
  instruction appends one flat record
  ``(sid, dloc, dval, sloc0, sval0, sloc1, sval1, ..., [payload])``
  keyed by its static-instruction id (:mod:`repro.trace.events` has
  the schema and the static table); locations are ints: heap addresses
  are >= 0 and register locations are encoded as
  ``-(frame_uid * SLOT_LIMIT + slot) - 1``;
* **fault application** — a :class:`~repro.vm.fault.FaultPlan` fires at a
  chosen dynamic instruction, flipping either a location's current value
  (input-location injections) or an instruction result (internal);
* **crash surface** — out-of-segment accesses, arithmetic traps and
  instruction-budget hangs raise :mod:`repro.vm.errors` exceptions, which
  campaigns classify as the paper's *Crashed* manifestation.

The dispatch loop is deliberately one flat function: it is the hottest
code in the repository (every experiment funnels through it), and flat
tuple decode + if/elif dispatch measured ~3x faster than a handler
table in CPython 3.11.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.ir import opcodes as oc
from repro.ir.function import SLOT_LIMIT
from repro.ir.module import Module
from repro.trace.events import static_table
from repro.vm import bitops
from repro.vm.errors import (ComputeTrap, HangError, MemoryFault, VMError,
                             WouldBlock)
from repro.vm.fault import FaultPlan, FaultRecord

_M64 = bitops.MASK64


def reg_loc(frame_uid: int, slot: int) -> int:
    """Encode a register location as a negative int key."""
    return -(frame_uid * SLOT_LIMIT + slot) - 1


def _src_pairs(srcs, vals, rbase: int) -> tuple:
    """The flat ``(sloc, sval)`` pairs of a record's sources."""
    out: list = []
    for (c, p), v in zip(srcs, vals):
        out += (None if c else rbase - p, v)
    return tuple(out)


def decode_reg_loc(loc: int) -> tuple[int, int]:
    """Inverse of :func:`reg_loc` -> ``(frame_uid, slot)``."""
    if loc >= 0:
        raise ValueError(f"{loc} is a memory location, not a register")
    raw = -loc - 1
    return raw // SLOT_LIMIT, raw % SLOT_LIMIT


class Frame:
    """One activation record."""

    __slots__ = ("fn", "regs", "pc", "uid", "ret_slot", "stack_mark", "rbase")

    def __init__(self, fn, regs, uid: int, ret_slot: Optional[int],
                 stack_mark: int):
        self.fn = fn
        self.regs = regs
        self.pc = 0
        self.uid = uid
        self.ret_slot = ret_slot
        self.stack_mark = stack_mark
        self.rbase = -(uid * SLOT_LIMIT) - 1


class VMSnapshot:
    """A restorable image of an :class:`Interpreter`'s execution state.

    Captures everything a resumed execution can observe — memory, stack
    pointer, the frame stack (function, registers, pc, uid, return slot,
    stack mark), dynamic instruction count, uid counter, fault
    bookkeeping and the *length* of the append-only output stream
    (restore truncates it back, and a traced run's records back to the
    snapshot's dynamic count — one record per executed instruction; a
    snapshot therefore only restores an earlier point of the same
    execution).  One snapshot may be restored any number of times:
    :meth:`Interpreter.restore` copies out of it, never aliases into
    it.
    """

    __slots__ = ("mem", "sp", "frames", "dyn_count", "next_uid",
                 "n_output", "fault_state", "ftrig", "finished",
                 "result")

    def __init__(self, interp: "Interpreter"):
        self.mem = list(interp.mem)
        self.sp = interp.sp
        self.frames = [(f.fn, list(f.regs), f.pc, f.uid, f.ret_slot,
                        f.stack_mark) for f in interp.frames]
        self.dyn_count = interp.dyn_count
        self.next_uid = interp.next_uid
        self.n_output = len(interp.output)
        rec = interp.fault_record
        self.fault_state = (rec.fired, rec.loc, rec.old_value,
                            rec.new_value, rec.dyn_index)
        self.ftrig = interp._ftrig
        self.finished = interp.finished
        self.result = interp.result

    @property
    def words(self) -> int:
        """Copied state size (memory + register words): checkpoint cost."""
        return len(self.mem) + sum(len(regs) for _fn, regs, *_ in self.frames)


class Interpreter:
    """Executes one program image (one simulated process).

    Parameters
    ----------
    module:
        A finalized :class:`~repro.ir.module.Module`.
    trace:
        Record the dynamic instruction stream into :attr:`records`.
    fault:
        Optional :class:`FaultPlan` applied during execution.
    max_instr:
        Hang detector: executions beyond this many dynamic instructions
        raise :class:`HangError`.
    comm, rank:
        Simulated-MPI hookup (see :mod:`repro.parallel`); ``None`` runs
        the program as a single process with trivial collectives.
    """

    #: Hard cap on heap growth (words); beyond this ALLOCA faults.
    MEM_CAP = 1 << 22

    def __init__(self, module: Module, *, trace: bool = False,
                 fault: Optional[FaultPlan] = None,
                 max_instr: int = 50_000_000,
                 stack_words: int = Module.STACK_RESERVE,
                 comm=None, rank: int = 0):
        if not module.finalized:
            raise ValueError("module must be finalized before interpretation")
        self.module = module
        self.mem: list = module.initial_memory(stack_words)
        self.sp = module.stack_base
        self.frames: list[Frame] = []
        self.records: Optional[list] = [] if trace else None
        #: static id of pc 0 of each function (traced runs)
        self._sid_base = static_table(module).base if trace else None
        #: records of the run before ``records[0]`` (a warm-started
        #: traced run holds only the records after its ladder rung)
        self.record_base = 0
        self.output: list[str] = []
        self.dyn_count = 0
        self.max_instr = max_instr
        self.fault = fault
        self.fault_record = FaultRecord()
        self.comm = comm
        self.rank = rank
        self.next_uid = 0
        self.finished = False
        self.result: Any = None
        self._ftrig = fault.trigger if fault is not None else -1

    # ------------------------------------------------------------------ API
    def start(self, entry: Optional[str] = None, args: tuple = ()) -> None:
        """Push the entry frame (does not execute anything yet)."""
        name = entry or self.module.entry
        fn = self.module.functions[name]
        if len(args) != len(fn.params):
            raise ValueError(
                f"{name} expects {len(fn.params)} args, got {len(args)}")
        self._push(fn, tuple(args), ret_slot=None)

    def run(self, entry: Optional[str] = None, args: tuple = ()) -> Any:
        """Run to completion as a standalone process; returns the result.

        :meth:`start` then :meth:`resume_run` on either tier: a fresh
        start sits at a compiled segment entry, so the compiled tier
        drives exactly the bodies (and twin-replay fallback) of a
        resumed run.
        """
        self.start(entry, args)
        return self.resume_run(entry, args)

    def resume_run(self, entry: Optional[str] = None,
                   args: tuple = ()) -> Any:
        """Run an already-started execution to completion.

        Used by :meth:`run` after its :meth:`start`, and by warm-start
        to drive the suffix of a snapshot-restored execution.  ``entry``
        and ``args`` describe the run being resumed (the compiled tier
        needs them for its cold twin-replay fallback); the interpreter
        itself ignores them.  The hard budget is ``max_instr`` and a
        blocked MPI op raises :class:`VMError`.
        """
        status = self._loop(None)
        if status == "blocked":
            raise VMError("MPI operation blocked with no communicator peers")
        return self.result

    def step(self, budget: int) -> str:
        """Execute up to ``budget`` instructions.

        Returns ``"done"``, ``"blocked"`` (waiting on MPI) or
        ``"budget"`` (quantum exhausted).  Used by the rank scheduler.
        """
        if self.finished:
            return "done"
        return self._loop(budget)

    def run_to(self, stop_dyn: int) -> str:
        """Execute until ``dyn_count`` reaches ``stop_dyn`` (or completion).

        Returns ``"done"`` when the program finished (possibly before
        the target, e.g. a fault-shortened run) or ``"budget"`` with
        ``dyn_count == stop_dyn`` — the instruction at index
        ``stop_dyn`` has *not* executed yet, so the stop point is a
        clean boundary for :meth:`snapshot` / online detectors.  The
        hang budget still applies (:class:`HangError` past
        ``max_instr``); blocking MPI is a :class:`VMError` here, since
        checkpointed execution is single-process.
        """
        step = self.step
        while not self.finished and self.dyn_count < stop_dyn:
            status = step(stop_dyn - self.dyn_count)
            if status == "blocked":
                raise VMError(
                    "MPI operation blocked with no communicator peers")
        return "done" if self.finished else "budget"

    # ------------------------------------------------------- checkpointing
    def snapshot(self) -> VMSnapshot:
        """Capture a restorable image of the current execution state."""
        return VMSnapshot(self)

    def restore(self, snap: VMSnapshot) -> None:
        """Rewind to ``snap`` (an earlier point of this execution).

        Memory and registers are copied out of the snapshot (it stays
        reusable); the append-only output/record streams are truncated
        back to the snapshot's point.  Fault bookkeeping — including
        the armed/disarmed trigger — is restored faithfully: a caller
        modelling a *transient* fault must disarm ``_ftrig`` itself
        after restoring.
        """
        self.mem[:] = snap.mem
        self.sp = snap.sp
        self.frames = []
        for fn, regs, pc, uid, ret_slot, stack_mark in snap.frames:
            frame = Frame(fn, list(regs), uid, ret_slot, stack_mark)
            frame.pc = pc
            self.frames.append(frame)
        self.dyn_count = snap.dyn_count
        self.next_uid = snap.next_uid
        del self.output[snap.n_output:]
        if self.records is not None:
            # one record per instruction executed since record_base
            del self.records[snap.dyn_count - self.record_base:]
        fired, loc, old_value, new_value, dyn_index = snap.fault_state
        rec = self.fault_record
        rec.fired = fired
        rec.loc = loc
        rec.old_value = old_value
        rec.new_value = new_value
        rec.dyn_index = dyn_index
        self._ftrig = snap.ftrig
        self.finished = snap.finished
        self.result = snap.result

    @property
    def output_text(self) -> str:
        """All EMIT output, newline-joined."""
        return "\n".join(self.output)

    def read_scalar(self, name: str):
        """Final value of a global scalar."""
        return self.mem[self.module.scalars[name].base]

    def read_array(self, name: str) -> list:
        arr = self.module.arrays[name]
        return self.mem[arr.base:arr.base + arr.size]

    # ------------------------------------------------------------ internals
    def _push(self, fn, args: tuple, ret_slot: Optional[int]) -> Frame:
        regs = [0] * fn.nslots
        for i, a in enumerate(args):
            regs[i] = a
        frame = Frame(fn, regs, self.next_uid, ret_slot, self.sp)
        self.next_uid += 1
        self.frames.append(frame)
        return frame

    def _apply_loc_fault(self) -> None:
        """Fire a 'loc'-mode plan: flip the value stored at plan.loc."""
        plan = self.fault
        loc = plan.loc
        rec = self.fault_record
        if loc >= 0:
            # clamp to the *live* segment: words at or above the stack
            # pointer are dead (a fresh ALLOCA re-zeroes them), so a flip
            # there could never be observed by a live run and must count
            # as a miss, exactly like a popped register frame
            if not (0 <= loc < self.sp):
                rec.fired = False
                return
            old = self.mem[loc]
            new = bitops.flip_value(old, plan.bit, plan.width)
            self.mem[loc] = new
        else:
            uid, slot = decode_reg_loc(loc)
            frame = next((f for f in reversed(self.frames) if f.uid == uid),
                         None)
            if frame is None or slot >= len(frame.regs):
                rec.fired = False
                return
            old = frame.regs[slot]
            new = bitops.flip_value(old, plan.bit, plan.width)
            frame.regs[slot] = new
        rec.fired = True
        rec.loc = loc
        rec.old_value = old
        rec.new_value = new
        rec.dyn_index = self.dyn_count

    def _record_result_fault(self, loc: int, old, new) -> None:
        rec = self.fault_record
        rec.fired = True
        rec.loc = loc
        rec.old_value = old
        rec.new_value = new
        rec.dyn_index = self.dyn_count

    # The dispatch loop. noqa-style complexity is intentional; see module
    # docstring for why this stays one flat function.
    def _loop(self, budget: Optional[int]) -> str:  # noqa: C901
        mem = self.mem
        recs = self.records
        sid_base = self._sid_base
        fault = self.fault
        dyn = self.dyn_count
        sp = self.sp
        hard = self.max_instr
        limit = hard if budget is None else min(hard, dyn + budget)
        ftrig = self._ftrig
        fbit = fault.bit if fault is not None else 0
        fwidth = fault.width if fault is not None else 64
        # Per-instruction attribute/global lookups, hoisted to locals.
        # ``frames``/``output`` are only ever mutated in place while the
        # loop runs (rebinding happens in __init__/restore, never here),
        # so the aliases stay valid across CALL/RET and EMIT.
        frames = self.frames
        push = self._push
        out_append = self.output.append
        flip_value = bitops.flip_value
        wrap64 = bitops.wrap64
        wrap32 = bitops.wrap32
        c_div = bitops.c_div
        c_rem = bitops.c_rem
        ieee_div = bitops.ieee_div
        fptosi = bitops.fptosi
        fptrunc32 = bitops.fptrunc32
        m_sqrt = math.sqrt
        m_exp = math.exp
        m_log = math.log
        m_sin = math.sin
        m_cos = math.cos
        m_floor = math.floor
        m_pow = math.pow
        isfinite = math.isfinite
        NAN = math.nan
        INF = math.inf

        try:
            while frames:
                frame = frames[-1]
                code = frame.fn.code
                regs = frame.regs
                rbase = frame.rbase
                if recs is not None:
                    sbase = sid_base[frame.fn.index]
                pc = frame.pc

                while True:
                    if dyn >= limit:
                        frame.pc = pc
                        if dyn >= hard:
                            raise HangError(dyn)
                        return "budget"

                    op, dest, srcs, aux, _line = code[pc]

                    # -- fault pre-hook ('loc' mode fires before execution)
                    # 'loc' commits here (the flip mutates state now, and
                    # survives a blocked-op resume); a 'result' flip only
                    # commits with the op — every blocked return below
                    # re-arms the trigger so the resumed re-execution of
                    # the instruction still flips its result.
                    if dyn == ftrig:
                        ftrig = -2
                        self._ftrig = -2
                        if fault.mode == "loc":
                            self.dyn_count = dyn
                            self._apply_loc_fault()
                            flipnow = False
                        else:
                            flipnow = True
                    else:
                        flipnow = False

                    # -- operand resolution
                    n = len(srcs)
                    if n == 2:
                        c0, p0 = srcs[0]
                        c1, p1 = srcs[1]
                        v0 = p0 if c0 else regs[p0]
                        v1 = p1 if c1 else regs[p1]
                    elif n == 1:
                        c0, p0 = srcs[0]
                        v0 = p0 if c0 else regs[p0]
                        v1 = None
                    elif n == 0:
                        v0 = v1 = None
                    else:
                        vals = [p if c else regs[p] for (c, p) in srcs]

                    # ---------------- memory ----------------
                    if op == 34:  # LOAD
                        if v0.__class__ is int and 0 <= v0 < sp:
                            res = mem[v0]
                        else:
                            self.dyn_count = dyn
                            raise MemoryFault(v0, "load out of segment")
                        if flipnow:
                            old = res
                            res = flip_value(res, fbit, fwidth)
                            self.dyn_count = dyn
                            self._record_result_fault(rbase - dest, old, res)
                        regs[dest] = res
                        dyn += 1
                        if recs is not None:
                            recs.append((sbase + pc, rbase - dest, res,
                                         v0, res,
                                         None if c0 else rbase - p0, v0))
                        pc += 1
                        continue

                    if op == 35:  # STORE: mem[v0] <- v1
                        if flipnow:
                            old = v1
                            v1 = flip_value(v1, fbit, fwidth)
                            self.dyn_count = dyn
                            self._record_result_fault(
                                v0 if v0.__class__ is int else -1, old, v1)
                        if v0.__class__ is int and 0 <= v0 < sp:
                            mem[v0] = v1
                        else:
                            self.dyn_count = dyn
                            raise MemoryFault(v0, "store out of segment")
                        dyn += 1
                        if recs is not None:
                            recs.append((sbase + pc, v0, v1,
                                         None if c1 else rbase - p1, v1,
                                         None if c0 else rbase - p0, v0))
                        pc += 1
                        continue

                    # ---------------- control ----------------
                    if op == 38:  # CBR
                        taken = bool(v0)
                        npc = aux[0] if taken else aux[1]
                        dyn += 1
                        if recs is not None:
                            recs.append((sbase + pc, None, taken,
                                         None if c0 else rbase - p0, v0))
                        pc = npc
                        continue

                    if op == 37:  # BR
                        dyn += 1
                        if recs is not None:
                            recs.append((sbase + pc, None, None))
                        pc = aux
                        continue

                    # ---------------- arithmetic ----------------
                    if op == 7:  # FMUL
                        res = v0 * v1
                    elif op == 5:  # FADD
                        res = v0 + v1
                    elif op == 6:  # FSUB
                        res = v0 - v1
                    elif op == 0:  # ADD
                        res = v0 + v1
                        if res > 9223372036854775807 or res < -9223372036854775808:
                            res = wrap64(res)
                    elif op == 1:  # SUB
                        res = v0 - v1
                        if res > 9223372036854775807 or res < -9223372036854775808:
                            res = wrap64(res)
                    elif op == 2:  # MUL
                        res = v0 * v1
                        if res > 9223372036854775807 or res < -9223372036854775808:
                            res = wrap64(res)
                    elif op == 8:  # FDIV
                        if v1 == 0.0:
                            res = ieee_div(v0, v1)
                        else:
                            res = v0 / v1
                    elif op == 3:  # SDIV
                        if v1 == 0:
                            self.dyn_count = dyn
                            raise ComputeTrap("integer division by zero")
                        res = c_div(v0, v1)
                    elif op == 4:  # SREM
                        if v1 == 0:
                            self.dyn_count = dyn
                            raise ComputeTrap("integer remainder by zero")
                        res = c_rem(v0, v1)

                    # ---------------- comparisons ----------------
                    elif op == 15 or op == 21:  # ICMP_EQ / FCMP_EQ
                        res = 1 if v0 == v1 else 0
                    elif op == 16 or op == 22:  # NE
                        res = 1 if v0 != v1 else 0
                    elif op == 17 or op == 23:  # SLT / LT
                        res = 1 if v0 < v1 else 0
                    elif op == 18 or op == 24:  # SLE / LE
                        res = 1 if v0 <= v1 else 0
                    elif op == 19 or op == 25:  # SGT / GT
                        res = 1 if v0 > v1 else 0
                    elif op == 20 or op == 26:  # SGE / GE
                        res = 1 if v0 >= v1 else 0

                    # ---------------- bitwise ----------------
                    elif op == 9:  # SHL
                        if v1.__class__ is not int or v1 < 0:
                            self.dyn_count = dyn
                            raise ComputeTrap(f"shift by {v1!r}")
                        res = 0 if v1 >= 64 else wrap64(v0 << v1)
                    elif op == 10:  # LSHR
                        if v1.__class__ is not int or v1 < 0:
                            self.dyn_count = dyn
                            raise ComputeTrap(f"shift by {v1!r}")
                        res = 0 if v1 >= 64 else (v0 & _M64) >> v1
                    elif op == 11:  # ASHR
                        if v1.__class__ is not int or v1 < 0:
                            self.dyn_count = dyn
                            raise ComputeTrap(f"shift by {v1!r}")
                        res = v0 >> min(v1, 63)
                    elif op == 12:  # AND
                        res = v0 & v1
                    elif op == 13:  # OR
                        res = v0 | v1
                    elif op == 14:  # XOR
                        res = v0 ^ v1

                    # ---------------- unary / conversions ----------------
                    elif op == 54:  # MOV
                        res = v0
                    elif op == 27:  # NEG
                        res = wrap64(-v0)
                    elif op == 28:  # FNEG
                        res = -v0
                    elif op == 29:  # NOT
                        res = 1 if v0 == 0 else 0
                    elif op == 30:  # SITOFP
                        res = float(v0)
                    elif op == 31:  # FPTOSI
                        res = fptosi(v0)
                    elif op == 32:  # TRUNC32
                        res = wrap32(v0)
                    elif op == 33:  # FPTRUNC32
                        res = fptrunc32(v0)

                    # ---------------- math intrinsics ----------------
                    elif op == 41:  # SQRT
                        res = m_sqrt(v0) if v0 >= 0 else NAN
                    elif op == 42:  # FABS
                        res = abs(v0)
                    elif op == 43:  # EXP
                        try:
                            res = m_exp(v0)
                        except OverflowError:
                            res = INF
                    elif op == 44:  # LOG
                        if v0 > 0:
                            res = m_log(v0)
                        elif v0 == 0:
                            res = -INF
                        else:
                            res = NAN
                    elif op == 45:  # SIN
                        res = m_sin(v0) if isfinite(v0) else NAN
                    elif op == 46:  # COS
                        res = m_cos(v0) if isfinite(v0) else NAN
                    elif op == 47:  # FLOOR
                        res = m_floor(v0) if isfinite(v0) else v0
                    elif op == 48:  # POW
                        try:
                            res = m_pow(v0, v1)
                        except (OverflowError, ValueError):
                            res = NAN if v0 < 0 else INF
                    elif op == 49:  # FMIN
                        res = v0 if v0 < v1 else v1
                    elif op == 50:  # FMAX
                        res = v0 if v0 > v1 else v1
                    elif op == 51:  # IMIN
                        res = v0 if v0 < v1 else v1
                    elif op == 52:  # IMAX
                        res = v0 if v0 > v1 else v1
                    elif op == 53:  # IABS
                        res = wrap64(abs(v0))

                    # ---------------- frame ops ----------------
                    elif op == 39:  # CALL
                        callee = aux
                        if n == 2:
                            args = (v0, v1)
                        elif n == 1:
                            args = (v0,)
                        elif n == 0:
                            args = ()
                        else:
                            args = tuple(vals)
                        dyn += 1
                        frame.pc = pc + 1
                        self.sp = sp
                        new = push(callee, args, dest)
                        if recs is not None:
                            recs.append((sbase + pc, new.rbase, None)
                                        + _src_pairs(srcs, args, rbase)
                                        + ((new.uid, callee.index,
                                            len(args)),))
                        break  # switch to callee frame

                    elif op == 40:  # RET
                        retval = v0 if n else None
                        dyn += 1
                        dead = frames.pop()
                        stack_lo, stack_hi = dead.stack_mark, sp
                        sp = dead.stack_mark
                        self.sp = sp
                        if frames:
                            caller = frames[-1]
                            dloc = None
                            if dead.ret_slot is not None:
                                caller.regs[dead.ret_slot] = retval
                                dloc = caller.rbase - dead.ret_slot
                            if recs is not None:
                                recs.append(
                                    (sbase + pc, dloc, retval,
                                     None if c0 else rbase - p0, retval,
                                     (dead.uid, stack_lo, stack_hi)) if n
                                    else (sbase + pc, dloc, retval,
                                          (dead.uid, stack_lo, stack_hi)))
                            break  # resume caller
                        # entry function returned
                        if recs is not None:
                            recs.append(
                                (sbase + pc, None, retval,
                                 None if c0 else rbase - p0, retval,
                                 (dead.uid, stack_lo, stack_hi)) if n
                                else (sbase + pc, None, retval,
                                      (dead.uid, stack_lo, stack_hi)))
                        self.finished = True
                        self.result = retval
                        self.dyn_count = dyn
                        return "done"

                    elif op == 36:  # ALLOCA
                        if v0.__class__ is not int or v0 < 0 \
                                or sp + v0 > self.MEM_CAP:
                            self.dyn_count = dyn
                            raise MemoryFault(v0, "bad alloca size")
                        res = sp
                        sp += v0
                        self.sp = sp
                        if sp > len(mem):
                            mem.extend([0] * (sp - len(mem)))
                        # fresh stack memory is zeroed (clean values)
                        for a in range(res, sp):
                            mem[a] = 0

                    # ---------------- output ----------------
                    elif op == 55:  # EMIT
                        if n == 2:
                            vals2 = (v0, v1)
                        elif n == 1:
                            vals2 = (v0,)
                        elif n == 0:
                            vals2 = ()
                        else:
                            vals2 = tuple(vals)
                        try:
                            text = aux % vals2 if vals2 else aux
                        except (OverflowError, ValueError, TypeError):
                            text = f"<fmt-error {vals2!r}>"
                        out_append(text)
                        dyn += 1
                        if recs is not None:
                            recs.append((sbase + pc, None, None)
                                        + _src_pairs(srcs, vals2, rbase)
                                        + (text,))
                        pc += 1
                        continue

                    elif op == 56:  # NOP
                        dyn += 1
                        if recs is not None:
                            recs.append((sbase + pc, None, None))
                        pc += 1
                        continue

                    # ---------------- simulated MPI ----------------
                    elif op == 57:  # MPI_RANK
                        res = self.rank
                    elif op == 58:  # MPI_SIZE
                        res = self.comm.size if self.comm is not None else 1
                    elif op == 63:  # MPI_BARRIER
                        if self.comm is not None:
                            try:
                                self.comm.barrier(self.rank)
                            except WouldBlock:
                                frame.pc = pc
                                self.dyn_count = dyn
                                if flipnow:
                                    self._ftrig = fault.trigger
                                return "blocked"
                        dyn += 1
                        if recs is not None:
                            recs.append((sbase + pc, None, None))
                        pc += 1
                        continue
                    elif op == 59:  # MPI_SEND dst, tag, value
                        if self.comm is None:
                            raise VMError("MPI_SEND without a communicator")
                        self.comm.send(self.rank, vals[0], vals[1], vals[2])
                        dyn += 1
                        if recs is not None:
                            recs.append((sbase + pc, None, None)
                                        + _src_pairs(srcs, vals, rbase))
                        pc += 1
                        continue
                    elif op == 60:  # MPI_RECV src, tag
                        if self.comm is None:
                            raise VMError("MPI_RECV without a communicator")
                        try:
                            res = self.comm.recv(self.rank, v0, v1)
                        except WouldBlock:
                            frame.pc = pc
                            self.dyn_count = dyn
                            if flipnow:
                                self._ftrig = fault.trigger
                            return "blocked"
                    elif op == 61:  # MPI_ALLREDUCE
                        if self.comm is None:
                            res = v0
                        else:
                            try:
                                res = self.comm.allreduce(self.rank, v0, aux)
                            except WouldBlock:
                                frame.pc = pc
                                self.dyn_count = dyn
                                if flipnow:
                                    self._ftrig = fault.trigger
                                return "blocked"
                    elif op == 62:  # MPI_BCAST root, value
                        if self.comm is None:
                            res = v1
                        else:
                            try:
                                res = self.comm.bcast(self.rank, v0, v1)
                            except WouldBlock:
                                frame.pc = pc
                                self.dyn_count = dyn
                                if flipnow:
                                    self._ftrig = fault.trigger
                                return "blocked"
                    else:
                        self.dyn_count = dyn
                        raise VMError(f"unknown opcode {op} at pc {pc}")

                    # ---------- common commit for register-def ops ----------
                    if flipnow and dest is not None:
                        old = res
                        res = flip_value(res, fbit, fwidth)
                        self.dyn_count = dyn
                        self._record_result_fault(rbase - dest, old, res)
                    regs[dest] = res
                    dyn += 1
                    if recs is not None:
                        if n == 2:
                            recs.append((sbase + pc, rbase - dest, res,
                                         None if c0 else rbase - p0, v0,
                                         None if c1 else rbase - p1, v1))
                        elif n == 1:
                            recs.append((sbase + pc, rbase - dest, res,
                                         None if c0 else rbase - p0, v0))
                        elif n == 0:
                            recs.append((sbase + pc, rbase - dest, res))
                        else:
                            recs.append((sbase + pc, rbase - dest, res)
                                        + _src_pairs(srcs, vals, rbase))
                    pc += 1

            self.finished = True
            return "done"
        finally:
            self.dyn_count = dyn
            self.sp = sp
