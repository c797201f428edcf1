"""Functions and basic blocks of the mini-IR.

A :class:`Function` is built as a list of labelled :class:`Block`s and
then *finalized* into a flat, pre-decoded code array the interpreter
executes directly: branch labels become program-counter ints, and every
instruction becomes the 5-tuple ``(op, dest, srcs, aux, line)``.

The flat form also gives each static instruction a stable position —
its pc; a module's static table (:func:`repro.trace.events.static_table`)
turns ``(function, pc)`` into the static-instruction id that keys trace
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.ir import opcodes as oc
from repro.ir.instructions import Instr

# Register frames are addressed as -(frame_uid * SLOT_LIMIT + slot) - 1;
# the verifier enforces nslots < SLOT_LIMIT so encodings never collide.
SLOT_LIMIT = 4096


@dataclass
class Block:
    """A straight-line run of instructions ending in a terminator."""

    label: str
    instrs: list[Instr] = field(default_factory=list)

    def append(self, instr: Instr) -> Instr:
        self.instrs.append(instr)
        return instr

    @property
    def terminated(self) -> bool:
        return bool(self.instrs) and self.instrs[-1].is_terminator


class Function:
    """A mini-IR function.

    Parameters
    ----------
    name:
        Unique name within the module.
    params:
        Ordered parameter names; parameter *i* arrives in slot *i*.
    """

    def __init__(self, name: str, params: list[str]):
        self.name = name
        self.params = list(params)
        self.blocks: list[Block] = []
        self.nslots = len(params)
        # Populated by finalize():
        self.code: list[tuple] = []
        self.pc_of_block: dict[str, int] = {}
        self.block_of_pc: list[str] = []
        self.instr_at: list[Instr] = []
        self.index: int = -1  # position within the module, set by Module
        self.finalized = False

    def new_block(self, label: str) -> Block:
        if any(b.label == label for b in self.blocks):
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        block = Block(label)
        self.blocks.append(block)
        return block

    def new_slot(self) -> int:
        """Allocate a fresh virtual register slot."""
        slot = self.nslots
        self.nslots += 1
        if self.nslots > SLOT_LIMIT:
            raise ValueError(
                f"{self.name} exceeds {SLOT_LIMIT} register slots; "
                "split the kernel into smaller functions"
            )
        return slot

    def finalize(self) -> None:
        """Flatten blocks into the pre-decoded executable form."""
        if self.finalized:
            return
        pc = 0
        for block in self.blocks:
            if not block.terminated:
                raise ValueError(
                    f"block {block.label!r} of {self.name} lacks a terminator"
                )
            self.pc_of_block[block.label] = pc
            pc += len(block.instrs)

        for block in self.blocks:
            for instr in block.instrs:
                aux: Any = instr.aux
                if instr.op == oc.BR:
                    aux = self._pc(aux, block)
                elif instr.op == oc.CBR:
                    aux = (self._pc(aux[0], block), self._pc(aux[1], block))
                self.code.append((instr.op, instr.dest, instr.srcs, aux, instr.line))
                self.block_of_pc.append(block.label)
                self.instr_at.append(instr)
        self.finalized = True

    def _pc(self, label: str, block: Block) -> int:
        try:
            return self.pc_of_block[label]
        except KeyError:
            raise ValueError(
                f"branch in block {block.label!r} of {self.name} targets "
                f"unknown label {label!r}"
            ) from None

    def patch_calls(self, functions: dict[str, "Function"]) -> None:
        """Resolve CALL auxes from names to Function objects (run once)."""
        for i, (op, dest, srcs, aux, line) in enumerate(self.code):
            if op == oc.CALL and isinstance(aux, str):
                if aux not in functions:
                    raise ValueError(
                        f"{self.name} calls undefined function {aux!r}"
                    )
                self.code[i] = (op, dest, srcs, functions[aux], line)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Function {self.name}({', '.join(self.params)}) {len(self.blocks)} blocks>"
