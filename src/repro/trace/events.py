"""Dynamic trace schema.

Every executed instruction appends one 9-tuple record (see
:mod:`repro.vm.interp`).  Field indices are exported as constants so the
analysis passes can index tuples directly (attribute-free hot loops):

===========  =====================================================
``R_OP``     opcode int
``R_DLOC``   destination location (heap addr >= 0, register < 0,
             ``None`` for control/emit records)
``R_DVAL``   value written (or branch direction for CBR)
``R_SLOCS``  tuple of source locations (``None`` entries = constants)
``R_SVALS``  tuple of source values
``R_LINE``   source line of the MiniHPC kernel
``R_FN``     function index within the module
``R_PC``     static pc within the function
``R_EXTRA``  op-specific payload: CALL ``(uid, callee, nargs)``,
             RET ``(dead uid, stack lo, stack hi)``, EMIT text
===========  =====================================================
"""

from __future__ import annotations

import gzip
import pickle
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.ir import opcodes as oc
from repro.ir.module import Module

R_OP = 0
R_DLOC = 1
R_DVAL = 2
R_SLOCS = 3
R_SVALS = 4
R_LINE = 5
R_FN = 6
R_PC = 7
R_EXTRA = 8


@dataclass
class TraceMeta:
    """Provenance of a trace (who produced it, how, with what fault)."""

    program: str = "?"
    rank: int = 0
    faulty: bool = False
    fault_desc: str = ""
    seed: Optional[int] = None


class Trace:
    """A dynamic instruction trace plus the module that produced it.

    Thin wrapper over the raw record list; the analyses mostly iterate
    ``trace.records`` directly for speed, but the wrapper provides
    indexing helpers, persistence, and the control-flow signature used
    to find divergence points between faulty and fault-free runs.
    """

    def __init__(self, records: list, module: Module,
                 meta: Optional[TraceMeta] = None):
        self.records = records
        self.module = module
        self.meta = meta or TraceMeta()

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    def __iter__(self) -> Iterator:
        return iter(self.records)

    # -- divergence ---------------------------------------------------------
    def first_divergence(self, other: "Trace",
                         start: int = 0) -> Optional[int]:
        """First index where control flow differs from ``other``.

        Compares the static-instruction stream ``(fn, pc)``; returns
        ``None`` when one trace is a prefix of the other's control path
        (including identical traces).  The comparison begins at record
        ``start``: the caller vouches that the records before it match.
        """
        a, b = self.records, other.records
        n = min(len(a), len(b))
        for i in range(start, n):
            ra, rb = a[i], b[i]
            if ra[R_FN] != rb[R_FN] or ra[R_PC] != rb[R_PC]:
                return i
        return None if len(a) == len(b) else n

    # -- persistence -----------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist records + meta (module is reattached on load)."""
        with gzip.open(path, "wb") as fh:
            pickle.dump({"records": self.records, "meta": self.meta}, fh,
                        protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str, module: Module) -> "Trace":
        with gzip.open(path, "rb") as fh:
            payload = pickle.load(fh)
        return cls(payload["records"], module, payload["meta"])

    # -- convenience -----------------------------------------------------------
    def lines_touched(self) -> set[int]:
        return {r[R_LINE] for r in self.records}

    def count_ops(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for r in self.records:
            op = r[R_OP]
            counts[op] = counts.get(op, 0) + 1
        return counts

    def describe(self) -> str:
        ops = sorted(self.count_ops().items(), key=lambda kv: -kv[1])
        top = ", ".join(f"{oc.op_name(o)}={n}" for o, n in ops[:8])
        return (f"Trace({self.meta.program}, rank {self.meta.rank}, "
                f"{len(self.records)} records; {top})")


def value_at(records: Sequence, loc: int, t: int):
    """Value held at ``loc`` just before record index ``t``.

    Scans backward for the last write; returns ``(found, value)``.
    Used to snapshot region inputs/outputs at instance boundaries.
    """
    for i in range(t - 1, -1, -1):
        r = records[i]
        if r[R_DLOC] == loc:
            return True, r[R_DVAL]
    return False, None
