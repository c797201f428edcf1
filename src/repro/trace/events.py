"""Dynamic trace schema.

Every executed instruction appends exactly one 9-tuple record, NOPs
included (see :mod:`repro.vm.interp`), so a record index is a dynamic
instruction index: region boundaries, ladder rungs and fault triggers
share one index.  Field indices are exported as constants so the
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

Storage: the VM appends tuples to a list, and a faulty trace keeps
them.  The golden trace is stored as columns instead
(:class:`~repro.trace.columnar.GoldenTrace`): the golden run is encoded
a chunk at a time, so its tuple list never outgrows one chunk.  A
warm-started traced run holds only the records after its ladder rung;
its :class:`Trace` sees the golden prefix through the columns
(:class:`~repro.trace.columnar.SplicedRecords`).  All three read as the
same sequence of 9-tuples.  The golden columns and the spliced view
also share one access API (windows, column lists, integer columns,
single fields, the last write of a location), which
:func:`~repro.trace.columnar.records_view` extends to a plain tuple
list; :meth:`Trace.column`, :meth:`Trace.field`,
:meth:`Trace.first_divergence` and :func:`value_at` go through it, so
they read windows and single fields without building tuples.
"""

from __future__ import annotations

import gzip
import pickle
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

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

    Wraps a record sequence: the VM's tuple list, or the spliced view
    of a warm-started run.  The wrapper provides window and field
    access, persistence, and the control-flow signature used to find
    divergence points between faulty and fault-free runs.
    """

    def __init__(self, records: Sequence, module: Module,
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

    # -- field access ---------------------------------------------------------
    def column(self, field: int, lo: int, hi: int) -> list:
        """Field ``field`` of records ``[lo, hi)`` as a list."""
        from repro.trace.columnar import records_view
        return records_view(self.records).column(field, lo, hi)

    def field(self, t: int, field: int):
        """Field ``field`` of record ``t``."""
        from repro.trace.columnar import records_view
        return records_view(self.records).field(t, field)

    # -- divergence ---------------------------------------------------------
    def first_divergence(self, other: "Trace",
                         start: int = 0) -> Optional[int]:
        """First index where control flow differs from ``other``.

        Compares the static-instruction stream ``(fn, pc)``; returns
        ``None`` when one trace is a prefix of the other's control path
        (including identical traces).  The comparison begins at record
        ``start``: the caller vouches that the records before it match.
        The streams are compared in growing windows, so an early
        divergence reads little of either trace.
        """
        from repro.trace.columnar import records_view
        a, b = records_view(self.records), records_view(other.records)
        n = min(len(a), len(b))
        lo, step = start, 1024
        while lo < n:
            hi = min(n, lo + step)
            diff = np.flatnonzero(
                (a.ints(R_FN, lo, hi) != b.ints(R_FN, lo, hi))
                | (a.ints(R_PC, lo, hi) != b.ints(R_PC, lo, hi)))
            if diff.size:
                return lo + int(diff[0])
            lo, step = hi, step * 4
        return None if len(a) == len(b) else n

    # -- persistence -----------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist records + meta (module is reattached on load)."""
        with gzip.open(path, "wb") as fh:
            pickle.dump({"records": list(self.records), "meta": self.meta},
                        fh, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str, module: Module) -> "Trace":
        """Load a saved trace; a saved golden trace loads as one."""
        with gzip.open(path, "rb") as fh:
            payload = pickle.load(fh)
        if "golden" in payload:
            from repro.trace.columnar import GoldenTrace
            trace = GoldenTrace.__new__(GoldenTrace)
            trace.__setstate__(payload["golden"])
            trace.module = module
            return trace
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

    Finds the last write; returns ``(found, value)``.  Used to snapshot
    region inputs/outputs at instance boundaries.
    """
    from repro.trace.columnar import records_view
    return records_view(records).last_write(loc, t)
