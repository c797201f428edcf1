"""Dynamic trace schema.

Every executed instruction appends exactly one record, NOPs included
(see :mod:`repro.vm.interp`), so a record index is a dynamic
instruction index: region boundaries, ladder rungs and fault triggers
share one index.

**Raw form.**  Both traced VM tiers append one flat tuple per
instruction::

    (sid, dloc, dval, sloc0, sval0, sloc1, sval1, ..., [payload])

``sid`` is the static-instruction id (below), ``dloc`` the destination
location (heap addr >= 0, register < 0, ``None`` for control/emit
records) and ``dval`` the value written (the branch direction for a
CBR).  The source ``(sloc, sval)`` pairs follow in order; a ``None``
``sloc`` is a constant.  CALL, RET and EMIT records end with their
payload: CALL ``(uid, callee, nargs)``, RET ``(dead uid, stack lo,
stack hi)``, EMIT the formatted text.  No other record has one.

**Static table.**  :func:`static_table` maps a module's ``sid`` to the
instruction's ``op``, ``fn`` (function index), ``pc``, source ``line``
and source count ``nsrc`` (:class:`StaticTable`).  Ids are dense: a
per-function base plus the pc.  The table is built once per module and
memoized on it.

**Decoded form.**  Cold callers (indexing and iterating a
:class:`Trace`, :meth:`Trace.save`, the DDDG, the CLI) see the 9-tuple
:func:`decode_record` makes from a raw record and the table.  Field
indices are exported as constants:

===========  =====================================================
``R_OP``     opcode int
``R_DLOC``   destination location (as in the raw form)
``R_DVAL``   value written (as in the raw form)
``R_SLOCS``  tuple of source locations (``None`` entries = constants)
``R_SVALS``  tuple of source values
``R_LINE``   source line of the MiniHPC kernel
``R_FN``     function index within the module
``R_PC``     static pc within the function
``R_EXTRA``  the payload, ``None`` for records without one
===========  =====================================================

``dloc`` and ``dval`` sit at the same index in both forms.

Storage: the VM appends raw tuples to a list, and a faulty trace keeps
them.  The golden trace is stored as columns instead
(:class:`~repro.trace.columnar.GoldenTrace`): the golden run is encoded
a chunk at a time, so its tuple list never outgrows one chunk.  A
faulty :class:`Trace` holds :class:`~repro.trace.columnar.
SplicedRecords`: the golden prefix before its ladder rung, read
through the columns, then its own raw suffix.  Both read as the same
sequence of decoded 9-tuples, and both share one access API (static
ids, column lists, integer columns, single fields, ``dval`` gathers,
the last write of a location) that the analyses use instead of
decoding records.
"""

from __future__ import annotations

import gzip
import pickle
from dataclasses import dataclass
from itertools import chain
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


class StaticTable:
    """Per-static-instruction fields of a module's records.

    ``op``, ``fn``, ``pc``, ``line`` and ``nsrc`` are arrays indexed by
    static id (the dtypes of the golden columns they are gathered
    into); ``ops``, ``fns``, ``pcs``, ``lines`` and ``nsrcs`` are the
    same as lists of Python ints, for per-record reads.  ``base[i]``
    is the id of pc 0 of function ``i``.  :func:`static_table` builds
    a module's; a table built directly (``base`` empty) serves
    synthetic records.
    """

    def __init__(self, op: Sequence[int], fn: Sequence[int],
                 pc: Sequence[int], line: Sequence[int],
                 nsrc: Sequence[int], base: Sequence[int] = ()):
        self.op = np.array(op, dtype=np.uint8)
        self.fn = np.array(fn, dtype=np.int32)
        self.pc = np.array(pc, dtype=np.int32)
        self.line = np.array(line, dtype=np.int32)
        self.nsrc = np.array(nsrc, dtype=np.int64)
        self.ops, self.fns, self.pcs, self.lines, self.nsrcs = (
            list(op), list(fn), list(pc), list(line), list(nsrc))
        self.base = list(base)
        self._bases = np.array(self.base, dtype=np.int64)

    def sids_of(self, fn: np.ndarray, pc: np.ndarray) -> np.ndarray:
        """The static ids of ``(fn, pc)`` column pairs."""
        return self._bases[fn] + pc


def static_table(module: Module) -> StaticTable:
    """The :class:`StaticTable` of a finalized module, built once."""
    table = module.__dict__.get("_static_table")
    if table is None:
        cols: tuple[list, ...] = ([], [], [], [], [])
        base = []
        for fn in sorted(module.functions.values(), key=lambda f: f.index):
            base.append(len(cols[0]))
            for pc, (op, _dest, srcs, _aux, line) in enumerate(fn.code):
                # a LOAD records its address and the address register
                nsrc = 2 if op == oc.LOAD else len(srcs)
                for col, value in zip(cols, (op, fn.index, pc, line, nsrc)):
                    col.append(value)
        table = module._static_table = StaticTable(*cols, base=base)
    return table


def decode_record(table: StaticTable, rec: tuple) -> tuple:
    """The decoded 9-tuple of raw record ``rec``."""
    sid = rec[0]
    end = 3 + 2 * table.nsrcs[sid]
    return (table.ops[sid], rec[1], rec[2], rec[3:end:2], rec[4:end:2],
            table.lines[sid], table.fns[sid], table.pcs[sid],
            rec[end] if len(rec) > end else None)


def encode_record(table: StaticTable, rec: tuple) -> tuple:
    """The raw record of decoded 9-tuple ``rec`` (inverse of
    :func:`decode_record` for a module's table)."""
    op, dloc, dval, slocs, svals, line, fn, pc, extra = rec
    sid = table.base[fn] + pc
    if (table.ops[sid], table.fns[sid], table.pcs[sid], table.lines[sid],
            table.nsrcs[sid], len(svals)) != \
            (op, fn, pc, line, len(slocs), len(slocs)):
        raise ValueError(f"record {rec!r} does not match static "
                         f"instruction {sid}")
    pairs = tuple(chain.from_iterable(zip(slocs, svals)))
    return (sid, dloc, dval) + pairs + (() if extra is None else (extra,))


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

    Wraps a record sequence with the access API: the golden columns, or
    :class:`~repro.trace.columnar.SplicedRecords` (a raw VM list is
    wrapped in one).  Indexing and iteration yield decoded 9-tuples.
    The wrapper provides field access, persistence, and the
    control-flow signature used to find divergence points between
    faulty and fault-free runs.
    """

    def __init__(self, records: Sequence, module: Module,
                 meta: Optional[TraceMeta] = None):
        if isinstance(records, list):
            from repro.trace.columnar import SplicedRecords
            records = SplicedRecords(records, static_table(module))
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
        return self.records.column(field, lo, hi)

    def field(self, t: int, field: int):
        """Field ``field`` of record ``t``."""
        return self.records.field(t, field)

    # -- divergence ---------------------------------------------------------
    def first_divergence(self, other: "Trace",
                         start: int = 0) -> Optional[int]:
        """First index where control flow differs from ``other``.

        Compares the static-instruction id streams; returns ``None``
        when one trace is a prefix of the other's control path
        (including identical traces).  The comparison begins at record
        ``start``: the caller vouches that the records before it match.
        The streams are compared in growing windows, so an early
        divergence reads little of either trace.
        """
        a, b = self.records, other.records
        n = min(len(a), len(b))
        lo, step = start, 1024
        while lo < n:
            hi = min(n, lo + step)
            diff = np.flatnonzero(a.sids(lo, hi) != b.sids(lo, hi))
            if diff.size:
                return lo + int(diff[0])
            lo, step = hi, step * 4
        return None if len(a) == len(b) else n

    # -- persistence -----------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the decoded records + meta (module is reattached on
        load)."""
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
        table = static_table(module)
        return cls([encode_record(table, rec) for rec in payload["records"]],
                   module, payload["meta"])

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

    Finds the last write in a trace's records (the access API);
    returns ``(found, value)``.  Used to snapshot region inputs/outputs
    at instance boundaries.
    """
    return records.last_write(loc, t)
