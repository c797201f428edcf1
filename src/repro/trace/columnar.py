"""Columnar golden traces.

The golden (fault-free) trace is read by every analysis but never
changes, so it is stored as columns instead of a list of 9-tuples
(:mod:`repro.trace.events` documents the record schema):

============  ==========================================================
``op``        uint8 opcode
``fn``        int32 function index
``pc``        int32 static pc
``line``      int32 source line
``dloc``      int64 destination, :data:`NO_LOC` for ``None``
``dtag``      uint8 value tag of ``dval`` (:data:`T_NONE` ...)
``dbits``     int64 value bits of ``dval`` (floats bit-exact)
``soff``      int64 CSR offsets: record ``t``'s sources are slots
              ``soff[t]:soff[t + 1]``
``sloc``      int64 source location per slot, :data:`NO_LOC` for a
              constant
``stag``      uint8 value tag per slot
``sbits``     int64 value bits per slot
``extra``     dict ``t -> payload`` for the records whose ``extra`` is
              not ``None`` (CALL, RET, EMIT)
``bigints``   list of the ints that do not fit in int64
============  ==========================================================

A value is a tag plus eight bytes: ints as two's complement, floats as
their binary64 image (``-0.0`` and NaN payloads survive), bools as 0/1.
The VM wraps most int results to 64 bits but not all of them (a logical
shift right by 0 of a negative int yields its unsigned image, and
``INT64_MIN / -1`` yields 2^63), so an int outside int64 is tagged
:data:`T_BIG` and its bits index the ``bigints`` side list.  Encoding a
value of any other type raises ``ValueError``.

:meth:`GoldenTrace.extend` encodes one chunk of tuples at a time, so the
golden run never holds more than :data:`CHUNK` records as tuples.
Indexing and iteration decode the exact 9-tuples back for cold callers;
the analyses read whole windows as column lists instead.

A warm-started traced run executes only the suffix after its ladder
rung, and its records are :class:`SplicedRecords`: the golden prefix
seen through the columns plus the run's own suffix list.  Both classes
offer the same access API (``window``, ``column``, ``ints``,
``ints_at``, ``field``, ``last_write``), and :func:`records_view` gives
it to a plain tuple list as well.
"""

from __future__ import annotations

import gzip
import pickle
from itertools import chain
from operator import itemgetter
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.ir import opcodes as oc
from repro.ir.function import SLOT_LIMIT
from repro.trace.events import (R_DLOC, R_DVAL, R_EXTRA, R_FN, R_LINE, R_OP,
                                R_PC, R_SLOCS, R_SVALS, Trace, TraceMeta)

#: records per encoded chunk (the golden run's tuple list never grows
#: past it)
CHUNK = 1 << 14

#: ``dloc``/``sloc`` sentinel for ``None``
NO_LOC = int(np.iinfo(np.int64).min)

T_NONE, T_INT, T_FLOAT, T_BOOL, T_BIG = range(5)

_FLOAT_EXACT = float(1 << 53)
_GETTERS = [itemgetter(i) for i in range(9)]
_TAG_OF = {type(None): T_NONE, int: T_INT, float: T_FLOAT, bool: T_BOOL}
_INT_COLUMNS = {R_OP: "op", R_FN: "fn", R_PC: "pc", R_LINE: "line"}


# ---------------------------------------------------------------- codec
def encode_locs(locs: Sequence) -> np.ndarray:
    """Locations (ints or ``None``) -> int64 with :data:`NO_LOC`."""
    try:
        a = np.array(locs, dtype=np.float64)        # None -> nan
    except (OverflowError, TypeError, ValueError):
        a = None
    if a is not None:
        none = np.isnan(a)
        a[none] = 0.0
        if not a.size or np.abs(a).max() < _FLOAT_EXACT:
            out = a.astype(np.int64)
            out[none] = NO_LOC
            return out
    return np.array([NO_LOC if x is None else x for x in locs],
                    dtype=np.int64)


def decode_locs(arr: np.ndarray) -> list:
    """Inverse of :func:`encode_locs`: a list of ints and ``None``."""
    out = arr.tolist()
    if (arr == NO_LOC).any():
        out = [None if x == NO_LOC else x for x in out]
    return out


def encode_values(vals: Sequence, bigints: list
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Values -> ``(tags, bits)`` (see the module docstring).  Ints
    outside int64 are appended to ``bigints``."""
    try:
        tags = np.frombuffer(
            bytes(map(_TAG_OF.__getitem__, map(type, vals))), dtype=np.uint8)
    except KeyError as exc:
        raise ValueError(f"cannot encode a {exc.args[0].__name__} value") \
            from None
    ints = (tags == T_INT) | (tags == T_BOOL)
    try:
        f = np.array(vals, dtype=np.float64)        # None -> nan
    except OverflowError:                           # an int past float
        f = np.array([v if tag == T_FLOAT else 0.0
                      for tag, v in zip(tags.tolist(), vals)],
                     dtype=np.float64)
        fast = False
    else:
        fast = not ints.any() or np.abs(f[ints]).max() < _FLOAT_EXACT
    bits = np.where(tags == T_FLOAT, f.view(np.int64), 0)
    if fast:
        # every int is exact as a float: one conversion serves all
        bits[ints] = f[ints].astype(np.int64)
        return tags, bits
    at = np.flatnonzero(ints)
    exact = np.empty(len(at), dtype=object)
    exact[:] = [vals[i] for i in at.tolist()]
    try:
        bits[at] = exact.astype(np.int64)
        return tags, bits
    except OverflowError:
        pass
    tags = tags.copy()
    for i in at.tolist():
        v = vals[i]
        if -(1 << 63) <= v < 1 << 63:
            bits[i] = v
        else:
            tags[i], bits[i] = T_BIG, len(bigints)
            bigints.append(v)
    return tags, bits


def decode_values(tags: np.ndarray, bits: np.ndarray,
                  bigints: Sequence) -> list:
    """Inverse of :func:`encode_values`: a list of exact Python values."""
    out = np.empty(len(tags), dtype=object)
    m = tags == T_INT
    if m.any():
        out[m] = bits[m]
    m = tags == T_FLOAT
    if m.any():
        out[m] = bits[m].view(np.float64)
    m = tags == T_BOOL
    if m.any():
        out[m] = bits[m] != 0
    out = out.tolist()
    for i in np.flatnonzero(tags == T_BIG).tolist():
        out[i] = bigints[bits[i]]
    return out


def _encode_chunk(records: Sequence, t0: int, bigints: list) -> dict:
    """Columns of one chunk of tuples starting at record ``t0``."""
    def col(field: int) -> list:
        return list(map(_GETTERS[field], records))

    slocs, svals = col(R_SLOCS), col(R_SVALS)
    slen = list(map(len, slocs))
    if slen != list(map(len, svals)):
        raise ValueError("records' slocs and svals differ in length")
    cols = {"op": np.array(col(R_OP), dtype=np.uint8),
            "fn": np.array(col(R_FN), dtype=np.int32),
            "pc": np.array(col(R_PC), dtype=np.int32),
            "line": np.array(col(R_LINE), dtype=np.int32),
            "slen": np.array(slen, dtype=np.int64),
            "dloc": encode_locs(col(R_DLOC)),
            "sloc": encode_locs(list(chain.from_iterable(slocs)))}
    cols["dtag"], cols["dbits"] = encode_values(col(R_DVAL), bigints)
    cols["stag"], cols["sbits"] = encode_values(
        list(chain.from_iterable(svals)), bigints)
    # payloads sit on CALL/RET/EMIT records; scan them, and every record
    # only when some other record carries one
    extras = col(R_EXTRA)
    at = np.flatnonzero(np.isin(cols["op"], _EXTRA_OPS)).tolist()
    found = {t0 + i: extras[i] for i in at if extras[i] is not None}
    if len(found) != len(extras) - extras.count(None):
        found = {t: e for t, e in enumerate(extras, t0) if e is not None}
    cols["extra"] = found
    return cols


_EXTRA_OPS = (oc.CALL, oc.RET, oc.EMIT)
_ARRAYS = ("op", "fn", "pc", "line", "dloc", "dtag", "dbits", "sloc",
           "stag", "sbits")


class GoldenTrace(Trace):
    """A fault-free trace stored as columns (see module docstring).

    Fill it with :meth:`extend` (one chunk of record tuples at a time)
    and :meth:`seal` it; after that it is read-only.  It is its own
    ``records`` sequence: ``trace[t]`` and iteration yield the exact
    9-tuples, and :meth:`column` returns a window of one field as a
    list.
    """

    def __init__(self, module, meta: Optional[TraceMeta] = None):
        self.module = module
        self.meta = meta or TraceMeta()
        self.extra: dict = {}
        self.bigints: list = []
        self._parts: Optional[list] = []
        self._n = 0

    @classmethod
    def from_records(cls, records: Sequence, module=None,
                     meta: Optional[TraceMeta] = None) -> "GoldenTrace":
        """Encode a whole record list (chunk by chunk) and seal it."""
        trace = cls(module, meta)
        for lo in range(0, len(records), CHUNK):
            trace.extend(records[lo:lo + CHUNK])
        return trace.seal()

    def extend(self, records: Sequence) -> None:
        """Encode and append one chunk of record tuples."""
        if self._parts is None:
            raise ValueError("a sealed GoldenTrace is read-only")
        if not records:
            return
        cols = _encode_chunk(records, self._n, self.bigints)
        self.extra.update(cols.pop("extra"))
        self._parts.append(cols)
        self._n += len(records)

    def seal(self) -> "GoldenTrace":
        """Concatenate the chunks into the final columns."""
        parts, self._parts = self._parts, None
        if not parts:
            parts = [_encode_chunk([], 0, self.bigints)]
        # one column at a time, freeing its chunks as it goes, so the
        # seal never holds two copies of the whole trace
        for name in _ARRAYS:
            setattr(self, name, np.concatenate([p.pop(name) for p in parts]))
        self.soff = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(np.concatenate([p.pop("slen") for p in parts]),
                  out=self.soff[1:])
        return self

    # -- persistence -----------------------------------------------------
    def __getstate__(self) -> dict:
        if self._parts is not None:
            raise ValueError("seal a GoldenTrace before pickling it")
        return {name: getattr(self, name) for name in
                _ARRAYS + ("soff", "extra", "bigints", "_n", "meta")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._parts = None
        self.module = None

    def save(self, path: str) -> None:
        """Persist the columns + meta (:meth:`Trace.load` reads them back
        as a :class:`GoldenTrace`)."""
        with gzip.open(path, "wb") as fh:
            pickle.dump({"golden": self.__getstate__()}, fh,
                        protocol=pickle.HIGHEST_PROTOCOL)

    @property
    def nbytes(self) -> int:
        """Bytes held by the columns (side dicts excluded)."""
        return sum(getattr(self, name).nbytes for name in _ARRAYS) + \
            self.soff.nbytes

    # -- sequence of 9-tuples ----------------------------------------------
    @property
    def records(self) -> "GoldenTrace":
        return self

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            lo, hi, step = idx.indices(self._n)
            if step == 1:
                return self.window(lo, hi)
            return [self[t] for t in range(lo, hi, step)]
        t = idx + self._n if idx < 0 else idx
        if not 0 <= t < self._n:
            raise IndexError("trace index out of range")
        return (int(self.op[t]), self.field(t, R_DLOC), self.field(t, R_DVAL),
                self.field(t, R_SLOCS), self.field(t, R_SVALS),
                int(self.line[t]), int(self.fn[t]), int(self.pc[t]),
                self.extra.get(t))

    def __iter__(self) -> Iterator:
        return self.iter_range(0, self._n)

    def iter_range(self, lo: int, hi: int) -> Iterator:
        """The tuples of records ``[lo, hi)``, decoded a chunk at a time."""
        for a in range(lo, hi, CHUNK):
            b = min(hi, a + CHUNK)
            yield from zip(*(self.column(field, a, b) for field in range(9)))

    # -- access API ----------------------------------------------------------
    def window(self, lo: int, hi: Optional[int] = None) -> list:
        """Records ``[lo, hi)`` as a tuple list."""
        hi = self._n if hi is None else min(hi, self._n)
        return list(self.iter_range(lo, hi))

    def column(self, field: int, lo: int, hi: int) -> list:
        """Field ``field`` of records ``[lo, hi)`` as a list."""
        hi = min(hi, self._n)
        if hi <= lo:
            return []
        if field == R_DLOC:
            return decode_locs(self.dloc[lo:hi])
        if field == R_DVAL:
            return self.dvals_at(slice(lo, hi))
        if field in (R_SLOCS, R_SVALS):
            off = self.soff[lo:hi + 1]
            a, b = int(off[0]), int(off[-1])
            flat = decode_locs(self.sloc[a:b]) if field == R_SLOCS else \
                self.svals_at(slice(a, b))
            bounds = (off - a).tolist()
            return [tuple(flat[i:j]) for i, j in zip(bounds, bounds[1:])]
        if field == R_EXTRA:
            get = self.extra.get
            return [get(t) for t in range(lo, hi)]
        return self.ints(field, lo, hi).tolist()

    def ints(self, field: int, lo: int, hi: int) -> np.ndarray:
        """Integer field ``field`` (op, fn, pc or line) of records
        ``[lo, hi)`` as an array."""
        return getattr(self, _INT_COLUMNS[field])[lo:max(lo, hi)]

    def ints_at(self, field: int, ts: np.ndarray) -> np.ndarray:
        """Integer field ``field`` of the records at positions ``ts``."""
        return getattr(self, _INT_COLUMNS[field])[ts]

    def field(self, t: int, field: int):
        """Field ``field`` of record ``t``."""
        if t < 0:
            t += self._n
        if field == R_DLOC:
            loc = int(self.dloc[t])
            return None if loc == NO_LOC else loc
        if field == R_DVAL:
            return self._value(self.dtag, self.dbits, t)
        if field == R_SLOCS:
            a, b = int(self.soff[t]), int(self.soff[t + 1])
            return tuple(decode_locs(self.sloc[a:b]))
        if field == R_SVALS:
            a, b = int(self.soff[t]), int(self.soff[t + 1])
            return tuple(self._value(self.stag, self.sbits, k)
                         for k in range(a, b))
        if field == R_EXTRA:
            return self.extra.get(t)
        return int(self.ints_at(field, t))

    def last_write(self, loc: int, t: int) -> tuple:
        """``(found, value)`` of the last write of ``loc`` before ``t``."""
        hits = np.flatnonzero(self.dloc[:t] == loc)
        if hits.size:
            return True, self.field(int(hits[-1]), R_DVAL)
        return False, None

    def _value(self, tags: np.ndarray, bits: np.ndarray, i: int):
        """The value at position ``i`` of a tag/bits column pair."""
        tag = tags[i]
        if tag == T_FLOAT:
            return float(bits[i:i + 1].view(np.float64)[0])
        if tag == T_INT:
            return int(bits[i])
        if tag == T_BOOL:
            return bool(bits[i])
        if tag == T_BIG:
            return self.bigints[bits[i]]
        return None

    def dvals_at(self, ts) -> list:
        """``dval`` of the records at ``ts`` (an index array or slice)."""
        return decode_values(self.dtag[ts], self.dbits[ts], self.bigints)

    def svals_at(self, ks) -> list:
        """Value of each source slot at ``ks`` (CSR slot indices)."""
        return decode_values(self.stag[ks], self.sbits[ks], self.bigints)

    def param_writes(self, lo: int, hi: int):
        """The callee-parameter writes of the CALLs in ``[lo, hi)``:
        arrays ``(t, i, loc)`` of the CALL record, the parameter slot
        and its register location, in execution order."""
        calls = (lo + np.flatnonzero(self.op[lo:hi] == oc.CALL)).tolist()
        extra = self.extra
        nargs = np.array([extra[t][2] for t in calls], dtype=np.int64)
        rbase = np.array([-(extra[t][0] * SLOT_LIMIT) - 1 for t in calls],
                         dtype=np.int64)
        ct = np.repeat(np.array(calls, dtype=np.int64), nargs)
        slot = np.arange(len(ct), dtype=np.int64) - np.repeat(
            np.cumsum(nargs) - nargs, nargs)
        return ct, slot, np.repeat(rbase, nargs) - slot

    # -- convenience -------------------------------------------------------
    def lines_touched(self) -> set[int]:
        return set(np.unique(self.line).tolist())

    def count_ops(self) -> dict[int, int]:
        ops, counts = np.unique(self.op, return_counts=True)
        return dict(zip(ops.tolist(), counts.tolist()))


class SplicedRecords(Sequence):
    """Records ``golden[:base] + suffix``, with :class:`GoldenTrace`'s
    access API.

    A warm-started traced run restored a ladder rung and executed only
    the suffix; its prefix is the golden trace's, read through the
    columns.  With no prefix (``golden=None``, ``base=0``) it serves a
    plain tuple list (see :func:`records_view`).
    """

    __slots__ = ("golden", "base", "suffix")

    def __init__(self, golden: Optional[GoldenTrace], base: int,
                 suffix: list):
        self.golden = golden
        self.base = base
        self.suffix = suffix

    def __len__(self) -> int:
        return self.base + len(self.suffix)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            lo, hi, step = idx.indices(len(self))
            if step == 1:
                return self.window(lo, hi)
            return [self[t] for t in range(lo, hi, step)]
        t = idx + len(self) if idx < 0 else idx
        if t < 0:
            raise IndexError("trace index out of range")
        if t < self.base:
            return self.golden[t]
        return self.suffix[t - self.base]

    def __iter__(self) -> Iterator:
        if not self.base:
            return iter(self.suffix)
        return chain(self.golden.iter_range(0, self.base), self.suffix)

    # -- access API ----------------------------------------------------------
    def _suffix(self, lo: int, hi: int) -> list:
        """The suffix records among ``[lo, hi)``."""
        base = self.base
        return self.suffix[max(lo - base, 0):max(hi - base, 0)]

    def window(self, lo: int, hi: Optional[int] = None) -> list:
        """Records ``[lo, hi)`` as a tuple list; only golden-prefix
        records are decoded."""
        hi = len(self) if hi is None else min(hi, len(self))
        if lo >= self.base:
            return self._suffix(lo, hi)
        return self.golden.window(lo, min(hi, self.base)) + \
            self._suffix(lo, hi)

    def column(self, field: int, lo: int, hi: int) -> list:
        """Field ``field`` of records ``[lo, hi)`` as a list."""
        tail = list(map(_GETTERS[field], self._suffix(lo, hi)))
        if lo >= self.base:
            return tail
        return self.golden.column(field, lo, min(hi, self.base)) + tail

    def ints(self, field: int, lo: int, hi: int) -> np.ndarray:
        """Integer field ``field`` (op, fn, pc or line) of records
        ``[lo, hi)`` as an array."""
        tail = np.array(list(map(_GETTERS[field], self._suffix(lo, hi))),
                        dtype=np.int64)
        if lo >= self.base:
            return tail
        return np.concatenate(
            (self.golden.ints(field, lo, min(hi, self.base)), tail))

    def ints_at(self, field: int, ts: np.ndarray) -> np.ndarray:
        """Integer field ``field`` of the records at positions ``ts``."""
        out = np.empty(len(ts), dtype=np.int64)
        prefix = ts < self.base
        if prefix.any():
            out[prefix] = self.golden.ints_at(field, ts[prefix])
        suffix = self.suffix
        out[~prefix] = [suffix[t][field]
                        for t in (ts[~prefix] - self.base).tolist()]
        return out

    def field(self, t: int, field: int):
        """Field ``field`` of record ``t``."""
        if t < 0:
            t += len(self)
        if t < self.base:
            return self.golden.field(t, field)
        return self.suffix[t - self.base][field]

    def last_write(self, loc: int, t: int) -> tuple:
        """``(found, value)`` of the last write of ``loc`` before ``t``."""
        suffix = self.suffix
        for i in range(min(t, len(self)) - self.base - 1, -1, -1):
            if suffix[i][R_DLOC] == loc:
                return True, suffix[i][R_DVAL]
        if self.base:
            return self.golden.last_write(loc, min(t, self.base))
        return False, None


def records_view(records):
    """``records`` with the access API: a :class:`GoldenTrace` or
    :class:`SplicedRecords` as it is, a tuple list as a
    :class:`SplicedRecords` with no golden prefix."""
    if isinstance(records, (GoldenTrace, SplicedRecords)):
        return records
    return SplicedRecords(None, 0, records)
