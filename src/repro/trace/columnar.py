"""Columnar golden traces.

The golden (fault-free) trace is read by every analysis but never
changes, so it is stored as columns instead of a list of records
(:mod:`repro.trace.events` documents the raw record, the static table
and the decoded 9-tuple):

============  ==========================================================
``sid``       int32 static-instruction id
``dloc``      int64 destination, :data:`NO_LOC` for ``None``
``dtag``      uint8 value tag of ``dval`` (:data:`T_NONE` ...)
``dbits``     int64 value bits of ``dval`` (floats bit-exact)
``soff``      int64 CSR offsets: record ``t``'s sources are slots
              ``soff[t]:soff[t + 1]``
``sloc``      int64 source location per slot, :data:`NO_LOC` for a
              constant
``stag``      uint8 value tag per slot
``sbits``     int64 value bits per slot
``extra``     dict ``t -> payload`` for the CALL, RET and EMIT records
``bigints``   list of the ints that do not fit in int64
============  ==========================================================

A value is a tag plus eight bytes: ints as two's complement, floats as
their binary64 image (``-0.0`` and NaN payloads survive), bools as 0/1.
The VM wraps most int results to 64 bits but not all of them (a logical
shift right by 0 of a negative int yields its unsigned image, and
``INT64_MIN / -1`` yields 2^63), so an int outside int64 is tagged
:data:`T_BIG` and its bits index the ``bigints`` side list.  Encoding a
value of any other type raises ``ValueError``.

:meth:`GoldenTrace.extend` encodes one chunk of raw records at a time,
so the golden run never holds more than :data:`CHUNK` records as
tuples.  A record stores only its static id: ``op``, ``fn``, ``pc``,
``line`` and the slot count live in the module's static table.  The
record values are read from one flattened list of the chunk.  Indexing
and iteration decode the exact 9-tuples for cold callers; the analyses
read whole windows as column lists instead.

A faulty traced run's records are :class:`SplicedRecords`: the golden
prefix before its ladder rung (none for a cold run), seen through the
columns, plus the run's own raw suffix, read together with the static
table.  Both classes offer the same access API (``sids``, ``column``,
``ints``, ``field``, ``dvals_at``, ``last_write``, ``raw``).
"""

from __future__ import annotations

import gzip
import pickle
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.ir import opcodes as oc
from repro.ir.function import SLOT_LIMIT
from repro.trace.events import (R_DLOC, R_DVAL, R_EXTRA, R_FN, R_LINE, R_OP,
                                R_PC, R_SLOCS, R_SVALS, StaticTable, Trace,
                                TraceMeta, decode_record, static_table)

#: records per encoded chunk (the golden run's tuple list never grows
#: past it)
CHUNK = 1 << 14

#: ``dloc``/``sloc`` sentinel for ``None``
NO_LOC = int(np.iinfo(np.int64).min)

T_NONE, T_INT, T_FLOAT, T_BOOL, T_BIG = range(5)

_FLOAT_EXACT = float(1 << 53)
_SID, _DLOC, _DVAL = (itemgetter(i) for i in range(3))
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


def _gather(items: Sequence, idx: np.ndarray) -> Sequence:
    """``items`` at the positions ``idx``."""
    idx = idx.tolist()
    if len(idx) > 1:
        return itemgetter(*idx)(items)
    return [items[i] for i in idx]


def _encode_chunk(records: Sequence, t0: int, bigints: list,
                  table: StaticTable) -> dict:
    """Columns of one chunk of raw records starting at record ``t0``."""
    n = len(records)
    sid = np.fromiter(map(_SID, records), dtype=np.int32, count=n)
    nsrc = table.nsrc[sid]
    lens = np.fromiter(map(len, records), dtype=np.int64, count=n)
    # 1 where a payload ends the record
    tail = lens - 3 - 2 * nsrc
    if n and (tail.min() < 0 or tail.max() > 1):
        raise ValueError("records do not match their static instructions")
    # slot j (record i's k-th source) sits in the flattened chunk at
    # off[i] + 3 + 2k, that is (off[i] + 3 - 2 * first[i]) + 2j
    off = np.cumsum(lens) - lens
    first = np.cumsum(nsrc) - nsrc
    at = np.repeat(off + 3 - 2 * first, nsrc) + 2 * np.arange(
        int(nsrc.sum()), dtype=np.int64)
    flat = list(chain.from_iterable(records))
    cols = {"sid": sid, "slen": nsrc,
            "dloc": encode_locs(list(map(_DLOC, records))),
            "sloc": encode_locs(_gather(flat, at))}
    cols["dtag"], cols["dbits"] = encode_values(list(map(_DVAL, records)),
                                                bigints)
    cols["stag"], cols["sbits"] = encode_values(_gather(flat, at + 1),
                                                bigints)
    cols["extra"] = {t0 + i: records[i][-1]
                     for i in np.flatnonzero(tail).tolist()}
    return cols


_ARRAYS = ("sid", "dloc", "dtag", "dbits", "sloc", "stag", "sbits")
_DTYPES = (np.int32, np.int64, np.uint8, np.int64, np.int64, np.uint8,
           np.int64)


class _StaticFields:
    """Reads the static fields of records through their ids and the
    static table ``self.table``; both record containers share it."""

    __slots__ = ()

    def ints(self, field: int, lo: int, hi: int) -> np.ndarray:
        """Integer field ``field`` (op, fn, pc or line) of records
        ``[lo, hi)`` as an array."""
        return getattr(self.table, _INT_COLUMNS[field])[self.sids(lo, hi)]


class GoldenTrace(Trace, _StaticFields):
    """A fault-free trace stored as columns (see module docstring).

    Fill it with :meth:`extend` (one chunk of raw records at a time)
    and :meth:`seal` it; after that it is read-only.  It is its own
    ``records`` sequence: ``trace[t]`` and iteration yield the exact
    decoded 9-tuples, and :meth:`column` returns a window of one field
    as a list.  ``table`` defaults to the module's static table.
    """

    def __init__(self, module, meta: Optional[TraceMeta] = None, *,
                 table: Optional[StaticTable] = None):
        self.module = module
        self.meta = meta or TraceMeta()
        self.extra: dict = {}
        self.bigints: list = []
        self._parts: Optional[list] = []
        self._n = 0
        self._table = table

    @classmethod
    def from_records(cls, records: Sequence, module=None,
                     meta: Optional[TraceMeta] = None, *,
                     table: Optional[StaticTable] = None) -> "GoldenTrace":
        """Encode a whole raw record list (chunk by chunk) and seal it."""
        trace = cls(module, meta, table=table)
        for lo in range(0, len(records), CHUNK):
            trace.extend(records[lo:lo + CHUNK])
        return trace.seal()

    @property
    def table(self) -> StaticTable:
        if self._table is None:
            self._table = static_table(self.module)
        return self._table

    def extend(self, records: Sequence) -> None:
        """Encode and append one chunk of raw records."""
        if self._parts is None:
            raise ValueError("a sealed GoldenTrace is read-only")
        if not records:
            return
        cols = _encode_chunk(records, self._n, self.bigints, self.table)
        self.extra.update(cols.pop("extra"))
        self._parts.append(cols)
        self._n += len(records)

    def seal(self) -> "GoldenTrace":
        """Concatenate the chunks into the final columns."""
        parts, self._parts = self._parts, None
        if not parts:
            parts = [{name: np.zeros(0, dtype=dtype) for name, dtype in
                      zip(_ARRAYS + ("slen",), _DTYPES + (np.int64,))}]
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
        self._table = None
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
        return decode_record(self.table, self.raw(t))

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

    def sids(self, lo: int, hi: int) -> np.ndarray:
        """Static ids of records ``[lo, hi)``."""
        return self.sid[lo:max(lo, hi)]

    def raw(self, t: int) -> tuple:
        """The raw record ``t``."""
        pairs = chain.from_iterable(zip(self.field(t, R_SLOCS),
                                        self.field(t, R_SVALS)))
        rec = (int(self.sid[t]), self.field(t, R_DLOC),
               self.field(t, R_DVAL), *pairs)
        return rec + (self.extra[t],) if t in self.extra else rec

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
        return int(getattr(self.table, _INT_COLUMNS[field])[self.sid[t]])

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
        calls = (lo + np.flatnonzero(self.ints(R_OP, lo, hi) == oc.CALL)
                 ).tolist()
        extra = self.extra
        nargs = np.array([extra[t][2] for t in calls], dtype=np.int64)
        rbase = np.array([-(extra[t][0] * SLOT_LIMIT) - 1 for t in calls],
                         dtype=np.int64)
        ct = np.repeat(np.array(calls, dtype=np.int64), nargs)
        slot = np.arange(len(ct), dtype=np.int64) - np.repeat(
            np.cumsum(nargs) - nargs, nargs)
        return ct, slot, np.repeat(rbase, nargs) - slot


class SplicedRecords(Sequence, _StaticFields):
    """Records ``golden[:base]`` followed by the raw records ``suffix``,
    with :class:`GoldenTrace`'s access API.

    A warm-started traced run restored a ladder rung and executed only
    the suffix; its prefix is the golden trace's, read through the
    columns.  A cold run has no prefix (``golden=None``, ``base=0``).
    Indexing and iteration decode 9-tuples; the access API reads the
    raw suffix together with ``table``, the module's static table.
    """

    __slots__ = ("suffix", "table", "golden", "base")

    def __init__(self, suffix: list, table: StaticTable,
                 golden: Optional[GoldenTrace] = None, base: int = 0):
        self.suffix = suffix
        self.table = table
        self.golden = golden
        self.base = base

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
        return decode_record(self.table, self.suffix[t - self.base])

    def __iter__(self) -> Iterator:
        decoded = map(decode_record, repeat(self.table), self.suffix)
        if not self.base:
            return decoded
        return chain(self.golden.iter_range(0, self.base), decoded)

    # -- access API ----------------------------------------------------------
    def _suffix(self, lo: int, hi: int) -> list:
        """The raw suffix records among ``[lo, hi)``."""
        base = self.base
        return self.suffix[max(lo - base, 0):max(hi - base, 0)]

    def window(self, lo: int, hi: Optional[int] = None) -> list:
        """Records ``[lo, hi)`` as a list of decoded 9-tuples."""
        hi = len(self) if hi is None else min(hi, len(self))
        tail = [decode_record(self.table, rec)
                for rec in self._suffix(lo, hi)]
        if lo >= self.base:
            return tail
        return self.golden.window(lo, min(hi, self.base)) + tail

    def raw(self, t: int) -> tuple:
        """The raw record ``t``."""
        if t >= self.base:
            return self.suffix[t - self.base]
        return self.golden.raw(t)

    def sids(self, lo: int, hi: int) -> np.ndarray:
        """Static ids of records ``[lo, hi)``."""
        base = self.base
        a = max(lo - base, 0)
        b = max(min(hi, len(self)) - base, a)
        tail = np.fromiter(map(_SID, islice(self.suffix, a, b)),
                           dtype=np.int64, count=b - a)
        if lo >= base:
            return tail
        return np.concatenate((self.golden.sids(lo, min(hi, base)), tail))

    def column(self, field: int, lo: int, hi: int) -> list:
        """Field ``field`` of records ``[lo, hi)`` as a list."""
        if field in _INT_COLUMNS:
            return self.ints(field, lo, hi).tolist()
        return [rec[field] for rec in self.window(lo, hi)]

    def field(self, t: int, field: int):
        """Field ``field`` of record ``t``."""
        if t < 0:
            t += len(self)
        if t < self.base:
            return self.golden.field(t, field)
        return decode_record(self.table, self.suffix[t - self.base])[field]

    def dvals_at(self, ts: Sequence[int]) -> list:
        """``dval`` of the records at positions ``ts``."""
        base, suffix = self.base, self.suffix
        return [suffix[t - base][R_DVAL] if t >= base
                else self.golden.field(t, R_DVAL) for t in ts]

    def last_write(self, loc: int, t: int) -> tuple:
        """``(found, value)`` of the last write of ``loc`` before ``t``."""
        suffix = self.suffix
        for i in range(min(t, len(self)) - self.base - 1, -1, -1):
            if suffix[i][R_DLOC] == loc:
                return True, suffix[i][R_DVAL]
        if self.base:
            return self.golden.last_write(loc, min(t, self.base))
        return False, None
