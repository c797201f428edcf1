"""The columnar golden trace: codec, residency and the passes over it.

* **Codec round trip.**  Hypothesis-generated flat records (over a
  synthetic static table) decode to the same values *and types*: ints
  at the int64 limits, ``True`` vs ``1``, ``-0.0``, NaN payloads,
  infinities, ``None``, empty and three-slot sources with constant
  (``None``) locations, and the CALL/RET/EMIT payloads, and ints past
  int64 (the VM's unwrapped results); values of other types are
  rejected.
* **Golden fidelity.**  Every record of the kmeans, cg and lulesh
  goldens decodes, type-exact, to the tuple a plain traced run appends,
  on both exec tiers; the columns stay under 80 bytes per record; the
  golden bundle holds no record list after its run, and the run never
  hands the encoder more than one chunk.
* **Oracles.**  The column passes equal the record-by-record references
  in ``tests/helpers.py`` on every instance (``whole_program``
  included) of kmeans, cg, mg and lulesh: ``RegionIO`` with the
  insertion order of ``inputs``/``outputs`` and the CALL rule, every
  ``TraceIndex`` query, and the region split.
"""

import math
import struct
from itertools import chain

import numpy as np
import pytest
from helpers import (OracleTraceIndex, oracle_classify_io,
                     oracle_split_instances)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import REGISTRY
from repro.apps.base import Program
from repro.core import FlipTracker
from repro.core.fliptracker import GoldenArtifacts
from repro.frontend import ProgramBuilder
from repro.ir import opcodes as oc
from repro.ir.function import SLOT_LIMIT
from repro.ir.types import I64
from repro.regions.model import split_instances
from repro.regions.variables import classify_io
from repro.trace import columnar
from repro.trace.columnar import CHUNK, GoldenTrace, SplicedRecords
from repro.trace.events import (StaticTable, Trace, decode_record,
                                static_table, value_at)
from repro.trace.index import TraceIndex


def _exact(value):
    """A key equal only for the same type and the same bits."""
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    if type(value) is float:
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _flatten(records):
    """Flat records and a synthetic static table for 9-tuples: one id
    per distinct ``(op, fn, pc, line, source count)``."""
    keys: dict = {}
    flat = []
    for op, dloc, dval, slocs, svals, line, fn, pc, extra in records:
        sid = keys.setdefault((op, fn, pc, line, len(slocs)), len(keys))
        flat.append((sid, dloc, dval)
                    + tuple(chain.from_iterable(zip(slocs, svals)))
                    + (() if extra is None else (extra,)))
    return flat, StaticTable(*(zip(*keys) if keys else ((),) * 5))


def _encode(records) -> GoldenTrace:
    flat, table = _flatten(records)
    return GoldenTrace.from_records(flat, table=table)


def _nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000
                                           | payload))[0]


_INT64 = (1 << 63) - 1
_values = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-_INT64 - 1, max_value=_INT64),
    st.integers(),
    st.sampled_from([_INT64, -_INT64 - 1, (1 << 53) + 1, 0, 1, True,
                     False, 1 << 63, (1 << 64) - 1, -(1 << 64),
                     1 << 1100]),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, _nan(0x123),
                     _nan(1), float("nan")]))
_locs = st.one_of(st.none(), st.integers(min_value=-(1 << 40),
                                         max_value=1 << 22),
                  st.sampled_from([1 << 60, -(1 << 62)]))


@st.composite
def _record(draw):
    op = draw(st.sampled_from([oc.LOAD, oc.STORE, oc.CBR, oc.BR, oc.CALL,
                               oc.RET, oc.EMIT, oc.FADD, oc.NOP]))
    n = draw(st.integers(min_value=0, max_value=3))
    slocs = tuple(draw(_locs) for _ in range(n))
    svals = tuple(draw(_values) for _ in range(n))
    extra = None
    if op == oc.CALL:
        extra = (draw(st.integers(0, 1000)), draw(st.integers(0, 9)), n)
    elif op == oc.RET:
        extra = (draw(st.integers(0, 1000)), draw(st.integers(0, 1 << 20)),
                 draw(st.integers(0, 1 << 20)))
    elif op == oc.EMIT:
        extra = draw(st.text(max_size=12))
    return (op, draw(_locs), draw(_values), slocs, svals,
            draw(st.integers(0, 5000)), draw(st.integers(0, 40)),
            draw(st.integers(0, 10_000)), extra)


@given(st.lists(_record(), max_size=40))
@settings(max_examples=150, deadline=None)
def test_codec_round_trip_is_type_exact(records):
    golden = _encode(records)
    assert len(golden) == len(records)
    want = [_exact(rec) for rec in records]
    assert [_exact(rec) for rec in golden] == want
    assert [_exact(golden[t]) for t in range(len(records))] == want
    for field in range(9):
        assert [_exact(v) for v in golden.column(field, 0, len(records))] \
            == [_exact(rec[field]) for rec in records]
        for t, rec in enumerate(records):
            assert _exact(golden.field(t, field)) == _exact(rec[field])


@pytest.mark.parametrize("value", ["x", (1, 2), 1j])
def test_codec_rejects_values_a_trace_cannot_hold(value):
    record = (oc.FADD, -1, value, (), (), 1, 0, 0, None)
    with pytest.raises(ValueError):
        _encode([record])


def test_codec_keeps_ints_past_int64():
    """The unsigned images the VM leaves unwrapped (2^63 .. 2^64 - 1)
    and wider ints round-trip through the side list."""
    wide = [1 << 63, (1 << 64) - 1, -(1 << 64), 1 << 200]
    records = [(oc.LSHR, -1, v, (-2, None), (v, 0), 1, 0, t, None)
               for t, v in enumerate(wide)] + \
        [(oc.FADD, -3, 1.5, (), (), 2, 0, 9, None)]
    golden = _encode(records)
    assert [_exact(rec) for rec in golden] == [_exact(r) for r in records]
    assert golden.column(2, 0, len(records)) == wide + [1.5]
    assert golden.field(1, 2) == (1 << 64) - 1
    assert golden.field(3, 4) == (1 << 200, 0)
    assert golden.nbytes <= 80 * len(records) + 8


def _wide_int_program():
    pb = ProgramBuilder("wide")
    pb.scalar("u", I64, 0)
    pb.scalar("q", I64, 0)
    pb.scalar("verified", I64, 0)
    pb.func_source("""
def main() -> None:
    a = 0 - 8
    u = lshr(a, 0)
    m = 0 - 9223372036854775807 - 1
    q = m // (0 - 1)
    if u > 0:
        verified = 1
""")
    return Program(name="wide", module=pb.build(), region_fn="main",
                   region_prefix="w", main_fn="main")


@pytest.mark.parametrize("tier", ["compiled", "interp"])
def test_golden_run_of_unwrapped_ints(tier):
    """``lshr(0 - 8, 0)`` and ``INT64_MIN // -1`` leave ints past int64
    in the trace; the golden run encodes them exactly."""
    program = _wide_int_program()
    golden = GoldenArtifacts(program, exec_tier=tier).fault_free_trace()
    plain = program.run_fault_free(trace=True, exec_tier=tier).records
    table = static_table(program.module)
    assert [_exact(r) for r in golden] == \
        [_exact(decode_record(table, r)) for r in plain]
    dvals = set(golden.column(2, 0, len(golden)))
    assert (-8) & ((1 << 64) - 1) in dvals and 1 << 63 in dvals


def test_codec_chunks_and_slices(monkeypatch):
    """Records spanning several chunks keep their positions and slot
    offsets; slices decode like list slices."""
    monkeypatch.setattr(columnar, "CHUNK", 3)
    records = [(oc.FADD, -t - 1, t * 0.5, (None, -t), (1.0, t), t, 0, t,
                None) for t in range(10)]
    golden = _encode(records)
    assert list(golden) == records
    assert golden[2:7] == records[2:7]
    assert golden[-1] == records[-1]
    assert golden.column(4, 4, 8) == [r[4] for r in records[4:8]]


def test_save_load_round_trips_a_golden_trace(tmp_path):
    program = REGISTRY.build("kmeans")
    with FlipTracker(program) as ft:
        golden = ft.fault_free_trace()
        path = str(tmp_path / "golden.pkl.gz")
        golden.save(path)
        loaded = Trace.load(path, program.module)
        assert isinstance(loaded, GoldenTrace)
        assert loaded.module is program.module
        assert loaded.meta.program == "kmeans"
        assert list(loaded) == list(golden)


# ------------------------------------------------------------ golden runs
@pytest.mark.parametrize("tier", ["compiled", "interp"])
@pytest.mark.parametrize("name", ["kmeans", "cg", "lulesh"])
def test_golden_decodes_to_the_traced_records(name, tier):
    program = REGISTRY.build(name)
    bundle = GoldenArtifacts(program, exec_tier=tier)
    golden = bundle.fault_free_trace()
    plain_run = program.run_fault_free(trace=True, exec_tier=tier)
    plain = plain_run.records
    table = static_table(program.module)
    assert len(golden) == len(plain) == plain_run.dyn_count
    for lo in range(0, len(plain), 4 * CHUNK):
        hi = min(lo + 4 * CHUNK, len(plain))
        assert [_exact(r) for r in golden.iter_range(lo, hi)] == \
            [_exact(decode_record(table, r)) for r in plain[lo:hi]]
        assert [golden.raw(t) for t in range(lo, hi, 97)] == plain[lo:hi:97]
    assert golden.nbytes <= 80 * len(golden)


def test_golden_bundle_holds_no_record_list(monkeypatch):
    """The golden run hands the encoder at most one chunk at a time, and
    the bundle keeps columns, not tuples."""
    seen = []
    extend = GoldenTrace.extend

    def spy(self, records):
        seen.append(len(records))
        extend(self, records)
    monkeypatch.setattr(GoldenTrace, "extend", spy)
    bundle = GoldenArtifacts(REGISTRY.build("cg"))
    golden = bundle.fault_free_trace()
    assert len(seen) > 1 and max(seen) <= CHUNK
    assert sum(seen) == len(golden)

    def lists(obj):
        return [name for name, value in vars(obj).items()
                if isinstance(value, list) and len(value) > CHUNK]
    assert lists(bundle) == [] and lists(golden) == []
    assert isinstance(golden, GoldenTrace) and golden.records is golden


def test_spliced_records_read_as_one_sequence():
    program = REGISTRY.build("kmeans")
    golden = GoldenArtifacts(program).fault_free_trace()
    suffix = [golden.raw(t) for t in range(500, 520)]
    spliced = SplicedRecords(suffix, golden.table, golden, 500)
    assert len(spliced) == 520
    assert list(spliced) == list(golden.iter_range(0, 520))
    assert spliced[499] == golden[499] and spliced[500] == golden[500]
    assert spliced.raw(500) is suffix[0] and spliced.raw(499) == \
        golden.raw(499)
    assert spliced[-1] == golden[519]
    assert spliced[495:505] == golden[495:505]
    faulty = Trace(spliced, program.module)
    assert faulty.field(10, 2) == golden.field(10, 2)
    assert faulty.column(6, 498, 503) == golden.column(6, 498, 503)


def _last_write(records, loc, t):
    """Linear reference for ``last_write`` over decoded records."""
    for rec in reversed(records[:t]):
        if rec[1] == loc:
            return True, rec[2]
    return False, None


def test_record_views_share_one_access_api():
    """A golden trace, a spliced view of it and a cold run's records
    answer every access the same way."""
    program = REGISTRY.build("kmeans")
    golden = GoldenArtifacts(program).fault_free_trace()
    table = golden.table
    raw = [golden.raw(t) for t in range(3000)]
    records = [decode_record(table, rec) for rec in raw]
    assert records == golden[:3000]
    views = [GoldenTrace.from_records(raw, program.module),
             SplicedRecords(raw, table),
             SplicedRecords(raw[1200:], table, golden, 1200)]
    sids = [rec[0] for rec in raw]
    ts = [0, 5, 1199, 1200, 2999]
    locs = sorted({r[1] for r in records if r[1] is not None})[::25]
    for view in views:
        assert len(view) == len(records)
        for lo, hi in ((0, 3000), (1100, 1300), (1200, 1250), (2990, 4000)):
            assert view.window(lo, hi) == records[lo:hi]
            assert view.sids(lo, hi).tolist() == sids[lo:hi]
            for field in range(9):
                assert view.column(field, lo, hi) == \
                    [r[field] for r in records[lo:hi]]
            for field in (0, 5, 6, 7):
                assert view.ints(field, lo, hi).tolist() == \
                    [r[field] for r in records[lo:hi]]
        assert view.dvals_at(np.array(ts)) == [records[t][2] for t in ts]
        for t in (0, 1199, 1200, 2999, -1):
            assert [view.field(t, f) for f in range(9)] == list(records[t])
        for t in ts:
            assert view.raw(t) == raw[t]
        for loc in locs:
            for t in (0, 1000, 1200, 1201, 3000):
                assert view.last_write(loc, t) == \
                    value_at(view, loc, t) == _last_write(records, loc, t)


# ------------------------------------------------------------- oracles
_INDEX_QUERIES = ("last_read_in", "has_read_in", "first_read_at_or_after",
                  "read_count", "next_write_at_or_after", "write_count",
                  "last_def_before")


def _io_image(io):
    return (repr(list(io.inputs.items())), repr(list(io.outputs.items())),
            list(io.internals), list(io.written))


@pytest.mark.parametrize("name", ["kmeans", "cg", "mg", "lulesh"])
def test_column_passes_equal_tuple_oracles(name):
    with FlipTracker(REGISTRY.build(name)) as ft:
        golden = ft.fault_free_trace()
        records = list(golden)
        index, oracle = ft.trace_index(), OracleTraceIndex(records)

        # the index: every location's positions, and every query at the
        # instance boundaries
        assert list(index.reads) == sorted(oracle.reads)
        assert list(index.writes) == sorted(oracle.writes)
        assert all(index.reads[loc] == lst
                   for loc, lst in oracle.reads.items())
        assert all(index.writes[loc] == lst
                   for loc, lst in oracle.writes.items())
        instances = ft.instances()
        bounds = sorted({0, len(records)} | {i.start for i in instances})
        locs = sorted(set(oracle.reads) | set(oracle.writes) | {10 ** 9})
        for a, b in zip(bounds, bounds[1:]):
            for loc in locs[::max(1, len(locs) // 200)]:
                for query in _INDEX_QUERIES:
                    args = {"last_read_in": (loc, a, b),
                            "has_read_in": (loc, a, b),
                            "read_count": (loc,),
                            "write_count": (loc,)}.get(query, (loc, a))
                    assert getattr(index, query)(*args) == \
                        getattr(oracle, query)(*args), (query, args)
            for many, one in (("first_read_at_or_after_many",
                               "first_read_at_or_after"),
                              ("next_write_at_or_after_many",
                               "next_write_at_or_after")):
                assert getattr(index, many)(locs, a).tolist() == \
                    [getattr(oracle, one)(loc, a) for loc in locs]

        # the region split
        model = ft.region_model()
        assert split_instances(golden, model) == \
            oracle_split_instances(records, model)

        # the I/O classes, insertion orders included
        for inst in instances + [ft.whole_program_instance()]:
            assert _io_image(classify_io(golden, index, inst)) == \
                _io_image(oracle_classify_io(records, oracle, inst)), inst


@pytest.mark.parametrize("name", ["kmeans", "cg"])
def test_last_def_before_equals_linear_oracle(name):
    """Every location a CALL writes as a callee parameter (slot 0 is
    also the CALL's destination; the other slots are not) and a sample
    of the rest, just before, at and after each of its writes."""
    with FlipTracker(REGISTRY.build(name)) as ft:
        records = list(ft.fault_free_trace())
        index, oracle = ft.trace_index(), OracleTraceIndex(records)
    params = set()
    for rec in records:
        if rec[0] == oc.CALL:
            uid, _callee, nargs = rec[8]
            params.update(-(uid * SLOT_LIMIT) - 1 - i for i in range(nargs))
    others = sorted(set(oracle.writes) - params)
    locs = sorted(params) + others[::max(1, len(others) // 100)]
    param_only = 0   # probes whose last write is a parameter write
    for loc in locs + [10 ** 9]:
        writes = oracle.writes.get(loc, [])
        for w in writes[::max(1, len(writes) // 20)] + [0, len(records)]:
            for t in (w - 1, w, w + 1):
                want = oracle.last_def_before(loc, t)
                assert index.last_def_before(loc, t) == want, (loc, t)
                param_only += max([-1] + [x for x in writes if x < t]) \
                    != want
    assert param_only


def test_call_rule_in_classify_io():
    """A CALL writes the callee's slot 0 (its destination, value None)
    and then each parameter: slot 0 ends with ``svals[0]``."""
    uid = 3
    base = -(uid * 4096) - 1
    records = [(oc.FADD, -1, 2.5, (None, None), (1.0, 1.5), 1, 0, 0, None),
               (oc.CALL, base, None, (-1, None), (2.5, 7), 2, 0, 1,
                (uid, 1, 2)),
               (oc.FADD, base - 2, 9.5, (base, base - 1), (2.5, 7), 3, 1, 0,
                None),
               (oc.FADD, -2, 1.0, (base - 2, None), (9.5, 1.0), 4, 0, 2,
                None)]
    golden = _encode(records)
    index = TraceIndex(golden)
    from repro.regions.model import CodeRegion, RegionInstance
    inst = RegionInstance(CodeRegion(0, "r", "straight", "f", frozenset(),
                                     0, 0), 0, 3, 0)
    io = classify_io(golden, index, inst)
    assert _io_image(io) == _io_image(oracle_classify_io(
        records, OracleTraceIndex(records), inst))
    assert io.outputs == {base - 2: 9.5}
    assert base in io.written and base in io.internals
    assert index.writes[base] == [1, 1]   # destination, then parameter 0
    assert index.last_def_before(base - 1, 3) == -1
    assert index.last_def_before(base, 3) == 1
