"""The columnar golden trace: codec, residency and the passes over it.

* **Codec round trip.**  Hypothesis-generated records decode to the same
  values *and types*: ints at the int64 limits, ``True`` vs ``1``,
  ``-0.0``, NaN payloads, infinities, ``None``, empty and three-slot
  ``slocs`` with constant (``None``) sources, and the CALL/RET/EMIT
  ``extra`` payloads, and ints past int64 (the VM's unwrapped
  results); values of other types are rejected.
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
from repro.ir.types import I64
from repro.regions.model import split_instances
from repro.regions.variables import classify_io
from repro.trace import columnar
from repro.trace.columnar import (CHUNK, GoldenTrace, SplicedRecords,
                                  records_view)
from repro.trace.events import Trace, value_at
from repro.trace.index import TraceIndex


def _exact(value):
    """A key equal only for the same type and the same bits."""
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    if type(value) is float:
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


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
    golden = GoldenTrace.from_records(records)
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
        GoldenTrace.from_records([record])


def test_codec_keeps_ints_past_int64():
    """The unsigned images the VM leaves unwrapped (2^63 .. 2^64 - 1)
    and wider ints round-trip through the side list."""
    wide = [1 << 63, (1 << 64) - 1, -(1 << 64), 1 << 200]
    records = [(oc.LSHR, -1, v, (-2, None), (v, 0), 1, 0, t, None)
               for t, v in enumerate(wide)] + \
        [(oc.FADD, -3, 1.5, (), (), 2, 0, 9, None)]
    golden = GoldenTrace.from_records(records)
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
    assert [_exact(r) for r in golden] == [_exact(r) for r in plain]
    dvals = set(golden.column(2, 0, len(golden)))
    assert (-8) & ((1 << 64) - 1) in dvals and 1 << 63 in dvals


def test_codec_chunks_and_slices(monkeypatch):
    """Records spanning several chunks keep their positions and slot
    offsets; slices decode like list slices."""
    monkeypatch.setattr(columnar, "CHUNK", 3)
    records = [(oc.FADD, -t - 1, t * 0.5, (None, -t), (1.0, t), t, 0, t,
                None) for t in range(10)]
    golden = GoldenTrace.from_records(records)
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
    assert len(golden) == len(plain) == plain_run.dyn_count
    for lo in range(0, len(plain), 4 * CHUNK):
        hi = min(lo + 4 * CHUNK, len(plain))
        assert [_exact(r) for r in golden.iter_range(lo, hi)] == \
            [_exact(r) for r in plain[lo:hi]]
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
    suffix = list(golden.iter_range(500, 520))
    spliced = SplicedRecords(golden, 500, suffix)
    assert len(spliced) == 520
    assert list(spliced) == list(golden.iter_range(0, 520))
    assert spliced[499] == golden[499] and spliced[500] is suffix[0]
    assert spliced[-1] is suffix[-1]
    assert spliced[495:505] == golden[495:505]
    faulty = Trace(spliced, program.module)
    assert faulty.field(10, 2) == golden.field(10, 2)
    assert faulty.column(6, 498, 503) == golden.column(6, 498, 503)


def test_record_views_share_one_access_api():
    """A golden trace, a spliced view of it and a plain tuple list answer
    every access the same way."""
    program = REGISTRY.build("kmeans")
    golden = GoldenArtifacts(program).fault_free_trace()
    records = list(golden.iter_range(0, 3000))
    views = [GoldenTrace.from_records(records), records_view(records),
             SplicedRecords(golden, 1200, records[1200:])]
    assert records_view(views[0]) is views[0]
    assert records_view(views[2]) is views[2]
    ts = np.array([0, 5, 1199, 1200, 2999], dtype=np.int64)
    locs = sorted({r[1] for r in records if r[1] is not None})[::25]
    for view in views:
        assert len(view) == len(records)
        for lo, hi in ((0, 3000), (1100, 1300), (1200, 1250), (2990, 4000)):
            assert view.window(lo, hi) == records[lo:hi]
            for field in range(9):
                assert view.column(field, lo, hi) == \
                    [r[field] for r in records[lo:hi]]
            for field in (0, 5, 6, 7):
                assert view.ints(field, lo, hi).tolist() == \
                    [r[field] for r in records[lo:hi]]
        for field in (0, 5, 6, 7):
            assert view.ints_at(field, ts).tolist() == \
                [records[t][field] for t in ts.tolist()]
        for t in (0, 1199, 1200, 2999, -1):
            assert [view.field(t, f) for f in range(9)] == list(records[t])
        for loc in locs:
            for t in (0, 1000, 1200, 1201, 3000):
                assert view.last_write(loc, t) == value_at(records, loc, t)


# ------------------------------------------------------------- oracles
_INDEX_QUERIES = ("last_read_in", "has_read_in", "first_read_at_or_after",
                  "read_count", "next_write_at_or_after", "write_count")


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
    golden = GoldenTrace.from_records(records)
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
