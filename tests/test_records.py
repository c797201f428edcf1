"""Trace records: one flat shape on both traced tiers.

Both traced tiers append one flat tuple per executed instruction, keyed
by a static-instruction id (:mod:`repro.trace.events`):

* every registered app and the NOP kernel emit equal flat streams on
  the compiled and the interpreted tier, cold and warm-started from a
  ladder rung, and a warm run's records are the cold run's tail;
* every entry of a module's static table matches the instruction at
  ``fn.code[pc]`` and its id is the function's base plus the pc;
* the decoded 9-tuples and the sealed golden columns hash to the values
  the nested 9-tuple records and their encoder produced (computed from
  that emitter, CALL/RET/EMIT payloads included);
* a faulty trace saves as decoded 9-tuples and loads back as the same
  flat records.
"""

import hashlib

import pytest
from helpers import nop_program

from repro.apps import ALL_APPS, REGISTRY
from repro.core.fliptracker import GoldenArtifacts
from repro.ir import opcodes as oc
from repro.trace.columnar import SplicedRecords
from repro.trace.events import Trace, decode_record, static_table
from repro.vm.errors import VMError
from repro.vm.fault import FaultPlan
from repro.warmstart import warm_start_interp

TIERS = ("compiled", "interp")
PAYLOAD_OPS = (oc.CALL, oc.RET, oc.EMIT)

#: sha256 prefixes of the golden columns and decoded record streams,
#: computed from the nested 9-tuple emitter and encoder
GOLDEN_COLUMNS = {"kmeans": "e32f61a1bbecc244", "cg": "12196af7884f20d4",
                  "lulesh": "87245bcd7ae3d586"}
GOLDEN_STREAMS = {"kmeans": "7eb41127ec504399", "cg": "de7e8e9a2d5651f3"}
#: kmeans, a result-mode flip of bit 52 at the trigger: (records, hash)
FAULTY_STREAMS = {1000: (87246, "3eb3eedd07a7dede"),
                  40000: (40002, "6a11d3573044dc90")}
_ARRAYS = ("op", "fn", "pc", "line", "dloc", "dtag", "dbits", "soff",
           "sloc", "stag", "sbits")


def _column_hash(golden) -> str:
    h = hashlib.sha256()
    for name in _ARRAYS:
        a = getattr(golden, name)
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    h.update(repr(sorted(golden.extra.items())).encode())
    h.update(repr(golden.bigints).encode())
    return h.hexdigest()[:16]


def _stream_hash(records, module) -> str:
    table = static_table(module)
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(decode_record(table, rec)).encode())
    return h.hexdigest()[:16]


def _run(program, tier, plan=None, ladder=None, golden=None):
    """A traced run, warm-started from ``ladder`` when given."""
    interp = program.fresh_interpreter(trace=True, fault=plan,
                                       exec_tier=tier)
    try:
        if ladder is not None:
            assert warm_start_interp(interp, ladder, plan, golden)
            interp.resume_run(program.entry)
        else:
            interp.run(program.entry)
    except (VMError, TypeError, ValueError, OverflowError):
        pass
    return interp


def _image(interp) -> tuple:
    rec = interp.fault_record
    return (interp.record_base, interp.dyn_count, repr(interp.records),
            interp.output, rec.fired, rec.dyn_index, repr(rec.new_value))


def _assert_tiers_agree(program):
    cold = [_run(program, tier) for tier in TIERS]
    assert cold[0].records == cold[1].records
    assert len(cold[0].records) == cold[0].dyn_count
    bundle = GoldenArtifacts(program)
    golden, ladder = bundle.fault_free_trace(), bundle.warm_ladder()
    assert ladder.rungs
    trigger = ladder.rungs[-1].dyn + 7
    plan = FaultPlan(trigger=trigger, mode="result", bit=1)
    warm = [_run(program, tier, plan, ladder, golden) for tier in TIERS]
    assert _image(warm[0]) == _image(warm[1])
    base = warm[0].record_base
    assert 0 < base <= trigger
    full = _run(program, "interp", plan)
    assert full.records[base:] == warm[0].records
    assert full.fault_record.dyn_index == warm[0].fault_record.dyn_index


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_tiers_emit_equal_flat_streams(name):
    _assert_tiers_agree(REGISTRY.build(name))


def test_tiers_emit_equal_flat_streams_with_nops(monkeypatch):
    program = nop_program(monkeypatch)
    ops = static_table(program.module).ops
    records = _run(program, "compiled").records
    assert any(ops[rec[0]] == oc.NOP for rec in records)
    _assert_tiers_agree(program)


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_static_table_matches_code(name):
    module = REGISTRY.build(name).module
    table = static_table(module)
    assert static_table(module) is table
    fns = sorted(module.functions.values(), key=lambda fn: fn.index)
    assert len(table.ops) == sum(len(fn.code) for fn in fns)
    for sid in range(len(table.ops)):
        fn = fns[table.fns[sid]]
        pc = table.pcs[sid]
        op, _dest, srcs, _aux, line = fn.code[pc]
        assert (table.ops[sid], table.lines[sid]) == (op, line)
        assert table.base[fn.index] + pc == sid
        assert table.nsrcs[sid] == (2 if op == oc.LOAD else len(srcs))
    assert table.op.tolist() == table.ops
    assert table.sids_of(table.fn, table.pc).tolist() == \
        list(range(len(table.ops)))


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_decoded_records_equal_the_nested_tuples(name):
    program = REGISTRY.build(name)
    records = program.run_fault_free(trace=True).records
    assert _stream_hash(records, program.module) == GOLDEN_STREAMS[name]
    # only CALL, RET and EMIT records carry a payload, and it is last
    table = static_table(program.module)
    for rec in records:
        sid = rec[0]
        has_payload = len(rec) > 3 + 2 * table.nsrcs[sid]
        assert has_payload == (table.ops[sid] in PAYLOAD_OPS)


@pytest.mark.parametrize("trigger", sorted(FAULTY_STREAMS))
def test_decoded_faulty_records_equal_the_nested_tuples(trigger):
    program = REGISTRY.build("kmeans")
    plan = FaultPlan(trigger=trigger, mode="result", bit=52)
    for tier in TIERS:
        records = _run(program, tier, plan).records
        assert (len(records), _stream_hash(records, program.module)) == \
            FAULTY_STREAMS[trigger]


@pytest.mark.parametrize("name", sorted(GOLDEN_COLUMNS))
def test_golden_columns_equal_the_nested_tuple_encoding(name):
    golden = GoldenArtifacts(REGISTRY.build(name)).fault_free_trace()
    assert _column_hash(golden) == GOLDEN_COLUMNS[name]


def test_save_load_round_trips_a_faulty_trace(tmp_path):
    program = REGISTRY.build("kmeans")
    bundle = GoldenArtifacts(program)
    golden, ladder = bundle.fault_free_trace(), bundle.warm_ladder()
    plan = FaultPlan(trigger=ladder.rungs[1].dyn + 3, mode="result", bit=52)
    interp = _run(program, "compiled", plan, ladder, golden)
    warm = Trace(SplicedRecords(interp.records, golden.table, golden,
                                interp.record_base), program.module)
    cold = Trace(_run(program, "compiled", plan).records, program.module)
    assert list(warm) == list(cold)
    path = str(tmp_path / "faulty.pkl.gz")
    warm.save(path)
    loaded = Trace.load(path, program.module)
    assert loaded.records.suffix == cold.records.suffix
    assert list(loaded) == list(cold)
