"""Property-based ACL invariants over randomized injections.

For arbitrary (trigger, bit) single-bit flips into a fixed small
program, the ACL result must satisfy its structural contract:

* the count curve equals the interval cover at every instruction;
* counts are non-negative and start at zero before the injection;
* every death happens at or after its birth;
* per-location alive intervals never overlap;
* every birth is at or after the injection time (nothing is corrupted
  before the fault fires);
* starting the scan at the injection record (the trace end when the
  flip never fired) changes no field of the result;
* the indexed ``corrupted_at`` agrees with a linear scan over every
  interval, on real ACL results and on arbitrary interval lists.

The windowed scans of a traced analysis each match a full-scan oracle:

* the accumulator updates the ACL pass collects equal
  ``find_accumulator_updates`` over the whole faulty trace restricted
  to ``[injection, aligned)`` and to each location's first birth, and
  give the same Repeated Additions instances as every update in that
  window;
* the region split seeded with the golden instances up to the
  divergence equals the full ``split_instances``;
* each death's ``read`` flag, and the end-of-trace ``dead``/``end``
  deaths, equal the faulty trace's ``TraceIndex`` read queries;
* the pass over a columnar golden trace, which visits only the events
  of the aligned window and stops once nothing is left corrupted past
  it, equals the full tuple scan (``oracle_build_acl``) field for
  field, hybrid and taint-only; pinned programs reach the event rule's
  edge cases (a freed stack cell read again, a redirected write, a
  ``loc``-mode flip, ``-0.0``, a moved stack pointer, dense and sparse
  windows).
"""

from dataclasses import replace

import numpy as np
import pytest
from helpers import oracle_build_acl
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acl.table import ACLResult, build_acl
from repro.frontend import ProgramBuilder
from repro.ir import opcodes as oc
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.instructions import reg
from repro.ir.module import Module
from repro.ir.types import F64, I64
from repro.patterns.detect import (detect_repeated_additions,
                                   find_accumulator_updates)
from repro.regions.model import detect_regions, split_instances
from repro.trace.columnar import GoldenTrace
from repro.trace.events import R_DLOC, R_DVAL, R_OP, R_SLOCS, Trace
from repro.trace.index import TraceIndex
from repro.vm import FaultPlan, Interpreter

SRC = """
def main() -> float:
    t = 0.0
    for i in range(5):
        a[i] = float(i) * 1.5
    for i in range(5):
        if a[i] > 2.0:
            t = t + a[i]
        b[i] = t
    out = t
    return t
"""


def _module():
    pb = ProgramBuilder("t")
    pb.array("a", F64, (5,))
    pb.array("b", F64, (5,))
    pb.scalar("out", F64, 0.0)
    pb.func_source(SRC)
    return pb.build()


_MODULE = _module()
_CLEAN = Interpreter(_MODULE, trace=True)
_CLEAN.run()
_FF = Trace(_CLEAN.records, _MODULE)
_N = len(_FF)
_DEF_SITES = [t for t, r in enumerate(_FF.records) if r[R_DLOC] is not None]

# u[1] is a real accumulator; u[0] = x + 1.0 reaches the LOAD of u[0]
# only through bump's second parameter, which its CALL record writes
# without naming it as the record's destination
CALL_SRC = """
def bump(y: float, x: float) -> None:
    u[0] = x + 1.0

def main() -> float:
    u[0] = 2.0
    u[1] = 0.0
    for i in range(3):
        bump(0.5, u[0])
        u[1] = u[1] + u[0]
    return u[1]
"""


def _call_module():
    pb = ProgramBuilder("c")
    pb.array("u", F64, (2,))
    pb.func_source(CALL_SRC)
    return pb.build()


def _self_update_module():
    """``x = x + float(k)`` in one record, then a load from address k.

    A flip of k corrupts x at the FADD, which also reads x: a birth
    whose own record reads the location.  A high-bit flip also makes
    the load fault, so the FADD is the last record of the faulty trace.
    """
    module = Module("s")
    module.add_scalar("g", F64, 1.0)
    b = IRBuilder(module.add_function(Function("main", [])))
    x = b.mov(3.0, rtype=F64)
    k = b.mov(0, rtype=I64)
    y = b.unop(oc.SITOFP, reg(k), rtype=F64)
    b.binop(oc.FADD, reg(x), reg(y), dest=x, rtype=F64)
    b.load(reg(k))
    b.ret()
    module.finalize("main")
    return module


def _golden(module):
    clean = Interpreter(module, trace=True)
    clean.run()
    return module, Trace(clean.records, module)


# In the value-aligned window the ACL pass visits only event records
# (see ``build_acl``); these programs put the rule's edge cases in reach.
FREE_SRC = """
def fill(x: float) -> float:
    tmp = alloca_f64(2)
    tmp[0] = x * 2.0
    return tmp[1]

def peek() -> float:
    tmp = alloca_f64(2)
    return tmp[0]

def main() -> float:
    s = fill(g)
    s = s + peek()
    return s
"""

REDIRECT_SRC = """
def main() -> float:
    k = n
    a[k] = 5.0
    t = a[0] + a[1] + a[2]
    return t
"""

DENSE_SRC = """
def main() -> float:
    x = g
    for i in range(8):
        x = x * 1.5
        x = x + 0.25
        x = x * 0.5
        x = x - 0.125
        x = x * 1.25
        x = x + 0.5
    return x
"""

SPARSE_SRC = """
def main() -> float:
    y = g * 2.0
    s = 0.0
    for i in range(40):
        s = s + float(i)
    return s + y
"""

ZERO_SRC = """
def main() -> float:
    y = g * 0.0
    z = 1.0 / y
    return z
"""

ALLOCA_SRC = """
def main() -> float:
    k = n
    tmp = alloca_f64(k)
    buf = alloca_f64(2)
    buf[0] = 1.5
    return buf[0]
"""


def _event_program(src):
    pb = ProgramBuilder("e")
    pb.scalar("g", F64, 3.0)
    pb.scalar("n", I64, 1)
    pb.array("a", F64, (4,))
    pb.func_source(src)
    return _golden(pb.build())


_PROGRAMS = {"loops": (_MODULE, _FF),
             "calls": _golden(_call_module()),
             "self": _golden(_self_update_module()),
             "free": _event_program(FREE_SRC),
             "redirect": _event_program(REDIRECT_SRC),
             "dense": _event_program(DENSE_SRC),
             "sparse": _event_program(SPARSE_SRC),
             "zero": _event_program(ZERO_SRC),
             "alloca": _event_program(ALLOCA_SRC)}
# build_acl reads the golden trace in columnar form, with its index
_COLUMNAR = {name: GoldenTrace.from_records(ff.records, module)
             for name, (module, ff) in _PROGRAMS.items()}
_INDEX = {name: TraceIndex(g) for name, g in _COLUMNAR.items()}
_MODEL = detect_regions(_MODULE, "main", "r")
_GOLDEN_INSTANCES = split_instances(_FF.records, _MODEL)


def _faulty_run(trigger: int, bit: int, mode: str, program: str = "loops"):
    module, ff = _PROGRAMS[program]
    loc = ff.records[trigger][R_DLOC] if mode == "loc" else None
    plan = FaultPlan(trigger=trigger, mode=mode, bit=bit, loc=loc)
    interp = Interpreter(module, trace=True, fault=plan,
                         max_instr=10 * len(ff) + 1000)
    try:
        interp.run()
    except Exception:
        pass
    return Trace(interp.records, module), interp.fault_record


def _acl(program: str, faulty, **kwargs):
    """:func:`build_acl` against ``program``'s golden run."""
    return build_acl(_COLUMNAR[program], faulty, index=_INDEX[program],
                     **kwargs)


def _windowed_acl(faulty, rec, program: str = "loops",
                  taint_only: bool = False):
    """The ACL as a traced analysis builds it: from the injection."""
    return _acl(program, faulty,
                injected_loc=rec.loc if rec.fired else None,
                injected_time=rec.dyn_index if rec.fired else None,
                taint_only=taint_only,
                start=rec.dyn_index if rec.fired else len(faulty))


def _acl_for(trigger: int, bit: int):
    faulty, rec = _faulty_run(trigger, bit, "result")
    return _acl("loops", faulty,
                injected_loc=rec.loc if rec.fired else None,
                injected_time=rec.dyn_index if rec.fired else None), rec


@given(st.sampled_from(_DEF_SITES), st.integers(min_value=0, max_value=63))
@settings(max_examples=80, deadline=None)
def test_counts_equal_interval_cover(trigger, bit):
    acl, _ = _acl_for(trigger, bit)
    n = len(acl.counts)
    cover = np.zeros(n + 1, dtype=np.int64)
    for _loc, b, d in acl.intervals:
        b = min(b, n)
        d = min(d, n)
        if d > b:
            cover[b] += 1
            cover[d] -= 1
    assert np.array_equal(acl.counts, np.cumsum(cover[:-1]))


@given(st.sampled_from(_DEF_SITES), st.integers(min_value=0, max_value=63))
@settings(max_examples=80, deadline=None)
def test_deaths_after_births_and_counts_nonnegative(trigger, bit):
    acl, rec = _acl_for(trigger, bit)
    assert (acl.counts >= 0).all()
    for d in acl.deaths:
        assert d.time >= d.birth
    if rec.fired:
        t0 = rec.dyn_index
        assert all(t >= t0 for _loc, t in acl.births)
        assert (acl.counts[:t0] == 0).all()


@given(st.sampled_from(_DEF_SITES), st.integers(min_value=0, max_value=63))
@settings(max_examples=60, deadline=None)
def test_per_location_intervals_disjoint(trigger, bit):
    acl, _ = _acl_for(trigger, bit)
    by_loc = {}
    for loc, b, d in acl.intervals:
        by_loc.setdefault(loc, []).append((b, d))
    for loc, spans in by_loc.items():
        spans.sort()
        for (b1, d1), (b2, d2) in zip(spans, spans[1:]):
            assert d1 <= b2, f"overlapping alive spans at loc {loc}"


def _acl_fields(acl) -> str:
    return repr((acl.counts.tolist(), acl.births,
                 [(d.loc, d.time, d.cause, d.op, d.line, d.fn, d.pc,
                   d.birth) for d in acl.deaths],
                 acl.divergence, sorted(acl.corrupted_at_end),
                 acl.injected_loc, acl.intervals,
                 [(m.time, m.op, m.line, m.fn, m.pc) for m in acl.maskings],
                 [d.read for d in acl.deaths]))


@given(st.sampled_from(_DEF_SITES), st.integers(min_value=0, max_value=63),
       st.sampled_from(["result", "loc"]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_scan_from_injection_equals_full_scan(trigger, bit, mode,
                                              taint_only):
    faulty, rec = _faulty_run(trigger, bit, mode)
    kwargs = dict(injected_loc=rec.loc if rec.fired else None,
                  injected_time=rec.dyn_index if rec.fired else None,
                  taint_only=taint_only)
    start = rec.dyn_index if rec.fired else len(faulty.records)
    full = _acl("loops", faulty, **kwargs)
    assert _acl_fields(_acl("loops", faulty, start=start, **kwargs)) \
        == _acl_fields(full)
    assert _FF.first_divergence(faulty, start) == full.divergence


def _corrupted_at_oracle(intervals, loc, t) -> bool:
    return any(iloc == loc and b <= t < d for iloc, b, d in intervals)


@given(st.sampled_from(_DEF_SITES), st.integers(min_value=0, max_value=63))
@settings(max_examples=60, deadline=None)
def test_indexed_corrupted_at_matches_scan(trigger, bit):
    acl, _ = _acl_for(trigger, bit)
    locs = {loc for loc, _b, _d in acl.intervals} | {0, -1}
    for loc in locs:
        for t in range(-1, len(acl.counts) + 2):
            assert acl.corrupted_at(loc, t) == \
                _corrupted_at_oracle(acl.intervals, loc, t)


_spans = st.tuples(st.integers(min_value=0, max_value=3),
                   st.integers(min_value=0, max_value=30),
                   st.integers(min_value=0, max_value=12))


@given(st.lists(_spans, max_size=12), st.integers(min_value=0, max_value=3),
       st.integers(min_value=-1, max_value=45))
@settings(max_examples=200, deadline=None)
def test_indexed_corrupted_at_matches_scan_any_intervals(spans, loc, t):
    """Overlapping, empty and unordered intervals included."""
    intervals = [(iloc, b, b + length) for iloc, b, length in spans]
    acl = ACLResult(counts=np.zeros(0, dtype=np.int32), births=[],
                    deaths=[], divergence=None, corrupted_at_end=set(),
                    intervals=intervals)
    assert acl.corrupted_at(loc, t) == \
        _corrupted_at_oracle(intervals, loc, t)


# ------------------------------------------------ windowed scans vs oracles
_SITES = st.one_of(*(
    st.tuples(st.just(name),
              st.sampled_from([t for t, r in enumerate(ff.records)
                               if r[R_DLOC] is not None]))
    for name, (_m, ff) in _PROGRAMS.items()))
_MODES = st.sampled_from(["result", "loc"])
_BITS = st.integers(min_value=0, max_value=63)


def _ra_image(ff, faulty, acl):
    return [(p.time, p.line, p.fn, p.pc, p.loc, repr(p.details))
            for p in detect_repeated_additions(ff, faulty, acl,
                                               lambda _t: None)]


def _assert_updates_equal_full_scan(ff, faulty, acl):
    """The ACL pass's accumulator updates are the full scan's updates in
    ``[start, aligned)`` at or after each location's first birth, and
    the RA instances they give equal those from every full-scan update
    in that window."""
    lo, hi = acl.start, acl.aligned
    assert hi == (acl.divergence if acl.divergence is not None
                  else min(len(ff), len(faulty)))
    first_birth = {}
    for loc, t in acl.births:
        first_birth.setdefault(loc, t)
    window, born = {}, {}
    for loc, times in find_accumulator_updates(faulty).items():
        times = [t for t in times if lo <= t < hi]
        if times:
            window[loc] = times
        times = [t for t in times if t >= first_birth.get(loc, hi)]
        if times:
            born[loc] = times
    assert acl.updates == born
    assert _ra_image(ff, faulty, acl) == \
        _ra_image(ff, faulty, replace(acl, updates=window))


@given(_SITES, _BITS, _MODES, st.booleans())
@example(("calls", 8), 3, "result", False)    # window opens inside bump
@example(("calls", 12), 3, "result", False)   # chain def before window
@settings(max_examples=120, deadline=None)
def test_windowed_accumulator_updates_equal_full_scan(site, bit, mode,
                                                      taint_only):
    program, trigger = site
    ff = _PROGRAMS[program][1]
    faulty, rec = _faulty_run(trigger, bit, mode, program)
    _assert_updates_equal_full_scan(
        ff, faulty, _windowed_acl(faulty, rec, program, taint_only))


def _split_image(instances):
    return [(i.region.name, i.start, i.end, i.index) for i in instances]


@given(st.sampled_from(_DEF_SITES), _BITS, _MODES, st.booleans())
@example(1, 63, "result", False)    # crashes after 8 records
@example(10, 0, "result", False)    # diverges where golden r_c starts
@settings(max_examples=120, deadline=None)
def test_divergence_seeded_split_equals_full_split(trigger, bit, mode,
                                                   taint_only):
    faulty, rec = _faulty_run(trigger, bit, mode)
    acl = _windowed_acl(faulty, rec, taint_only=taint_only)
    seeded = split_instances(faulty.records, _MODEL, _GOLDEN_INSTANCES,
                             acl.aligned)
    assert _split_image(seeded) == \
        _split_image(split_instances(faulty.records, _MODEL))


@given(_SITES, _BITS, _MODES, st.booleans())
@example(("self", 1), 40, "result", False)  # x read only at its birth
@example(("self", 3), 3, "loc", False)      # injected birth, read there
@settings(max_examples=120, deadline=None)
def test_read_flags_equal_index_queries(site, bit, mode, taint_only):
    program, trigger = site
    faulty, rec = _faulty_run(trigger, bit, mode, program)
    acl = _windowed_acl(faulty, rec, program, taint_only)
    index = TraceIndex(GoldenTrace.from_records(faulty.records))
    n = len(faulty)
    for d in acl.deaths:
        assert d.read == index.has_read_in(d.loc, d.birth, d.time + 1)
    # the close-out deaths come last, one per location alive at the end
    tail = acl.deaths[len(acl.deaths) - len(acl.corrupted_at_end):]
    assert {d.loc for d in tail} == acl.corrupted_at_end
    for d in tail:
        last = index.last_read_in(d.loc, d.birth + 1, n)
        if last is None:
            want = ("dead", d.birth + 1)
        elif last >= n - 1:
            want = ("end", n)
        else:
            want = ("dead", last + 1)
        assert (d.cause, d.time) == want


def test_pinned_examples_reach_the_edge_cases():
    """The ``@example`` cases above exercise what they claim to."""
    # the window opens between bump's CALL and the STORE whose chain
    # runs through the second parameter, which the CALL record writes
    # without naming it as its destination
    call_ff = _PROGRAMS["calls"][1]
    call, fadd = call_ff.records[7], call_ff.records[8]
    assert call[R_OP] == oc.CALL and fadd[R_SLOCS][0] == call[R_DLOC] - 1
    # crashed, shorter trace
    faulty, _rec = _faulty_run(1, 63, "result")
    assert len(faulty) < _N
    # divergence exactly at the start of a golden instance
    faulty, _rec = _faulty_run(10, 0, "result")
    assert _FF.first_divergence(faulty) in \
        {i.start for i in _GOLDEN_INSTANCES}
    # a location born at the last record, which reads it, and never
    # read again: dead just past the trace end, read flag set
    faulty, frec = _faulty_run(1, 40, "result", "self")
    acl = _windowed_acl(faulty, frec, "self")
    last = faulty.records[-1]
    assert len(faulty) == 4 and last[R_DLOC] in last[R_SLOCS]
    assert [(d.loc, d.birth, d.time, d.cause, d.read) for d in acl.deaths
            if d.loc == last[R_DLOC]] == [(last[R_DLOC], 3, 4, "dead", True)]
    # an injected birth, read at its record
    faulty, frec = _faulty_run(3, 3, "loc", "self")
    acl = _windowed_acl(faulty, frec, "self")
    assert any(d.loc == frec.loc and d.birth == frec.dyn_index == 3
               and d.read for d in acl.deaths)



@given(_SITES, _BITS, _MODES, st.booleans())
@example(("loops", 10), 0, "result", False)   # diverges, then masked
@example(("self", 1), 40, "result", True)     # crash right after birth
@settings(max_examples=150, deadline=None)
def test_early_exit_equals_full_scan(site, bit, mode, taint_only):
    """Every ACL field matches the full scan, from record 0 and from the
    injection, whether or not the scan stopped early."""
    program, trigger = site
    ff = _PROGRAMS[program][1]
    faulty, rec = _faulty_run(trigger, bit, mode, program)
    kwargs = dict(injected_loc=rec.loc if rec.fired else None,
                  injected_time=rec.dyn_index if rec.fired else None,
                  taint_only=taint_only)
    full = oracle_build_acl(ff, faulty, **kwargs)
    want = _acl_fields(full), full.aligned
    for start in (0, rec.dyn_index if rec.fired else len(faulty)):
        got = _acl(program, faulty, start=start, **kwargs)
        assert (_acl_fields(got), got.aligned) == want


# ------------------------------------------------------- the event rule
def _event_fraction(ff, acl) -> float:
    """Share of the aligned window whose golden record reads or writes
    a location born in it (a lower bound on the event count)."""
    born = {loc for loc, _t in acl.births}
    window = range(acl.start, acl.aligned)
    hits = sum(1 for t in window if ff.records[t][R_DLOC] in born
               or born.intersection(ff.records[t][R_SLOCS]))
    return hits / max(1, len(window))


def _event_case(program, trigger, bit, mode, taint_only):
    """The event walk over a columnar golden equals the full tuple scan
    field for field, and its accumulator updates the full scan's."""
    ff = _PROGRAMS[program][1]
    faulty, rec = _faulty_run(trigger, bit, mode, program)
    assert rec.fired
    kwargs = dict(injected_loc=rec.loc, injected_time=rec.dyn_index,
                  taint_only=taint_only)
    want = oracle_build_acl(ff, faulty, **kwargs)
    got = _acl(program, faulty, start=rec.dyn_index, **kwargs)
    assert (_acl_fields(got), got.aligned) == \
        (_acl_fields(want), want.aligned)
    _assert_updates_equal_full_scan(ff, faulty, got)
    if mode == "result":
        # told nothing of the flip, the pass visits every aligned record
        blind = _acl(program, faulty, taint_only=taint_only)
        assert _acl_fields(blind) == _acl_fields(
            oracle_build_acl(ff, faulty, taint_only=taint_only))
    return ff, faulty, got


@pytest.mark.parametrize("taint_only", [False, True])
def test_event_rule_freed_cell_read_by_a_later_call(taint_only):
    """fill's stack cell tmp[0] is corrupted, freed at fill's RET, and
    read by peek's LOAD at the same address before anything writes
    it."""
    ff, faulty, acl = _event_case("free", 3, 7, "result", taint_only)
    store, peek_load = faulty.records[4], faulty.records[11]
    cell = store[R_DLOC]
    assert store[R_OP] == oc.STORE and peek_load[R_OP] == oc.LOAD
    assert peek_load[R_SLOCS][0] == cell
    assert (cell, 7, "free") in [(d.loc, d.time, d.cause)
                                 for d in acl.deaths]


@pytest.mark.parametrize("taint_only", [False, True])
def test_event_rule_redirected_write(taint_only):
    """A flipped index sends ``a[k] = 5.0`` to a[0] instead of a[1]:
    both cells are born at the STORE (hybrid)."""
    ff, faulty, acl = _event_case("redirect", 0, 0, "result", taint_only)
    store_f, store_g = faulty.records[3], ff.records[3]
    assert store_f[R_OP] == oc.STORE and store_f[R_DLOC] != store_g[R_DLOC]
    if not taint_only:
        assert {(store_f[R_DLOC], 3), (store_g[R_DLOC], 3)} <= \
            set(acl.births)


@pytest.mark.parametrize("taint_only", [False, True])
@pytest.mark.parametrize("trigger,bit", [(0, 1), (0, 63), (4, 62)])
def test_event_rule_loc_mode_flip(trigger, bit, taint_only):
    """A "loc"-mode flip corrupts the trigger's destination before the
    trigger executes; the trigger record is the first event."""
    _ff, _faulty, acl = _event_case("redirect", trigger, bit, "loc",
                                    taint_only)
    assert acl.births[0][1] == trigger


@pytest.mark.parametrize("taint_only", [False, True])
@pytest.mark.parametrize("bit", [0, 30, 52, 62])
def test_event_rule_dense_window(bit, taint_only):
    """x is read and rewritten by most records of the loop."""
    ff, _faulty, acl = _event_case("dense", 6, bit, "result", taint_only)
    if not taint_only:
        assert _event_fraction(ff, acl) > 0.6


@pytest.mark.parametrize("taint_only", [False, True])
@pytest.mark.parametrize("bit", [0, 30, 52, 62])
def test_event_rule_sparse_window(bit, taint_only):
    """y is written once and read only by the return."""
    ff, _faulty, acl = _event_case("sparse", 1, bit, "result", taint_only)
    if not taint_only:
        assert 0 < _event_fraction(ff, acl) < 0.05


@pytest.mark.parametrize("taint_only", [False, True])
def test_event_rule_signed_zero(taint_only):
    """A sign-bit flip turns y's 0.0 into -0.0, which ``same_value``
    equates with 0.0; the division by y still differs from golden."""
    _ff, faulty, acl = _event_case("zero", 1, 63, "result", taint_only)
    fdiv = faulty.records[3]
    assert fdiv[R_OP] == oc.FDIV and fdiv[R_DVAL] == float("-inf")
    if not taint_only:
        assert (fdiv[R_DLOC], 3) in acl.births


@pytest.mark.parametrize("taint_only", [False, True])
def test_event_rule_moved_stack_pointer(taint_only):
    """A flipped alloca size moves the stack pointer, so the next
    ALLOCA, whose own size is a constant, returns another address."""
    ff, faulty, acl = _event_case("alloca", 0, 1, "result", taint_only)
    second = faulty.records[3]
    assert second[R_OP] == oc.ALLOCA and second[R_SLOCS] == (None,)
    assert second[R_DVAL] != ff.records[3][R_DVAL]
    if not taint_only:
        assert (second[R_DLOC], 3) in acl.births
