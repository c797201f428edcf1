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
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acl.table import ACLResult, build_acl
from repro.frontend import ProgramBuilder
from repro.ir.types import F64, I64
from repro.trace.events import R_DLOC, Trace
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


def _acl_for(trigger: int, bit: int):
    plan = FaultPlan(trigger=trigger, mode="result", bit=bit)
    interp = Interpreter(_MODULE, trace=True, fault=plan,
                         max_instr=10 * _N + 1000)
    try:
        interp.run()
    except Exception:
        pass
    faulty = Trace(interp.records, _MODULE)
    rec = interp.fault_record
    return build_acl(_FF, faulty,
                     injected_loc=rec.loc if rec.fired else None,
                     injected_time=rec.dyn_index if rec.fired else None), \
        interp


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
    acl, interp = _acl_for(trigger, bit)
    assert (acl.counts >= 0).all()
    for d in acl.deaths:
        assert d.time >= d.birth
    if interp.fault_record.fired:
        t0 = interp.fault_record.dyn_index
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
                 acl.read_index.reads))


@given(st.sampled_from(_DEF_SITES), st.integers(min_value=0, max_value=63),
       st.sampled_from(["result", "loc"]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_scan_from_injection_equals_full_scan(trigger, bit, mode,
                                              taint_only):
    loc = _FF.records[trigger][R_DLOC] if mode == "loc" else None
    plan = FaultPlan(trigger=trigger, mode=mode, bit=bit, loc=loc)
    interp = Interpreter(_MODULE, trace=True, fault=plan,
                         max_instr=10 * _N + 1000)
    try:
        interp.run()
    except Exception:
        pass
    faulty = Trace(interp.records, _MODULE)
    rec = interp.fault_record
    kwargs = dict(injected_loc=rec.loc if rec.fired else None,
                  injected_time=rec.dyn_index if rec.fired else None,
                  taint_only=taint_only)
    start = rec.dyn_index if rec.fired else len(faulty.records)
    full = build_acl(_FF, faulty, **kwargs)
    assert _acl_fields(build_acl(_FF, faulty, start=start, **kwargs)) \
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
