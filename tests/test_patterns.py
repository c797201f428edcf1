"""Pattern detectors: each of the six patterns on targeted programs."""

import pytest

from repro.acl.table import build_acl
from repro.frontend import ProgramBuilder
from repro.ir import opcodes as oc
from repro.ir.types import F64, I64
from repro.patterns.base import PATTERNS, PatternInstance
from repro.patterns.detect import (detect_all, find_accumulator_updates,
                                   region_locator)
from repro.regions.model import detect_regions, split_instances
from repro.trace.columnar import GoldenTrace
from repro.trace.events import R_DLOC, R_OP, Trace
from repro.trace.index import TraceIndex
from repro.vm import FaultPlan, Interpreter


def analyze(src, picker, arrays=(), scalars=(), region_fn=None):
    pb = ProgramBuilder("t")
    for name, vt, shape in arrays:
        pb.array(name, vt, shape)
    for name, vt, init in scalars:
        pb.scalar(name, vt, init)
    pb.func_source(src)
    module = pb.build()
    clean = Interpreter(module, trace=True)
    clean.run()
    ff = GoldenTrace.from_records(clean.records, module)
    plan = picker(ff)
    fi = Interpreter(module, trace=True, fault=plan)
    try:
        fi.run()
    except Exception:
        pass
    faulty = Trace(fi.records, module)
    rec = fi.fault_record
    acl = build_acl(ff, faulty,
                    injected_loc=rec.loc if rec.fired else None,
                    injected_time=rec.dyn_index if rec.fired else None,
                    index=TraceIndex(ff))
    model = detect_regions(module, region_fn or "main", "r")
    instances = split_instances(faulty.records, model)
    patterns = detect_all(ff, faulty, acl, instances)
    return patterns, acl, fi


def store_picker(value=None, which=0, bit=0):
    def picker(ff):
        stores = [t for t, r in enumerate(ff.records)
                  if r[R_OP] == oc.STORE and (value is None
                                              or r[2] == value)]
        return FaultPlan(trigger=stores[which], mode="result", bit=bit)
    return picker


class TestPatternInstance:
    def test_validates_name(self):
        with pytest.raises(ValueError):
            PatternInstance("NOPE", 0, 0, 0, 0)

    def test_source_location(self):
        p = PatternInstance("DO", 5, 42, 1, 7)
        assert "42" in p.source_location()

    def test_canonical_order(self):
        assert PATTERNS == ("DCL", "RA", "CS", "SHIFT", "TRUNC", "DO")


class TestDataOverwriting:
    def test_detected(self):
        src = """
def main() -> float:
    a[0] = 1.0
    a[0] = 2.0
    return a[0]
"""
        patterns, _, _ = analyze(src, store_picker(value=1.0, bit=63),
                                 arrays=[("a", F64, (1,))])
        assert any(p.pattern == "DO" for p in patterns)


class TestShifting:
    def test_detected_when_bit_dropped(self):
        src = """
def main() -> int:
    k[0] = 96
    s = 0
    for i in range(4):
        s = s + (k[0] >> 4)
    return s
"""
        patterns, _, interp = analyze(src, store_picker(value=96, bit=1),
                                      arrays=[("k", I64, (1,))])
        assert interp.result == 4 * (96 >> 4)
        assert any(p.pattern == "SHIFT" for p in patterns)

    def test_not_detected_when_bit_survives(self):
        src = """
def main() -> int:
    k[0] = 96
    return k[0] >> 4
"""
        patterns, _, interp = analyze(src, store_picker(value=96, bit=6),
                                      arrays=[("k", I64, (1,))])
        assert interp.result != 96 >> 4
        assert not any(p.pattern == "SHIFT" for p in patterns)


class TestConditional:
    def test_detected(self):
        src = """
def main() -> int:
    a[0] = 50.0
    if a[0] > 1.0:
        return 1
    return 0
"""
        patterns, _, interp = analyze(src, store_picker(value=50.0, bit=3),
                                      arrays=[("a", F64, (1,))])
        assert interp.result == 1
        assert any(p.pattern == "CS" for p in patterns)


class TestTruncation:
    def test_fptosi_masking(self):
        src = """
def main() -> int:
    a[0] = 100.5
    return int(a[0])
"""
        # low mantissa bit: 100.5 + tiny still truncates to 100
        patterns, _, interp = analyze(src, store_picker(value=100.5, bit=0),
                                      arrays=[("a", F64, (1,))])
        assert interp.result == 100
        assert any(p.pattern == "TRUNC" for p in patterns)

    def test_emit_precision_masking(self):
        src = """
def main() -> None:
    a[0] = 2.5
    emit("%8.3e", a[0])
"""
        patterns, _, interp = analyze(src, store_picker(value=2.5, bit=0),
                                      arrays=[("a", F64, (1,))])
        assert interp.output == ["2.500e+00"]
        assert any(p.pattern == "TRUNC" for p in patterns)


class TestDCL:
    def test_detected_for_consumed_then_freed(self):
        src = """
def helper() -> float:
    hxx = alloca_f64(4)
    s = 0.0
    for i in range(4):
        hxx[i] = g[i] * 2.0
    for i in range(4):
        s = s + hxx[i]
    return s

def main() -> float:
    for i in range(4):
        g[i] = float(i + 1)
    out = helper()
    g[0] = out
    return out
"""
        def picker(ff):
            stores = [t for t, r in enumerate(ff.records)
                      if r[R_OP] == oc.STORE and r[2] == 4.0]
            return FaultPlan(trigger=stores[0], mode="result", bit=51)

        patterns, acl, _ = analyze(src, picker, arrays=[("g", F64, (4,))],
                                   region_fn="helper")
        dcl = [p for p in patterns if p.pattern == "DCL"]
        assert dcl
        assert any(p.details.get("cause") == "free" for p in dcl)


class TestRepeatedAdditions:
    def test_accumulator_found(self):
        src = """
def main() -> float:
    u[0] = 10.0
    for i in range(20):
        u[0] = u[0] + c[i % 4]
    return u[0]
"""
        pb = ProgramBuilder("t")
        pb.array("u", F64, (1,))
        pb.array("c", F64, (4,), init=[1.0, 2.0, 3.0, 4.0])
        pb.func_source(src)
        module = pb.build()
        interp = Interpreter(module, trace=True)
        interp.run()
        trace = Trace(interp.records, module)
        updates = find_accumulator_updates(trace)
        base = module.arrays["u"].base
        assert base in updates
        assert len(updates[base]) == 20

    def test_ra_pattern_detected_with_shrinking_magnitude(self):
        # u grows while the absolute error stays fixed -> relative error
        # (the paper's error magnitude) shrinks with every addition
        src = """
def main() -> float:
    u[0] = 1.0
    for i in range(30):
        u[0] = u[0] + 5.0
    return u[0]
"""
        patterns, _, _ = analyze(src, store_picker(value=1.0, bit=45),
                                 arrays=[("u", F64, (1,))])
        assert any(p.pattern == "RA" for p in patterns)

    def test_no_ra_for_nonaccumulator(self):
        src = """
def main() -> float:
    u[0] = 1.0
    for i in range(10):
        u[0] = float(i) * 2.0
    return u[0]
"""
        patterns, _, _ = analyze(src, store_picker(value=1.0, bit=45),
                                 arrays=[("u", F64, (1,))])
        assert not any(p.pattern == "RA" for p in patterns)


class TestRegionLocator:
    def test_maps_times_to_regions(self):
        pb = ProgramBuilder("t")
        pb.array("a", F64, (4,))
        pb.func_source("""
def work() -> None:
    for i in range(4):
        a[i] = a[i] + 1.0

def main() -> float:
    work()
    return a[0]
""")
        module = pb.build()
        interp = Interpreter(module, trace=True)
        interp.run()
        model = detect_regions(module, "work", "w")
        instances = split_instances(interp.records, model)
        locate = region_locator(instances)
        inst = next(i for i in instances if i.region.kind == "loop")
        assert locate(inst.start) == inst.region.name
        assert locate(inst.end - 1) == inst.region.name
