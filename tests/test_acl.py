"""ACL (alive corrupted locations) tests, including the Fig. 3 mechanics."""

import numpy as np
import pytest

from repro.acl.table import build_acl, same_value
from repro.frontend import ProgramBuilder
from repro.ir import opcodes as oc
from repro.ir.types import F64, I64
from repro.trace.columnar import GoldenTrace
from repro.trace.events import R_DLOC, R_OP, Trace
from repro.trace.index import TraceIndex
from repro.vm import FaultPlan, Interpreter


def run_pair(src, fault_picker, arrays=(), scalars=()):
    """Run fault-free + faulty traced runs; fault chosen by picker(ff)."""
    def build():
        pb = ProgramBuilder("t")
        for name, vt, shape in arrays:
            pb.array(name, vt, shape)
        for name, vt, init in scalars:
            pb.scalar(name, vt, init)
        pb.func_source(src)
        return pb.build()

    module = build()
    clean = Interpreter(module, trace=True)
    clean.run()
    ff = GoldenTrace.from_records(clean.records, module)
    plan = fault_picker(ff)
    faulty_i = Interpreter(module, trace=True, fault=plan)
    try:
        faulty_i.run()
    except Exception:
        pass
    faulty = Trace(faulty_i.records, module)
    rec = faulty_i.fault_record
    acl = build_acl(ff, faulty,
                    injected_loc=rec.loc if rec.fired else None,
                    injected_time=rec.dyn_index if rec.fired else None,
                    index=TraceIndex(ff))
    return ff, faulty, acl, faulty_i


def pick_store(ff, value=None, which=0, bit=0):
    stores = [t for t, r in enumerate(ff.records)
              if r[R_OP] == oc.STORE and (value is None
                                          or r[2] == value)]
    return FaultPlan(trigger=stores[which], mode="result", bit=bit)


class TestSameValue:
    def test_basics(self):
        assert same_value(1.0, 1.0)
        assert not same_value(1.0, 2.0)
        assert same_value(float("nan"), float("nan"))
        assert same_value(3, 3)
        assert same_value(0.0, -0.0)  # numerically equal


class TestOverwriteDeath:
    SRC = """
def main() -> float:
    a[0] = 1.0
    a[0] = 2.0
    a[0] = 3.0
    return a[0]
"""

    def test_clean_overwrite_kills_corruption(self):
        ff, faulty, acl, _ = run_pair(
            self.SRC, lambda ff: pick_store(ff, value=1.0, bit=63),
            arrays=[("a", F64, (1,))])
        causes = acl.deaths_by_cause()
        assert causes.get("overwrite", 0) >= 1
        # after the overwrite nothing stays corrupted
        assert acl.counts[-1] == 0
        assert acl.divergence is None


class TestDeadDeath:
    SRC = """
def main() -> float:
    a[0] = 1.0
    a[1] = a[0] + 1.0
    return 5.0
"""

    def test_never_used_again_dies(self):
        ff, faulty, acl, _ = run_pair(
            self.SRC, lambda ff: pick_store(ff, value=2.0, bit=60),
            arrays=[("a", F64, (2,))])
        causes = acl.deaths_by_cause()
        assert causes.get("dead", 0) >= 1
        assert acl.counts[-1] == 0


class TestFreeDeath:
    SRC = """
def helper() -> float:
    buf = alloca_f64(4)
    buf[0] = 7.0
    buf[1] = buf[0] * 2.0
    return 1.0

def main() -> float:
    r = helper()
    return r
"""

    def test_stack_corruption_freed_at_return(self):
        def picker(ff):
            stores = [t for t, r in enumerate(ff.records)
                      if r[R_OP] == oc.STORE and r[2] == 14.0]
            return FaultPlan(trigger=stores[0], mode="result", bit=50)

        ff, faulty, acl, _ = run_pair(self.SRC, picker)
        causes = acl.deaths_by_cause()
        assert causes.get("free", 0) >= 1
        assert acl.counts[-1] == 0


class TestMasking:
    def test_shift_masks_low_bits(self):
        src = """
def main() -> int:
    k[0] = 37
    b = k[0] >> 3
    return b
"""
        def picker(ff):
            stores = [t for t, r in enumerate(ff.records)
                      if r[R_OP] == oc.STORE]
            return FaultPlan(trigger=stores[0], mode="result", bit=1)

        ff, faulty, acl, interp = run_pair(src, picker,
                                           arrays=[("k", I64, (1,))])
        assert interp.result == 37 >> 3  # fault fully masked
        ops = {m.op for m in acl.maskings}
        assert oc.ASHR in ops

    def test_shift_does_not_mask_high_bits(self):
        src = """
def main() -> int:
    k[0] = 37
    b = k[0] >> 3
    return b
"""
        def picker(ff):
            stores = [t for t, r in enumerate(ff.records)
                      if r[R_OP] == oc.STORE]
            return FaultPlan(trigger=stores[0], mode="result", bit=5)

        ff, faulty, acl, interp = run_pair(src, picker,
                                           arrays=[("k", I64, (1,))])
        assert interp.result != 37 >> 3
        shift_masks = [m for m in acl.maskings if m.op == oc.ASHR]
        assert not shift_masks

    def test_comparison_masks(self):
        src = """
def main() -> int:
    a[0] = 100.0
    if a[0] > 1.0:
        return 1
    return 0
"""
        def picker(ff):
            stores = [t for t, r in enumerate(ff.records)
                      if r[R_OP] == oc.STORE]
            return FaultPlan(trigger=stores[0], mode="result", bit=2)

        ff, faulty, acl, interp = run_pair(src, picker,
                                           arrays=[("a", F64, (1,))])
        assert interp.result == 1
        assert any(m.op in oc.CMP_OPS or m.op == oc.CBR
                   for m in acl.maskings)

    def test_truncation_masks_through_emit(self):
        src = """
def main() -> float:
    a[0] = 1.0
    emit("%6.2e", a[0])
    return 0.0
"""
        def picker(ff):
            stores = [t for t, r in enumerate(ff.records)
                      if r[R_OP] == oc.STORE]
            return FaultPlan(trigger=stores[0], mode="result", bit=0)

        ff, faulty, acl, interp = run_pair(src, picker,
                                           arrays=[("a", F64, (1,))])
        # bit 0 of the mantissa vanishes in %6.2e formatting
        assert faulty.records != ff.records
        assert any(m.op == oc.EMIT for m in acl.maskings)


class TestCounts:
    def test_counts_nonnegative_and_bounded(self):
        src = """
def main() -> float:
    a[0] = 1.0
    s = 0.0
    for i in range(10):
        s = s + a[0]
    a[0] = 2.0
    return s
"""
        ff, faulty, acl, _ = run_pair(
            src, lambda ff: pick_store(ff, value=1.0, bit=52),
            arrays=[("a", F64, (1,))])
        counts = acl.counts
        assert (counts >= 0).all()
        assert counts.max() >= 1
        assert len(counts) == len(faulty)

    def test_counts_match_intervals(self):
        src = """
def main() -> float:
    a[0] = 1.0
    b = a[0] * 2.0
    a[0] = 9.0
    return b
"""
        ff, faulty, acl, _ = run_pair(
            src, lambda ff: pick_store(ff, value=1.0, bit=51),
            arrays=[("a", F64, (1,))])
        # rebuild counts from intervals and compare
        n = len(faulty)
        ref = np.zeros(n, dtype=np.int32)
        for _loc, b, d in acl.intervals:
            ref[min(b, n):min(d, n)] += 1
        assert (acl.counts == ref).all()

    def test_corrupted_at(self):
        src = """
def main() -> float:
    a[0] = 1.0
    b = a[0] * 2.0
    a[0] = 9.0
    return b
"""
        ff, faulty, acl, _ = run_pair(
            src, lambda ff: pick_store(ff, value=1.0, bit=51),
            arrays=[("a", F64, (1,))])
        loc, b, d = acl.intervals[0]
        assert acl.corrupted_at(loc, b)
        assert not acl.corrupted_at(loc, d)


class TestInjectionSeeding:
    def test_loc_mode_injection_seeds_acl(self):
        src = """
def main() -> float:
    a[0] = 4.0
    s = 0.0
    for i in range(4):
        s = s + a[0]
    return s
"""
        def picker(ff):
            base = ff.module.arrays["a"].base
            return FaultPlan(trigger=len(ff) // 2, mode="loc", bit=62,
                             loc=base)

        ff, faulty, acl, interp = run_pair(src, picker,
                                           arrays=[("a", F64, (1,))])
        assert interp.fault_record.fired
        assert acl.injected_loc == ff.module.arrays["a"].base
        assert acl.counts.max() >= 1


class TestPreTriggerWrites:
    def test_clean_write_before_trigger_is_not_a_death(self):
        """Regression: a clean write to the target location *before*
        the flip fires must not kill (or even see) the corruption —
        the location is not corrupted yet at that point."""
        src = """
def main() -> float:
    a[0] = 4.0
    a[0] = 5.0
    s = 0.0
    for i in range(4):
        s = s + a[0]
    return s
"""
        def picker(ff):
            base = ff.module.arrays["a"].base
            # trigger well after both writes
            return FaultPlan(trigger=len(ff) - 4, mode="loc", bit=40,
                             loc=base)

        ff, faulty, acl, interp = run_pair(src, picker,
                                           arrays=[("a", F64, (1,))])
        assert interp.fault_record.fired
        for d in acl.deaths:
            assert d.time >= d.birth, f"death before birth: {d}"
        for _loc, t in acl.births:
            assert t >= interp.fault_record.dyn_index

    def test_injection_on_never_rewritten_loc_still_seeds(self):
        src = """
def main() -> float:
    a[0] = 4.0
    s = 0.0
    for i in range(4):
        s = s + a[0]
    return s
"""
        def picker(ff):
            base = ff.module.arrays["a"].base
            return FaultPlan(trigger=len(ff) // 2, mode="loc", bit=62,
                             loc=base)

        _, _, acl, interp = run_pair(src, picker,
                                     arrays=[("a", F64, (1,))])
        assert acl.counts.max() >= 1
        assert all(t >= interp.fault_record.dyn_index
                   for _loc, t in acl.births)


class TestTaintOnlyMode:
    SRC = """
def main() -> int:
    k = 37
    b = k >> 4
    out = b
    use = out + 1
    return use
"""

    @staticmethod
    def _pick_def_of(value, bit):
        def picker(ff):
            # k = 37 compiles to a register MOV, not a memory STORE
            defs = [t for t, r in enumerate(ff.records)
                    if r[R_DLOC] is not None and r[2] == value]
            return FaultPlan(trigger=defs[0], mode="result", bit=bit)
        return picker

    def test_taint_cannot_see_shift_masking(self):
        ff, faulty, hybrid, interp = run_pair(self.SRC,
                                              self._pick_def_of(37, 0))
        from repro.acl.table import build_acl
        taint = build_acl(ff, faulty,
                          injected_loc=interp.fault_record.loc,
                          injected_time=interp.fault_record.dyn_index,
                          taint_only=True, index=TraceIndex(ff))
        # the >> masks bit 0: the hybrid records the masking...
        assert any(True for _ in hybrid.maskings)
        # ...taint records none, and keeps the shift result tainted
        assert taint.maskings == []
        assert taint.deaths_by_cause().get("masked", 0) == 0
        assert taint.peak >= hybrid.peak

    def test_taint_tracks_result_mode_injection(self):
        ff, faulty, taint, interp = run_pair(self.SRC,
                                             self._pick_def_of(37, 1))
        from repro.acl.table import build_acl
        taint = build_acl(ff, faulty,
                          injected_loc=interp.fault_record.loc,
                          injected_time=interp.fault_record.dyn_index,
                          taint_only=True, index=TraceIndex(ff))
        assert taint.peak >= 1  # the seeded dest is tracked by fiat
