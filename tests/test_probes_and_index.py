"""Stratified probe plans + FocusedReadIndex equivalence properties."""

import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import REGISTRY
from repro.core import FlipTracker
from repro.faults.sites import PROBE_BITS, stratified_probe_plans
from repro.frontend import ProgramBuilder
from repro.ir.types import F64, I64
from repro.trace.events import R_SLOCS, Trace
from repro.trace.index import FocusedReadIndex, TraceIndex
from repro.vm import Interpreter


def small_tracked():
    ft = FlipTracker(REGISTRY.build("kmeans"), seed=13)
    inst = next(i for i in ft.instances()
                if i.index == 0 and i.region.kind == "loop")
    return ft, inst


class TestStratifiedProbes:
    def test_bits_respect_width(self):
        ft, inst = small_tracked()
        io = ft.io(inst)
        pairs = stratified_probe_plans(ft.fault_free_trace().records, io,
                                       ft.program.module,
                                       bits=(0, 20, 40, 62), n_sites=2)
        for plan, info in pairs:
            assert plan.bit < plan.width

    def test_input_probes_at_instance_entry(self):
        ft, inst = small_tracked()
        io = ft.io(inst)
        pairs = stratified_probe_plans(ft.fault_free_trace().records, io,
                                       ft.program.module, n_sites=1)
        inputs = [p for p, i in pairs if i.kind == "input"]
        assert inputs
        for plan in inputs:
            assert plan.trigger == inst.start
            assert plan.mode == "loc"
            assert plan.loc in io.inputs

    def test_internal_probes_inside_instance(self):
        ft, inst = small_tracked()
        io = ft.io(inst)
        pairs = stratified_probe_plans(ft.fault_free_trace().records, io,
                                       ft.program.module, n_sites=2)
        internals = [p for p, i in pairs if i.kind == "internal"]
        assert internals
        for plan in internals:
            assert inst.start <= plan.trigger < inst.end
            assert plan.mode == "result"

    def test_deterministic(self):
        ft, inst = small_tracked()
        a = ft.probe_plans(inst, n_sites=2)
        b = ft.probe_plans(inst, n_sites=2)
        assert [(p.trigger, p.bit, p.loc, p.mode) for p in a] \
            == [(p.trigger, p.bit, p.loc, p.mode) for p in b]

    def test_site_count_scales(self):
        ft, inst = small_tracked()
        few = ft.probe_plans(inst, bits=(0,), n_sites=1)
        more = ft.probe_plans(inst, bits=(0,), n_sites=3)
        assert len(more) >= len(few)

    def test_default_bits_exported(self):
        assert 0 in PROBE_BITS  # low-bit coverage is the point


class TestMakePlansDeterminism:
    def test_stable_across_seed_offsets(self):
        # regression for the PYTHONHASHSEED bug: plans must be a pure
        # function of (seed, region, index, kind, offset)
        ft1, inst1 = small_tracked()
        ft2, inst2 = small_tracked()
        p1 = ft1.make_plans(inst1, "internal", 4, seed_offset=3)
        p2 = ft2.make_plans(inst2, "internal", 4, seed_offset=3)
        assert [(p.trigger, p.bit) for p in p1] \
            == [(p.trigger, p.bit) for p in p2]


def trace_of(src, arrays=(), scalars=()):
    pb = ProgramBuilder("t")
    for name, vt, shape in arrays:
        pb.array(name, vt, shape)
    for name, vt, init in scalars:
        pb.scalar(name, vt, init)
    pb.func_source(textwrap.dedent(src))
    module = pb.build()
    interp = Interpreter(module, trace=True)
    interp.run()
    return Trace(interp.records, module)


class TestFocusedReadIndex:
    def setup_method(self):
        self.trace = trace_of("""
        def main() -> None:
            s = 0.0
            for i in range(6):
                a[i] = float(i) * 2.0
            for i in range(6):
                s = s + a[i]
            out = s
        """, arrays=[("a", F64, (6,))], scalars=[("out", F64, 0.0)])

    def all_locs(self):
        locs = set()
        for rec in self.trace.records:
            for sloc in rec[R_SLOCS]:
                if sloc is not None:
                    locs.add(sloc)
        return sorted(locs)

    def test_matches_full_index_on_focus_set(self):
        full = TraceIndex(self.trace.records)
        locs = self.all_locs()
        focused = FocusedReadIndex(self.trace.records, locs)
        for loc in locs:
            assert focused.reads[loc] == full.reads[loc]

    def test_ignores_outside_focus(self):
        locs = self.all_locs()
        focused = FocusedReadIndex(self.trace.records, locs[:1])
        assert set(focused.reads) <= {locs[0]}

    @given(st.integers(min_value=0, max_value=80),
           st.integers(min_value=0, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_query_equivalence(self, a, b):
        if a > b:
            a, b = b, a
        full = TraceIndex(self.trace.records)
        locs = self.all_locs()
        focused = FocusedReadIndex(self.trace.records, locs)
        for loc in locs[:6]:
            assert focused.has_read_in(loc, a, b) \
                == full.has_read_in(loc, a, b)
            assert focused.last_read_in(loc, a, b) \
                == full.last_read_in(loc, a, b)
            assert focused.first_read_at_or_after(loc, a) \
                == full.first_read_at_or_after(loc, a)

    @given(st.integers(min_value=0, max_value=80),
           st.integers(min_value=0, max_value=80),
           st.integers(min_value=0, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_start_offset_answers_like_full_index(self, start, a, b):
        """``FocusedReadIndex(records, locs, start)`` answers every query
        whose window begins at or after ``start`` like the full index."""
        a, b = sorted((a, b))
        a = max(a, start)
        full = TraceIndex(self.trace.records)
        locs = self.all_locs()
        focused = FocusedReadIndex(self.trace.records, locs, start)
        for loc in locs:
            assert focused.has_read_in(loc, a, b) \
                == full.has_read_in(loc, a, b)
            assert focused.last_read_in(loc, a, b) \
                == full.last_read_in(loc, a, b)
            assert focused.first_read_at_or_after(loc, a) \
                == full.first_read_at_or_after(loc, a)
