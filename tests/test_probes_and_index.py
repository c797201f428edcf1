"""Stratified probe plans and plan-sampling determinism."""

from repro.apps import REGISTRY
from repro.core import FlipTracker
from repro.faults.sites import PROBE_BITS, stratified_probe_plans


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
