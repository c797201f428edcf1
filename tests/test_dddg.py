"""DDDG construction, classification, DOT export, Case-1/2 comparison."""

import textwrap

import networkx as nx
import pytest

from repro.dddg import (CASE1, CASE2, CLEAN, DIVERGED, NO_TOLERANCE, DDDG,
                        build_dddg, compare_instance, compare_run,
                        error_magnitude, to_dot)
from repro.dddg.builder import CONST, DEF, SINK, SOURCE
from repro.frontend import ProgramBuilder
from repro.ir.types import F64, I64
from repro.regions.model import detect_regions, split_instances
from repro.regions.variables import classify_io
from repro.trace.columnar import GoldenTrace
from repro.trace.events import Trace
from repro.trace.index import TraceIndex
from repro.vm import FaultPlan, Interpreter


def build_traced(src, arrays=(), scalars=(), fault=None):
    pb = ProgramBuilder("t")
    for name, vt, shape in arrays:
        pb.array(name, vt, shape)
    for name, vt, init in scalars:
        pb.scalar(name, vt, init)
    pb.func_source(textwrap.dedent(src))
    module = pb.build()
    interp = Interpreter(module, trace=True, fault=fault)
    try:
        interp.run()
    except Exception:
        pass
    return module, Trace(interp.records, module), interp


SIMPLE = """
def main() -> None:
    total = 0.0
    for i in range(4):
        total = total + a[i] * 2.0
    out = total
"""


class TestBuildDDDG:
    def setup_method(self):
        self.module, self.trace, _ = build_traced(
            SIMPLE, arrays=[("a", F64, (4,))],
            scalars=[("out", F64, 0.0)])
        self.model = detect_regions(self.module, "main", "r")
        self.instances = split_instances(self.trace.records, self.model)
        self.loop = next(i for i in self.instances
                         if i.region.kind == "loop")

    def test_graph_is_dag(self):
        d = build_dddg(self.trace.records, self.loop)
        assert nx.is_directed_acyclic_graph(d.graph)

    def test_nodes_cover_slice_defs(self):
        d = build_dddg(self.trace.records, self.loop)
        n_defs = sum(1 for t in range(self.loop.start, self.loop.end)
                     if self.trace.records[t][1] is not None)
        assert sum(1 for n in d.nodes if n.kind == DEF) == n_defs

    def test_roots_are_consumed_sources(self):
        d = build_dddg(self.trace.records, self.loop)
        for root in d.roots():
            assert root.kind == SOURCE
            assert d.graph.out_degree(root.nid) > 0
        # the array cells are region inputs -> present among roots
        base = self.module.arrays["a"].base
        root_locs = {r.loc for r in d.roots()}
        assert any(base <= loc < base + 4 for loc in root_locs)

    def test_roots_match_classify_io_inputs(self):
        d = build_dddg(self.trace.records, self.loop)
        golden = GoldenTrace.from_records(self.trace.records.suffix,
                                          self.module)
        io = classify_io(golden, TraceIndex(golden), self.loop)
        # every DDDG root location is a classified input of the instance
        for root in d.roots():
            assert root.loc in io.inputs

    def test_outputs_respect_future_reads(self):
        d = build_dddg(self.trace.records, self.loop)
        golden = GoldenTrace.from_records(self.trace.records.suffix,
                                          self.module)
        index = TraceIndex(golden)
        outs = d.outputs(lambda loc: index.has_read_in(
            loc, self.loop.end, index.n))
        io = classify_io(golden, index, self.loop)
        assert {n.loc for n in outs} == set(io.outputs)

    def test_last_def_values(self):
        d = build_dddg(self.trace.records, self.loop)
        # total's accumulator location ends at sum(a) * 2 = 0 (a is zeros)
        found_vals = [d.last_def[loc].value for loc in d.last_def]
        assert 0.0 in found_vals

    def test_signature_length_equals_slice(self):
        d = build_dddg(self.trace.records, self.loop)
        assert len(d.operation_signature()) == self.loop.n_instr

    def test_max_records_guard(self):
        with pytest.raises(ValueError):
            build_dddg(self.trace.records, self.loop, max_records=1)

    def test_stats(self):
        d = build_dddg(self.trace.records, self.loop)
        s = d.stats()
        assert s["nodes"] == len(d.nodes)
        assert s["region"] == self.loop.region.name


class TestSinksAndConsts:
    def test_cbr_becomes_sink(self):
        module, trace, _ = build_traced(
            """
            def main() -> None:
                x = 3
                if x > 2:
                    flag = 1
            """, scalars=[("flag", I64, 0)])
        model = detect_regions(module, "main", "r")
        inst = split_instances(trace.records, model)[0]
        d = build_dddg(trace.records, inst)
        sinks = [n for n in d.nodes if n.kind == SINK]
        assert sinks, "conditional branch should appear as a sink node"
        assert all(d.graph.out_degree(n.nid) == 0 for n in sinks)

    def test_constants_feed_edges(self):
        module, trace, _ = build_traced(
            """
            def main() -> None:
                y = 5
                out = y + 7
            """, scalars=[("out", I64, 0)])
        model = detect_regions(module, "main", "r")
        inst = split_instances(trace.records, model)[0]
        d = build_dddg(trace.records, inst)
        consts = [n for n in d.nodes if n.kind == CONST]
        assert consts
        for c in consts:
            assert d.graph.out_degree(c.nid) == 1


class TestErrorMagnitude:
    def test_equation2(self):
        assert error_magnitude(2.0, 1.0) == 0.5

    def test_zero_baseline_is_inf(self):
        # Table II itr1: original 0 -> magnitude infinity
        assert error_magnitude(0.0, 5.9e-8) == float("inf")

    def test_equal_is_zero(self):
        assert error_magnitude(3.25, 3.25) == 0.0

    def test_both_nan_is_zero(self):
        assert error_magnitude(float("nan"), float("nan")) == 0.0

    def test_non_numeric_is_inf(self):
        assert error_magnitude(None, 1.0) == float("inf")


MASKING = """
def main() -> None:
    acc = 0.0
    for i in range(4):
        acc = acc + a[i] * 0.0
    out = acc
    use = out + 1.0
    sink = use
"""


class TestCompareInstance:
    def _compare_with_fault(self, src, arrays, scalars, plan_fn):
        module, ff, _ = build_traced(src, arrays, scalars)
        plan = plan_fn(module, ff)
        _, faulty, _ = build_traced(src, arrays, scalars, fault=plan)
        model = detect_regions(module, "main", "r")
        ff_insts = split_instances(ff.records, model)
        golden = GoldenTrace.from_records(ff.records.suffix, module)
        return compare_run(golden, TraceIndex(golden), ff_insts,
                           faulty.records, model)

    def test_case1_multiply_by_zero(self):
        # corrupt a[1] before the loop: the x*0 aggregation masks it
        def plan(module, ff):
            base = module.arrays["a"].base
            return FaultPlan(trigger=0, mode="loc", bit=40, loc=base + 1)
        comps = self._compare_with_fault(
            MASKING, [("a", F64, (4,))],
            [("out", F64, 0.0), ("sink", F64, 0.0)], plan)
        loop = [c for c in comps if c.corrupted_inputs]
        assert loop, "the loop instance must see the corrupted input"
        assert loop[0].case == CASE1

    def test_clean_instances_stay_clean(self):
        def plan(module, ff):
            base = module.arrays["a"].base
            return FaultPlan(trigger=0, mode="loc", bit=40, loc=base + 1)
        comps = self._compare_with_fault(
            MASKING, [("a", F64, (4,))],
            [("out", F64, 0.0), ("sink", F64, 0.0)], plan)
        # instances that never consume the corrupted cell are CLEAN
        assert any(c.case == CLEAN for c in comps)

    def test_no_tolerance_passthrough(self):
        src = """
        def main() -> None:
            acc = 0.0
            for i in range(4):
                acc = acc + a[i]
            out = acc
            use = out + 1.0
            sink = use
        """
        def plan(module, ff):
            base = module.arrays["a"].base
            return FaultPlan(trigger=0, mode="loc", bit=52, loc=base + 1)
        comps = self._compare_with_fault(
            src, [("a", F64, (4,))],
            [("out", F64, 0.0), ("sink", F64, 0.0)], plan)
        hit = [c for c in comps if c.corrupted_inputs]
        assert hit and hit[0].case == NO_TOLERANCE
        assert hit[0].corrupted_outputs

    def test_case2_error_magnitude_shrinks(self):
        # averaging with a clean value halves the relative error
        src = """
        def main() -> None:
            for i in range(4):
                a[i] = (a[i] + 8.0) * 0.5
            s = 0.0
            for i in range(4):
                s = s + a[i]
            out = s
            use = out + 1.0
            sink = use
        """
        def plan(module, ff):
            base = module.arrays["a"].base
            # a[] holds zeros; flipping makes a[1] = 2^-exp ... use a
            # big flip so the corrupted input magnitude is finite
            return FaultPlan(trigger=0, mode="loc", bit=62, loc=base + 1)
        module, ff, _ = build_traced(
            src, [("a", F64, (8,))],
            [("out", F64, 0.0), ("sink", F64, 0.0)])
        # make the baseline nonzero so magnitudes are finite
        src2 = src.replace("(a[i] + 8.0)", "(a[i] + 8.0)")
        comps = self._compare_with_fault(
            src2, [("a", F64, (8,))],
            [("out", F64, 0.0), ("sink", F64, 0.0)],
            lambda m, t: FaultPlan(trigger=6, mode="loc", bit=58,
                                   loc=m.arrays["a"].base + 1))
        interesting = [c for c in comps
                       if c.case in (CASE2, CASE1, NO_TOLERANCE)]
        assert interesting, "fault must reach at least one instance"

    def test_diverged_control_flow(self):
        src = """
        def main() -> None:
            x = 1
            if a[0] > 1.0:
                x = 100
                y = x + 1
                z = y + 2
            out = x
            use = out + 1
            sink = use
        """
        def plan(module, ff):
            base = module.arrays["a"].base
            # a[0] = 0.0; flipping exponent bit 62 makes it 2.0 > 1.0,
            # flipping the branch direction
            return FaultPlan(trigger=0, mode="loc", bit=62, loc=base)
        comps = self._compare_with_fault(
            src, [("a", F64, (1,))],
            [("out", I64, 0), ("sink", I64, 0)], plan)
        assert any(c.case == DIVERGED for c in comps)


class TestDotExport:
    def setup_method(self):
        self.module, self.trace, _ = build_traced(
            SIMPLE, arrays=[("a", F64, (4,))], scalars=[("out", F64, 0.0)])
        model = detect_regions(self.module, "main", "r")
        self.inst = split_instances(self.trace.records, model)[0]

    def test_dot_structure(self):
        d = build_dddg(self.trace.records, self.inst)
        dot = to_dot(d)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert dot.count(" -> ") == d.graph.number_of_edges()

    def test_dot_title_escaped(self):
        d = build_dddg(self.trace.records, self.inst)
        dot = to_dot(d, title='with "quotes"')
        assert '\\"quotes\\"' in dot

    def test_corruption_overlay(self):
        model = detect_regions(self.module, "main", "r")
        # the loop instance is where a[] is consumed
        loop = next(i for i in split_instances(self.trace.records, model)
                    if i.region.kind == "loop")
        d_ff = build_dddg(self.trace.records, loop)
        plan = FaultPlan(trigger=0, mode="loc", bit=40,
                         loc=self.module.arrays["a"].base)
        _, faulty, _ = build_traced(SIMPLE, arrays=[("a", F64, (4,))],
                                    scalars=[("out", F64, 0.0)], fault=plan)
        f_loop = next(i for i in split_instances(faulty.records, model)
                      if i.region.kind == "loop")
        d_f = build_dddg(faulty.records, f_loop)
        dot = to_dot(d_f, reference=d_ff)
        assert "color=red" in dot

    def test_max_nodes_guard(self):
        d = build_dddg(self.trace.records, self.inst)
        with pytest.raises(ValueError):
            to_dot(d, max_nodes=2)


class TestFlipTrackerIntegration:
    def test_compare_regions_on_app(self):
        from repro.apps import REGISTRY
        from repro.core import FlipTracker
        ft = FlipTracker(REGISTRY.build("kmeans"), seed=7)
        inst = next(i for i in ft.instances() if i.region.kind == "loop")
        plans = ft.make_plans(inst, "input", 1)
        analysis = ft.analyze_injection(plans[0])
        comps = ft.compare_regions(analysis)
        assert comps, "matched instances expected"
        assert all(c.case in (CASE1, CASE2, CLEAN, DIVERGED, NO_TOLERANCE)
                   for c in comps)
