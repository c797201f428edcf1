"""CFG, dominators, loops, code regions and instance splitting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import ProgramBuilder
from repro.ir import opcodes as oc
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import F64, I64
from repro.regions.cfg import CFG
from repro.regions.model import (detect_regions, main_loop_iterations,
                                 split_instances)
from repro.regions.variables import classify_io
from repro.trace.columnar import GoldenTrace
from repro.trace.events import Trace
from repro.trace.index import TraceIndex
from repro.vm import Interpreter


def toy_program():
    pb = ProgramBuilder("toy")
    pb.array("x", F64, (8,))
    pb.scalar("out", F64, 0.0)
    pb.func_source("""
def work() -> None:
    for i in range(8):
        t = x[i] * 0.5 + 1.0
        x[i] = t
    for i in range(8):
        x[i] = x[i] + 0.25

def main() -> None:
    for i in range(8):
        x[i] = float(i)
    for it in range(3):
        work()
    s = 0.0
    for i in range(8):
        s = s + x[i]
    out = s
""")
    return pb.build()


class TestCFG:
    def _diamond(self):
        m = Module()
        fn = m.add_function(Function("f", ["a"]))
        b = IRBuilder(fn)
        b.cbr((False, 0), "left", "right")
        b.set_block(b.new_block("left"))
        b.br("join")
        b.set_block(b.new_block("right"))
        b.br("join")
        b.set_block(b.new_block("join"))
        b.ret(0)
        m.finalize("f")
        return fn

    def test_diamond_dominators(self):
        cfg = CFG(self._diamond())
        idom = cfg.idoms()
        assert idom["entry"] is None
        assert idom["left"] == "entry"
        assert idom["right"] == "entry"
        assert idom["join"] == "entry"

    def test_dominates(self):
        cfg = CFG(self._diamond())
        assert cfg.dominates("entry", "join")
        assert not cfg.dominates("left", "join")
        assert cfg.dominates("join", "join")

    def test_simple_loop_detected(self):
        m = Module()
        fn = m.add_function(Function("f", ["n"]))
        b = IRBuilder(fn)
        b.br("head")
        b.set_block(b.new_block("head"))
        t = b.binop(oc.ICMP_SLT, (False, 0), 10)
        b.cbr((False, t), "body", "exit")
        b.set_block(b.new_block("body"))
        b.br("head")
        b.set_block(b.new_block("exit"))
        b.ret(0)
        m.finalize("f")
        loops = CFG(fn).natural_loops()
        assert len(loops) == 1
        assert loops[0].header == "head"
        assert loops[0].blocks == {"head", "body"}

    def test_nested_loops_depths(self):
        pb = ProgramBuilder("t")
        pb.func_source("""
def f() -> int:
    s = 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                s = s + 1
    return s
""")
        m = pb.build(entry="f")
        loops = CFG(m.functions["f"]).natural_loops()
        assert len(loops) == 3
        depths = sorted(lp.depth for lp in loops)
        assert depths == [0, 1, 2]
        top = [lp for lp in loops if lp.depth == 0]
        assert len(top) == 1
        # inner loop blocks are contained in outer loop blocks
        inner = max(loops, key=lambda lp: lp.depth)
        assert inner.blocks < top[0].blocks

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_entry_dominates_everything(self, seed):
        """Random CFGs: the entry dominates every reachable block."""
        import random
        rng = random.Random(seed)
        m = Module()
        fn = m.add_function(Function("f", []))
        n = rng.randint(2, 8)
        b = IRBuilder(fn)
        labels = ["entry"] + [f"b{i}" for i in range(1, n)]
        for lb in labels[1:]:
            fn.new_block(lb)
        for i, lb in enumerate(labels):
            blk = next(x for x in fn.blocks if x.label == lb)
            b.set_block(blk)
            kind = rng.random()
            if kind < 0.3 or i == n - 1:
                b.ret(0)
            elif kind < 0.6:
                b.br(labels[rng.randint(0, n - 1)])
            else:
                b.cbr((True, 1), labels[rng.randint(0, n - 1)],
                      labels[rng.randint(0, n - 1)])
        m.finalize("f")
        cfg = CFG(fn)
        idom = cfg.idoms()
        for lb in cfg.reachable:
            assert cfg.dominates("entry", lb)
            if lb != "entry":
                assert idom[lb] in cfg.reachable


class TestRegions:
    def test_region_chain_alternates(self):
        module = toy_program()
        model = detect_regions(module, "work", "w")
        kinds = [r.kind for r in model.regions]
        assert kinds.count("loop") == 2
        names = [r.name for r in model.regions]
        assert names == sorted(names)  # alphabetical by construction

    def test_block_map_covers_all_blocks(self):
        module = toy_program()
        model = detect_regions(module, "work", "w")
        fn = module.functions["work"]
        for block in fn.blocks:
            assert block.label in model.block_to_region

    def test_instances_per_invocation(self):
        module = toy_program()
        model = detect_regions(module, "work", "w")
        interp = Interpreter(module, trace=True)
        interp.run()
        records = Trace(interp.records, module).records
        instances = split_instances(records, model)
        loop_regions = [r for r in model.regions if r.kind == "loop"]
        for region in loop_regions:
            mine = [i for i in instances if i.region.name == region.name]
            assert len(mine) == 3  # work() called 3 times
            assert [i.index for i in mine] == [0, 1, 2]

    def test_instances_are_disjoint_and_ordered(self):
        module = toy_program()
        model = detect_regions(module, "work", "w")
        interp = Interpreter(module, trace=True)
        interp.run()
        records = Trace(interp.records, module).records
        instances = split_instances(records, model)
        for a, b in zip(instances, instances[1:]):
            assert a.end <= b.start

    def test_main_loop_iterations(self):
        module = toy_program()
        interp = Interpreter(module, trace=True)
        interp.run()
        records = Trace(interp.records, module).records
        iters = main_loop_iterations(records, module, "main")
        assert len(iters) == 3
        # iterations tile the loop span contiguously
        for a, b in zip(iters, iters[1:]):
            assert a.end == b.start
        # each iteration contains the work() call's instructions
        assert all(i.n_instr > 50 for i in iters)


class TestRegionIO:
    def test_toy_io_classification(self):
        module = toy_program()
        model = detect_regions(module, "work", "w")
        interp = Interpreter(module, trace=True)
        interp.run()
        records = Trace(interp.records, module).records
        instances = split_instances(records, model)
        golden = GoldenTrace.from_records(interp.records, module)
        index = TraceIndex(golden)
        first_loop = next(i for i in instances
                          if i.region.kind == "loop" and i.index == 0)
        io = classify_io(golden, index, first_loop)
        # x[0..7] are read at entry -> inputs include those heap addrs
        x_base = module.arrays["x"].base
        input_mem = {loc for loc in io.inputs if loc >= 0}
        assert {x_base + i for i in range(8)} <= input_mem
        # x[0..7] are written and read later -> outputs
        output_mem = {loc for loc in io.outputs if loc >= 0}
        assert {x_base + i for i in range(8)} <= output_mem
        assert io.internals  # loop temporaries die inside

    def test_whole_program_io_has_no_outputs(self):
        module = toy_program()
        interp = Interpreter(module, trace=True)
        interp.run()
        from repro.regions.model import CodeRegion, RegionInstance
        region = CodeRegion(-2, "whole", "straight", "main", frozenset(),
                            0, 0)
        inst = RegionInstance(region, 0, len(interp.records), 0)
        golden = GoldenTrace.from_records(interp.records, module)
        io = classify_io(golden, TraceIndex(golden), inst)
        assert not io.outputs
        assert io.internals
