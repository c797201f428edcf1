"""Use Case 1 harness: variants, focused plans, evaluation rows."""

import pytest

from repro.apps import REGISTRY
from repro.core import FlipTracker
from repro.trace.events import R_FN
from repro.transforms import TABLE3_VARIANTS, evaluate_variant, run_table3
from repro.transforms.usecase1 import (_array_cells, _function_span,
                                       data_resident_plans)


class TestVariants:
    def test_all_four_registered(self):
        assert set(TABLE3_VARIANTS) == {"baseline", "dcl_overwrite",
                                        "truncation", "all"}

    def test_every_variant_verifies_fault_free(self):
        for variant in TABLE3_VARIANTS:
            program = REGISTRY.build("cg", variant=variant)
            program.run_fault_free()  # raises if broken

    def test_variants_share_zeta_convergence(self):
        # the transforms must not change what CG converges to beyond
        # its own verification tolerance scale
        zetas = {}
        for variant in TABLE3_VARIANTS:
            program = REGISTRY.build("cg", variant=variant)
            zetas[variant] = program.meta["ref_zeta"]
        base = zetas["baseline"]
        for variant, z in zetas.items():
            assert abs(z - base) / abs(base) < 1e-4, (variant, z, base)

    def test_dcl_variant_has_temp_arrays(self):
        # the transformed sprnvc allocates stack temporaries (Fig 12(b))
        from repro.ir import opcodes as oc
        program = REGISTRY.build("cg", variant="dcl_overwrite")
        fn = program.module.functions["sprnvc"]
        ops = [i.op for b in fn.blocks for i in b.instrs]
        assert oc.ALLOCA in ops
        baseline_fn = REGISTRY.build("cg",
                                     variant="baseline").module.functions[
                                         "sprnvc"]
        base_ops = [i.op for b in baseline_fn.blocks for i in b.instrs]
        assert oc.ALLOCA not in base_ops

    def test_truncation_variant_has_narrowing_ops(self):
        from repro.ir import opcodes as oc
        program = REGISTRY.build("cg", variant="truncation")
        fn = program.module.functions["conj_grad"]
        ops = [i.op for b in fn.blocks for i in b.instrs]
        assert any(op in oc.TRUNC_OPS for op in ops)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            REGISTRY.build("cg", variant="nope")
        with pytest.raises(ValueError):
            evaluate_variant("nope")


class TestFocusedPlans:
    def setup_method(self):
        self.program = REGISTRY.build("cg", variant="baseline")
        self.ft = FlipTracker(self.program, seed=3)
        self.trace = self.ft.fault_free_trace()

    def test_array_cells_cover_shapes(self):
        cells = _array_cells(self.program.module, ("v", "iv"))
        v = self.program.module.arrays["v"]
        iv = self.program.module.arrays["iv"]
        assert len(cells) == v.shape[0] + iv.shape[0]
        assert v.base in cells and iv.base in cells

    def test_function_span_is_ordered_window(self):
        lo, hi = _function_span(self.trace, self.program.module, "makea")
        assert 0 <= lo < hi < len(self.trace)
        # the span's endpoints really execute inside makea
        fn_names = list(self.program.module.functions.keys())
        idx = fn_names.index("makea")
        assert self.trace.records[lo][R_FN] == idx
        assert self.trace.records[hi][R_FN] == idx

    def test_unknown_function_raises(self):
        with pytest.raises(ValueError):
            _function_span(self.trace, self.program.module, "randlc")\
                if "randlc" not in self.program.module.functions \
                else _function_span(self.trace, self.program.module,
                                    "nosuchfn")

    def test_plans_target_declared_cells_and_windows(self):
        windows = data_resident_plans(self.program, self.trace, seed=5,
                                      n_per_window=20)
        assert set(windows) == {"viv", "pq"}
        viv_cells = set(_array_cells(self.program.module, ("v", "iv")))
        lo, hi = _function_span(self.trace, self.program.module, "makea")
        for plan in windows["viv"]:
            assert plan.loc in viv_cells
            assert lo <= plan.trigger < hi
            assert plan.mode == "loc"
            assert 0 <= plan.bit < 64

    def test_plans_deterministic_in_seed(self):
        w1 = data_resident_plans(self.program, self.trace, 5, 8)
        w2 = data_resident_plans(self.program, self.trace, 5, 8)
        w3 = data_resident_plans(self.program, self.trace, 6, 8)
        assert [(p.trigger, p.bit, p.loc) for p in w1["viv"]] \
            == [(p.trigger, p.bit, p.loc) for p in w2["viv"]]
        assert [(p.trigger, p.bit, p.loc) for p in w1["viv"]] \
            != [(p.trigger, p.bit, p.loc) for p in w3["viv"]]


class TestEvaluation:
    def test_evaluate_variant_row_shape(self):
        row = evaluate_variant("baseline", n_injections=8, timing_runs=2,
                               seed=11, campaign="focused")
        assert row.injections == 8
        assert 0.0 <= row.success_rate <= 1.0
        assert row.time_min <= row.time_avg <= row.time_max
        assert row.time_min <= row.time_median <= row.time_max
        assert "viv_sr" in row.extra and "pq_sr" in row.extra
        assert "/" in row.time_range

    def test_whole_campaign_mode(self):
        row = evaluate_variant("baseline", n_injections=8, timing_runs=1,
                               seed=11, campaign="whole")
        assert row.extra["campaign"] == "whole"
        assert row.injections == 8

    def test_bad_campaign_mode(self):
        with pytest.raises(ValueError):
            evaluate_variant("baseline", campaign="sideways")

    def test_run_table3_subset(self):
        rows = run_table3(("baseline",), n_injections=6, timing_runs=1,
                          seed=2)
        assert len(rows) == 1
        assert rows[0].label == "None"
