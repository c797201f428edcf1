"""End-to-end FlipTracker pipeline + pattern rates + Use Case 1 harness."""

import pytest

from repro.apps import REGISTRY
from repro.core import FlipTracker
from repro.core.report import render_table1, table1_for_program
from repro.faults.campaign import Manifestation
from repro.patterns.base import PATTERNS
from repro.patterns.rates import compute_rates
from repro.transforms import TABLE3_VARIANTS, evaluate_variant

_ft_cache: dict[str, FlipTracker] = {}


def ft_for(name: str) -> FlipTracker:
    if name not in _ft_cache:
        _ft_cache[name] = FlipTracker(REGISTRY.build(name), seed=99)
    return _ft_cache[name]


class TestPipelineOnKMEANS:
    def test_region_campaign(self):
        ft = ft_for("kmeans")
        big = max((i for i in ft.instances() if i.index == 0),
                  key=lambda i: i.n_instr)
        res = ft.region_campaign(big.region.name, "internal", n=20)
        assert res.total == 20
        assert 0 <= res.success_rate <= 1

    def test_iteration_campaign(self):
        ft = ft_for("kmeans")
        res = ft.iteration_campaign(0, "internal", n=10)
        assert res.total == 10

    def test_analyze_injection_produces_patterns(self):
        ft = ft_for("kmeans")
        big = max((i for i in ft.instances() if i.index == 0),
                  key=lambda i: i.n_instr)
        plans = ft.make_plans(big, "internal", 6)
        seen = set()
        for plan in plans:
            analysis = ft.analyze_injection(plan)
            assert analysis.manifestation in Manifestation
            assert analysis.acl is not None
            assert (analysis.acl.counts >= 0).all()
            seen.update(p.pattern for p in analysis.patterns)
        assert seen <= set(PATTERNS)
        assert "DO" in seen  # overwriting shows up everywhere (paper VI)

    def test_campaign_size_leveugle(self):
        ft = ft_for("kmeans")
        big = max((i for i in ft.instances() if i.index == 0),
                  key=lambda i: i.n_instr)
        n95 = ft.campaign_size(big, "internal")
        assert n95 > 500  # ~1067 for big populations
        assert ft.campaign_size(big, "internal", cap=50) == 50

    def test_whole_program_campaign(self):
        ft = ft_for("kmeans")
        res = ft.whole_program_campaign("internal", n=15)
        assert res.total == 15


class TestTable1Report:
    def test_rows_and_rendering(self):
        ft = ft_for("ft")
        rows = table1_for_program(ft, runs_per_kind=1)
        assert rows
        text = render_table1(rows)
        assert "Region" in text and "DCL" in text
        for row in rows:
            assert row.n_instr > 0
            assert row.patterns <= set(PATTERNS)


class TestPatternRates:
    def test_rates_bounded(self):
        ft = ft_for("kmeans")
        rates = ft.pattern_rates()
        for f in rates.FIELDS:
            assert 0.0 <= getattr(rates, f) <= 1.0
        assert rates.total_instructions == len(ft.fault_free_trace())

    def test_empty_trace(self):
        from repro.trace.columnar import GoldenTrace
        rates = compute_rates(GoldenTrace.from_records(
            [], REGISTRY.build("ft").module))
        assert rates.total_instructions == 0

    def test_vector_order(self):
        ft = ft_for("kmeans")
        rates = ft.pattern_rates()
        assert rates.vector() == [getattr(rates, f) for f in rates.FIELDS]


class TestUseCase1Harness:
    def test_variant_labels(self):
        assert set(TABLE3_VARIANTS) == {"baseline", "dcl_overwrite",
                                        "truncation", "all"}

    def test_evaluate_variant_small(self):
        row = evaluate_variant("baseline", n_injections=10, timing_runs=2)
        assert row.injections == 10
        assert 0 <= row.success_rate <= 1
        assert row.time_min <= row.time_avg <= row.time_max
        assert "/" in row.time_range

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            evaluate_variant("nope", n_injections=1, timing_runs=1)


class TestFaultyBudget:
    def test_budget_exceeds_fault_free(self):
        ft = ft_for("kmeans")
        assert ft.faulty_budget > len(ft.fault_free_trace())
