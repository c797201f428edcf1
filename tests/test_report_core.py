"""FlipTracker orchestrator surface + Table I report assembly."""

import pytest

from repro.apps import REGISTRY
from repro.core import FlipTracker
from repro.core.report import Table1Row, render_table1, table1_for_program
from repro.patterns.base import PATTERNS


@pytest.fixture(scope="module")
def ft():
    with FlipTracker(REGISTRY.build("kmeans"), seed=99) as tracker:
        yield tracker


class TestTable1Row:
    def test_found_flag(self):
        row = Table1Row("app", "r_a", 1, 9, 100)
        assert not row.found
        row.patterns.add("DO")
        assert row.found

    def test_cells_align_with_headers(self):
        row = Table1Row("app", "r_a", 1, 9, 100, {"DO", "RA"})
        cells = row.cells()
        assert len(cells) == 5 + len(PATTERNS)
        assert cells[:5] == ["app", "r_a", "1-9", 100, True]
        assert cells[5 + PATTERNS.index("RA")] is True
        assert cells[5 + PATTERNS.index("CS")] is False

    def test_render_contains_all_rows(self):
        rows = [Table1Row("a", "r_a", 1, 2, 10, {"DO"}),
                Table1Row("a", "r_b", 3, 4, 20)]
        out = render_table1(rows)
        assert "r_a" in out and "r_b" in out
        for p in PATTERNS:
            assert p in out


class TestOrchestrator:
    def test_whole_program_instance_covers_trace(self, ft):
        inst = ft.whole_program_instance()
        assert inst.start == 0
        assert inst.end == len(ft.fault_free_trace())
        assert inst.region.name == "whole_program"

    def test_campaign_size_cap(self, ft):
        inst = next(i for i in ft.instances() if i.region.kind == "loop")
        uncapped = ft.campaign_size(inst, "internal")
        assert ft.campaign_size(inst, "internal", cap=10) == min(uncapped,
                                                                 10)

    def test_iteration_campaign_bounds(self, ft):
        with pytest.raises(IndexError):
            ft.iteration_campaign(10_000, "internal", n=1)

    def test_make_plans_rejects_bad_kind(self, ft):
        inst = ft.instances()[0]
        with pytest.raises(ValueError):
            ft.make_plans(inst, "sideways", 1)

    def test_instance_of_missing_raises(self, ft):
        with pytest.raises(KeyError):
            ft.instance_of("no_such_region")

    def test_faulty_budget_exceeds_trace(self, ft):
        assert ft.faulty_budget > len(ft.fault_free_trace())


class TestParallelAnalysisEquivalence:
    def test_fork_and_sequential_agree(self):
        """region_patterns' fork fan-out must be a pure parallelization:
        identical pattern sets to the sequential path for the same
        plans (fault-free trace shared copy-on-write)."""
        with FlipTracker(REGISTRY.build("kmeans"), seed=5,
                         workers=1) as seq, \
                FlipTracker(REGISTRY.build("kmeans"), seed=5,
                            workers=2) as par:
            inst = next(i for i in seq.instances()
                        if i.region.kind == "loop")
            plans = seq.probe_plans(inst, bits=(0,), n_sites=2)[:4]
            r_seq = seq._analyze_many(plans)
            r_par = par._analyze_many(plans)
        import os
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        assert r_seq == r_par


class TestTable1ForProgram:
    def test_loop_rows_only_by_default(self, ft):
        rows = table1_for_program(ft, runs_per_kind=0, probe_sites=1,
                                  probe_bits=(0,))
        assert rows
        names = {r.region for r in rows}
        for inst in ft.instances():
            if inst.index == 0 and inst.region.kind == "straight":
                assert inst.region.name not in names

    def test_rows_have_plausible_metadata(self, ft):
        rows = table1_for_program(ft, runs_per_kind=0, probe_sites=1,
                                  probe_bits=(0,))
        for r in rows:
            assert r.line_lo <= r.line_hi
            assert r.n_instr > 0
            assert r.patterns <= set(PATTERNS)
