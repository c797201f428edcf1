"""ASCII chart rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz import acl_chart, bar_chart, grouped_bars, line_chart, sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        s = sparkline([3.0] * 10)
        assert len(s) == 10
        assert len(set(s)) == 1

    def test_pooling_keeps_length_bounded(self):
        s = sparkline(list(range(1000)), width=50)
        assert len(s) == 50

    def test_max_pooling_preserves_spike(self):
        # a single spike in a long flat series must stay visible
        vals = [0.0] * 500
        vals[250] = 100.0
        s = sparkline(vals, width=50)
        assert "█" in s

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_never_longer_than_width(self, vals):
        assert len(sparkline(vals, width=60)) <= 60


class TestLineChart:
    def test_empty(self):
        assert "empty" in line_chart([])

    def test_contains_title_and_axis(self):
        out = line_chart([1, 2, 3], title="T", x_label="x", y_label="y")
        assert "T" in out and "[y]" in out and "x" in out
        assert "+" in out  # axis corner

    def test_markers_row(self):
        out = line_chart(list(range(100)), markers={50: "^"})
        assert "^" in out

    def test_marker_position_clamped(self):
        out = line_chart([1, 2], markers={5: "D"})
        assert "D" in out

    @given(st.lists(st.floats(min_value=0, max_value=1e3,
                              allow_nan=False), min_size=1, max_size=200),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_height_rows(self, vals, height):
        out = line_chart(vals, height=height)
        body = [l for l in out.splitlines() if "|" in l]
        assert len(body) == height


class TestBarChart:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1, 2])

    def test_empty(self):
        assert bar_chart([], []) == "(no bars)"

    def test_values_printed(self):
        out = bar_chart(["x", "y"], [0.25, 1.0])
        assert "0.250" in out and "1.000" in out

    def test_full_bar_at_max(self):
        out = bar_chart(["m"], [1.0], width=10, vmax=1.0)
        assert "█" * 10 in out

    def test_zero_values(self):
        out = bar_chart(["z"], [0.0], vmax=1.0, width=8)
        assert "·" * 8 in out


class TestGroupedBars:
    def test_two_series(self):
        out = grouped_bars(["r1", "r2"],
                           {"internal": [0.5, 0.9], "input": [0.1, 0.3]})
        assert out.count("internal") == 2
        assert out.count("input") == 2

    def test_glyphs_differ_between_series(self):
        out = grouped_bars(["r"], {"a": [1.0], "b": [1.0]}, width=5)
        assert "█" in out and "▓" in out


class TestACLChart:
    def _acl(self, counts, births=(), divergence=None):
        class FakeACL:
            pass
        a = FakeACL()
        a.counts = np.asarray(counts)
        a.births = list(births)
        a.divergence = divergence
        return a

    def test_injection_marker(self):
        acl = self._acl([0] * 10 + [1] * 90, births=[(5, 10)])
        out = acl_chart(acl)
        assert "^" in out

    def test_divergence_marker(self):
        acl = self._acl([1] * 100, births=[(5, 0)], divergence=60)
        out = acl_chart(acl)
        assert "D" in out

    def test_real_acl(self):
        from repro.acl.table import build_acl
        from repro.frontend import ProgramBuilder
        from repro.ir.types import F64
        from repro.trace.columnar import GoldenTrace
        from repro.trace.events import Trace
        from repro.trace.index import TraceIndex
        from repro.vm import FaultPlan, Interpreter
        pb = ProgramBuilder("t")
        pb.array("a", F64, (4,))
        pb.scalar("out", F64, 0.0)
        pb.func_source(
            "def main() -> None:\n"
            "    s = 0.0\n"
            "    for i in range(4):\n"
            "        s = s + a[i]\n"
            "    out = s\n")
        module = pb.build()
        clean = Interpreter(module, trace=True)
        clean.run()
        ff = GoldenTrace.from_records(clean.records, module)
        plan = FaultPlan(trigger=2, mode="loc", bit=40,
                         loc=module.arrays["a"].base)
        fi = Interpreter(module, trace=True, fault=plan)
        fi.run()
        acl = build_acl(ff, Trace(fi.records, module),
                        injected_loc=module.arrays["a"].base,
                        injected_time=2, index=TraceIndex(ff))
        out = acl_chart(acl, title="toy")
        assert "toy" in out
        assert "█" in out
