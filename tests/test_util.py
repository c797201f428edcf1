"""Utility-layer tests: RNG streams, NPB randlc, tables, timers."""

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import DeterministicRNG, Randlc
from repro.util.tables import format_table
from repro.util.timing import Timer


class TestRandlc:
    def test_first_draws_in_unit_interval(self):
        r = Randlc()
        for _ in range(100):
            v = r.next()
            assert 0.0 < v < 1.0

    def test_deterministic(self):
        assert [Randlc().next() for _ in range(5)] == \
            [Randlc().next() for _ in range(5)]

    def test_skip_matches_sequential(self):
        a = Randlc()
        for _ in range(17):
            a.next()
        b = Randlc()
        b.skip(17)
        assert a.x == b.x

    def test_known_npb_progression(self):
        # x1 = (5^13 * 314159265) mod 2^46 — exact integer arithmetic
        r = Randlc()
        r.next()
        assert r.x == (1220703125 * 314159265) % (2 ** 46)


class TestDeterministicRNG:
    def test_same_seed_same_stream(self):
        a, b = DeterministicRNG(5), DeterministicRNG(5)
        assert [a.randint(0, 100) for _ in range(20)] == \
            [b.randint(0, 100) for _ in range(20)]

    def test_different_seed_differs(self):
        a, b = DeterministicRNG(1), DeterministicRNG(2)
        assert [a.randint(0, 10 ** 9) for _ in range(4)] != \
            [b.randint(0, 10 ** 9) for _ in range(4)]

    def test_spawn_independent(self):
        parent = DeterministicRNG(7)
        c1, c2 = parent.spawn(0), parent.spawn(1)
        assert c1.seed != c2.seed

    def test_requires_int_seed(self):
        with pytest.raises(TypeError):
            DeterministicRNG("abc")  # type: ignore[arg-type]

    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_spawn_deterministic(self, seed):
        a = DeterministicRNG(seed).spawn(3)
        b = DeterministicRNG(seed).spawn(3)
        assert a.randint(0, 10 ** 6) == b.randint(0, 10 ** 6)


class TestFormatTable:
    def test_basic(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, True]])
        lines = out.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "YES" in out
        assert "2.500" in out

    def test_title(self):
        out = format_table(["x"], [[1]], title="T1")
        assert out.splitlines()[0] == "T1"

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_floatfmt(self):
        out = format_table(["v"], [[1.23456]], floatfmt=".1f")
        assert "1.2" in out and "1.23" not in out


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            sum(range(1000))
        with t:
            sum(range(1000))
        assert len(t.laps) == 2
        assert t.elapsed >= t.min + 0  # sanity
        assert t.min <= t.mean <= t.max

    def test_empty(self):
        t = Timer()
        assert t.mean == 0.0 and t.min == 0.0 and t.max == 0.0
        assert t.median == 0.0

    def test_custom_clock(self):
        ticks = iter([1.0, 3.5, 10.0, 11.0])
        t = Timer(clock=lambda: next(ticks))
        with t:
            pass
        with t:
            pass
        assert t.laps == [2.5, 1.0] and t.elapsed == 3.5

    def test_median_ignores_one_slow_lap(self):
        ticks = iter([0.0, 1.0, 1.0, 2.0, 2.0, 12.0])
        t = Timer(clock=lambda: next(ticks))
        for _ in range(3):
            with t:
                pass
        assert t.laps == [1.0, 1.0, 10.0]
        assert t.median == 1.0 and t.mean == 4.0
        t.laps.append(3.0)
        assert t.median == 2.0
