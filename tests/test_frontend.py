"""MiniHPC compiler tests: semantics vs a CPython oracle, and rejections."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import CompileError, ProgramBuilder
from repro.frontend import lang
from repro.ir.types import F64, I64
from repro.vm import Interpreter


def compile_and_run(src: str, entry: str = "main", pyglobals=None,
                    arrays=(), scalars=()):
    pb = ProgramBuilder("t")
    for name, vt, shape in arrays:
        pb.array(name, vt, shape)
    for name, vt, init in scalars:
        pb.scalar(name, vt, init)
    pb.func_source(src, pyglobals=pyglobals)
    interp = Interpreter(pb.build(entry=entry))
    return interp.run(entry), interp


class TestDualExecution:
    """The same source runs natively (oracle) and compiled; must agree."""

    SNIPPETS = [
        # (source of a zero-arg fn 'f', return annotation)
        ("def f() -> float:\n"
         "    s = 0.0\n"
         "    for i in range(20):\n"
         "        s = s + float(i) * 0.25\n"
         "    return s"),
        ("def f() -> float:\n"
         "    x = 1.0\n"
         "    for i in range(1, 15):\n"
         "        x = x * 1.1 - 0.05\n"
         "        if x > 3.0:\n"
         "            x = x - 1.0\n"
         "    return x"),
        ("def f() -> int:\n"
         "    s = 0\n"
         "    for i in range(32):\n"
         "        if i % 3 == 0 or i % 5 == 0:\n"
         "            s = s + (i << 1)\n"
         "    return s"),
        ("def f() -> float:\n"
         "    a = 2.0\n"
         "    b = 7.0\n"
         "    return sqrt(a * b) + fabs(a - b) + fmin(a, b) * fmax(a, b)"),
        ("def f() -> int:\n"
         "    n = 0\n"
         "    k = 1\n"
         "    while k < 1000:\n"
         "        k = k * 3\n"
         "        n = n + 1\n"
         "    return n"),
    ]

    @pytest.mark.parametrize("src", SNIPPETS)
    def test_matches_python(self, src):
        ns = {"sqrt": lang.sqrt, "fabs": lang.fabs, "fmin": lang.fmin,
              "fmax": lang.fmax}
        exec(src, ns)
        expected = ns["f"]()
        got, _ = compile_and_run(src, entry="f")
        assert got == pytest.approx(expected, rel=1e-15)

    @given(st.integers(min_value=-100, max_value=100),
           st.integers(min_value=-100, max_value=100),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_random_int_expressions(self, a, b, n):
        src = (f"def f() -> int:\n"
               f"    a = {a}\n"
               f"    b = {b}\n"
               f"    s = 0\n"
               f"    for i in range({n}):\n"
               f"        s = s + a * i - b\n"
               f"        if s > 1000:\n"
               f"            s = s - 500\n"
               f"    return s + a * b")
        ns = {}
        exec(src, ns)
        expected = ns["f"]()
        got, _ = compile_and_run(src, entry="f")
        assert got == expected

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_random_float_expressions(self, a, b):
        src = (f"def f() -> float:\n"
               f"    a = {a!r}\n"
               f"    b = {b!r}\n"
               f"    return a / b + a * b - fabs(a) + sqrt(b)")
        ns = {"sqrt": lang.sqrt, "fabs": lang.fabs}
        exec(src, ns)
        expected = ns["f"]()
        got, _ = compile_and_run(src, entry="f")
        assert got == pytest.approx(expected, rel=1e-14, abs=1e-14)


class TestLanguageFeatures:
    def test_module_constants_inlined(self):
        v, _ = compile_and_run("def main() -> int:\n    return NN * 2",
                               pyglobals={"NN": 21})
        assert v == 42

    def test_multidim_tuple_indexing(self):
        v, _ = compile_and_run(
            "def main() -> float:\n"
            "    for i in range(2):\n"
            "        for j in range(3):\n"
            "            g[i, j] = float(i) + float(j) * 10.0\n"
            "    return g[1, 2]",
            arrays=[("g", F64, (2, 3))])
        assert v == 21.0

    def test_augassign_subscript(self):
        v, _ = compile_and_run(
            "def main() -> float:\n"
            "    g[0] = 1.0\n"
            "    for i in range(5):\n"
            "        g[0] += 2.0\n"
            "    return g[0]",
            arrays=[("g", F64, (1,))])
        assert v == 11.0

    def test_int_array_store_truncates_float(self):
        v, _ = compile_and_run(
            "def main() -> int:\n"
            "    g[0] = 3.9\n"
            "    return g[0]",
            arrays=[("g", I64, (1,))])
        assert v == 3

    def test_annassign(self):
        v, _ = compile_and_run("def main() -> float:\n"
                               "    x: float = 3\n"
                               "    return x / 2")
        assert v == 1.5

    def test_variable_step_range(self):
        v, _ = compile_and_run(
            "def main() -> int:\n"
            "    s = 0\n"
            "    span = 1\n"
            "    for st in range(3):\n"
            "        for i in range(0, 16, span * 2):\n"
            "            s = s + 1\n"
            "        span = span * 2\n"
            "    return s")
        assert v == 8 + 4 + 2

    def test_local_array_alloca(self):
        v, _ = compile_and_run(
            "def main() -> float:\n"
            "    buf = alloca_f64(4)\n"
            "    for i in range(4):\n"
            "        buf[i] = float(i * i)\n"
            "    return buf[3]")
        assert v == 9.0

    def test_function_rename(self):
        pb = ProgramBuilder("t")

        def variant_impl() -> int:
            return 7

        pb.func(variant_impl, name="impl")
        pb.func_source("def main() -> int:\n    return impl() + 1")
        assert Interpreter(pb.build()).run() == 8

    def test_docstrings_skipped(self):
        v, _ = compile_and_run('def main() -> int:\n    "docstring"\n'
                               '    return 5')
        assert v == 5

    def test_bool_constants(self):
        v, _ = compile_and_run("def main() -> int:\n"
                               "    x = True\n"
                               "    if x == 1:\n"
                               "        return 3\n"
                               "    return 4")
        assert v == 3


class TestRejections:
    def err(self, src, match, **kw):
        with pytest.raises(CompileError, match=match):
            compile_and_run(src, **kw)

    def test_unknown_name(self):
        self.err("def main() -> int:\n    return mystery", "unknown name")

    def test_unknown_function(self):
        self.err("def main() -> int:\n    return mystery()",
                 "unknown function")

    def test_chained_compare(self):
        self.err("def main() -> int:\n    a = 1\n"
                 "    if 0 < a < 2:\n        return 1\n    return 0",
                 "chained comparisons")

    def test_float_floordiv(self):
        self.err("def main() -> float:\n    a = 1.0\n    return a // 2.0",
                 "require ints")

    def test_whole_array_assignment(self):
        self.err("def main() -> int:\n    g = 5\n    return 0",
                 "whole array", arrays=[("g", F64, (2,))])

    def test_wrong_dim_count(self):
        self.err("def main() -> float:\n    return g[1]",
                 "dims", arrays=[("g", F64, (2, 2))])

    def test_float_index(self):
        self.err("def main() -> float:\n    i = 1.5\n    return g[i]",
                 "index must be an int", arrays=[("g", F64, (3,))])

    def test_break_outside_loop(self):
        self.err("def main() -> int:\n    break\n    return 0",
                 "break outside")

    def test_missing_return(self):
        self.err("def main() -> int:\n    x = 1",
                 "fall off")

    def test_emit_nonliteral_format(self):
        self.err('def main() -> None:\n    x = 1\n    emit(x)',
                 "literal format")

    def test_range_zero_step(self):
        self.err("def main() -> int:\n    s = 0\n"
                 "    for i in range(0, 5, 0):\n        s = s + 1\n"
                 "    return s", "nonzero")

    def test_keyword_args(self):
        self.err("def main() -> float:\n    return pow_(x=1.0)",
                 "keyword")

    def test_duplicate_kernel(self):
        pb = ProgramBuilder("t")
        pb.func_source("def f() -> int:\n    return 1")
        with pytest.raises(CompileError, match="duplicate"):
            pb.func_source("def f() -> int:\n    return 2")


class TestLineNumbers:
    def test_lines_propagate_to_ir(self):
        pb = ProgramBuilder("t")
        pb.func_source("def main() -> int:\n"
                       "    a = 1\n"
                       "    b = 2\n"
                       "    return a + b", line_offset=100)
        module = pb.build()
        interp = Interpreter(module, trace=True)
        interp.run()
        from repro.trace.events import R_LINE, Trace
        lines = {r[R_LINE] for r in Trace(interp.records, module)}
        assert {102, 103, 104} <= lines
