"""Table II: the Repeated Additions pattern taking effect in MG.

The paper flips bit 40 of ``u[10][10][10]`` at the first invocation of
``mg3P`` and tabulates the error magnitude of that element after each
of the four invocations: infinity first (the correct value is still 0),
then strictly shrinking until the value is accepted by verification.

We flip bit 40 of the fine-grid center cell at the first invocation and
tabulate (original value, corrupted value, error magnitude) at every
main-loop iteration boundary — same probe, same shape.
"""

import math

from conftest import tracker

from repro.util.tables import format_table
from repro.vm.fault import FaultPlan


def _run():
    ft = tracker("mg")
    prog = ft.program
    u_base = prog.module.arrays["u"].base
    loc = u_base + prog.meta["center_cell"]
    iters = ft.main_loop_iterations()
    plan = FaultPlan(trigger=iters[0].start + 5, mode="loc", bit=40,
                     loc=loc)
    analysis = ft.analyze_injection(plan)
    ff = ft.fault_free_trace()
    rows = []
    for i, inst in enumerate(iters):
        _f1, v_corr = analysis.faulty.records.last_write(loc, inst.end)
        _f2, v_orig = ff.records.last_write(loc, inst.end)
        if v_orig == v_corr:
            mag = 0.0
        elif v_orig == 0:
            mag = math.inf
        else:
            mag = abs(v_orig - v_corr) / abs(v_orig)
        rows.append((i + 1, v_orig, v_corr, mag))
    return ft, analysis, rows


def test_table2(benchmark):
    ft, analysis, rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    print()
    print(format_table(
        ["mg3P call", "original value", "corrupted value",
         "error magnitude"],
        [[i, f"{o:.15g}", f"{c:.15g}",
          "inf" if math.isinf(m) else f"{m:.3e}"] for i, o, c, m in rows],
        title="Table II: repeated additions absorbing the error in MG"))

    mags = [m for _i, _o, _c, m in rows]
    abs_errs = [abs(o - c) for _i, o, c, _m in rows]
    # the error shrinks monotonically across mg3P invocations
    assert all(b <= a for a, b in zip(abs_errs, abs_errs[1:]))
    assert abs_errs[-1] < abs_errs[0]
    # and the run ends accepted by MG's verification (the paper's
    # "regarded as a correct solution" at the fourth invocation)
    from repro.faults.campaign import Manifestation
    assert analysis.manifestation is Manifestation.SUCCESS
    # the RA detector flags the injected location
    u_base = ft.program.module.arrays["u"].base
    loc = u_base + ft.program.meta["center_cell"]
    assert any(p.pattern == "RA" and p.loc == loc
               for p in analysis.patterns)
