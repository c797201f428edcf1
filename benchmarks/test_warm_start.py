"""Snapshot-ladder warm start: >= 1.5x late-site campaign throughput.

Warm start exists to stop re-executing the golden prefix of every
faulty run: the highest ladder rung at or below the trigger is
restored and only the suffix executes (``repro.warmstart``).  This
benchmark sweeps late-site faults (last 20% of the dynamic stream —
the long-prefix case every uniform campaign is dominated by) over
kmeans and cg through the compiled tier, cold vs warm, and asserts

* manifestation-identical results (the invisibility contract),
* the compiled tier actually engaged (no silent fallback) and the
  warm arm actually restored rungs (no silent cold fallback),
* a >= 1.5x wall-clock speedup over the cold compiled tier (the
  PR 6 baseline), per app.

It also prints the interpreter dispatch rate (golden run, instr/s) —
the tracking number for the hoisted-locals dispatch-loop micro-opt
that rides this change.  ``tools/bench_summary.py`` emits the same
measurement (one shared core: ``repro.bench.warmstart``) as
machine-readable ``BENCH_warmstart.json`` for CI artifacts.
"""

from conftest import scaled, tracker

from repro.bench.warmstart import measure_warmstart
from repro.util.tables import format_table

SPEEDUP_FLOOR = 1.5
APPS = ("kmeans", "cg")


def test_warm_start_speedup():
    report = measure_warmstart(
        apps=APPS, count=scaled(30),
        trackers={app: tracker(app) for app in APPS})

    rows = []
    for app, r in report["apps"].items():
        rows.append([app, r["runs"], f"{r['cold_s']:.3f}",
                     f"{r['warm_s']:.3f}", f"{r['speedup']:.2f}x",
                     f"{r['hits']}/{r['runs']}", r["saved_instr"],
                     f"{r['interp_dispatch']['instr_per_s']:,.0f}"])
    print()
    print(format_table(
        ["app", "runs", "cold (s)", "warm (s)", "speedup", "rung hits",
         "instr saved", "interp instr/s"], rows,
        title=f"Warm-start late-site throughput "
              f"(min speedup {report['min_speedup']:.2f}x)"))

    # the compiled tier engages on both arms by construction (run_plan
    # is pinned to exec_tier="compiled"); verify no silent fallback
    for app in APPS:
        probe = tracker(app).program.fresh_interpreter(
            exec_tier="compiled")
        probe.run()
        assert probe.exec_tier == "compiled"

    assert report["all_values_match"]  # identical manifestations
    for app, r in report["apps"].items():
        assert r["hits"] > 0, f"{app}: warm arm never engaged a rung"
        assert r["saved_instr"] > 0
        assert r["speedup"] >= SPEEDUP_FLOOR, \
            f"{app}: {r['speedup']:.2f}x < {SPEEDUP_FLOOR}x floor"
