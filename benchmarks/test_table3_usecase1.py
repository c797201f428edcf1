"""Table III: Use Case 1 — applying resilience patterns to CG.

The paper applies DCL+overwriting (sprnvc on temporaries with
copy-back) and truncation (reduced-precision dot-product iterations)
to CG and reports: baseline 0.59 -> 0.78 with DCL+overwrite, a small
gain from truncation alone (0.614), 0.782 with all together, all at
<0.1 % time cost.

Campaign design: data-resident flips into the arrays each transform
protects, during the phase they are live (see
:mod:`repro.transforms.usecase1` — the paper's whole-program design
needs its 99 %/1 % Leveugle sizing, ~16k runs/variant, to resolve the
effect; the focused windows resolve the same direction at our sizes).

Shape checks: DCL+overwrite improves the v/iv-window success rate and
the overall rate; truncation is within noise of baseline (paper: +2.4
points at ~1 % resolution); the combined variant keeps the DCL gain;
runtime overhead of every variant stays small.
"""

from conftest import WORKERS, scaled

from repro.transforms import run_table3
from repro.util.tables import format_table

N_INJECTIONS = 500  # split across the two windows; paper: 99%/1% (~16k)
TIMING_RUNS = 5


def _run():
    return run_table3(n_injections=scaled(N_INJECTIONS),
                      timing_runs=TIMING_RUNS, seed=424242,
                      workers=WORKERS, campaign="focused")


def test_table3(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    print()
    print(format_table(
        ["Resi. pattern applied", "App. resi. (SR)", "SR v/iv@makea",
         "SR p/q@conj_grad", "exec time (s)", "injections", "crashes",
         "sdc"],
        [[r.label, round(r.success_rate, 3),
          round(r.extra["viv_sr"], 3), round(r.extra["pq_sr"], 3),
          r.time_range, r.injections, r.crashes, r.sdc] for r in rows],
        title="Table III: resilience patterns applied to CG"))

    by = {r.variant: r for r in rows}
    base = by["baseline"]
    # DCL + overwriting buys a real improvement where its mechanism
    # operates (paper: +32% overall at whole-program scale)
    assert by["dcl_overwrite"].extra["viv_sr"] > base.extra["viv_sr"]
    assert by["dcl_overwrite"].success_rate > base.success_rate
    # truncation alone: small effect, within noise, never harmful
    # (paper: +2.4 points); Q16 keeps it off the integer boundary
    assert abs(by["truncation"].extra["pq_sr"]
               - base.extra["pq_sr"]) < 0.08
    # everything combined keeps the DCL gain
    assert by["all"].extra["viv_sr"] > base.extra["viv_sr"]
    assert by["all"].success_rate > base.success_rate
    # performance cost of the transforms is small (paper: <0.1%; we
    # allow interpreter noise); medians, so one lap slowed by other
    # load on a shared host does not decide it
    for variant in ("dcl_overwrite", "truncation", "all"):
        assert by[variant].time_median <= \
            by["baseline"].time_median * 1.15
