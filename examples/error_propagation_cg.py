#!/usr/bin/env python3
"""Error propagation deep-dive: CG's iterative self-correction.

Reproduces the paper's core observation about iterative solvers
(Section V-C / Pattern 2): inject a bit flip into the CG solution
vector mid-solve, then watch the error magnitude of the corrupted
location shrink as repeated additions amortize it across sweeps —
and compare against a flip in the *final residual* region, which has no
iterations left to recover.

Run:  python examples/error_propagation_cg.py
"""

import math

from repro import REGISTRY, FlipTracker
from repro.vm.fault import FaultPlan


def magnitude(correct: float, faulty: float) -> float:
    """Paper Equation 2."""
    if correct == faulty:
        return 0.0
    if correct == 0:
        return math.inf
    return abs(correct - faulty) / abs(correct)


def main() -> None:
    program = REGISTRY.build("cg")
    ft = FlipTracker(program, seed=7)
    ff = ft.fault_free_trace()
    module = program.module

    # flip an exponent-adjacent bit of z[3] at the start of the second
    # main-loop iteration (mid-solve: plenty of sweeps left)
    z3 = module.arrays["z"].base + 3
    iters = ft.main_loop_iterations()
    plan = FaultPlan(trigger=iters[1].start, mode="loc", bit=44, loc=z3)
    analysis = ft.analyze_injection(plan)

    print(f"injected: {analysis.faulty.meta.fault_desc}")
    print(f"manifestation: {analysis.manifestation.value}")

    print("\nerror magnitude of z[3] at main-loop iteration boundaries:")
    for i, inst in enumerate(iters):
        if inst.end <= plan.trigger:
            continue
        _ok, v_f = analysis.faulty.records.last_write(z3, inst.end)
        _ok, v_c = ff.records.last_write(z3, inst.end)
        print(f"  after iteration {i + 1}: correct={v_c:+.12e} "
              f"corrupted={v_f:+.12e} magnitude={magnitude(v_c, v_f):.3e}")

    ra = [p for p in analysis.patterns if p.pattern == "RA"]
    print(f"\nrepeated-addition sites observed: {len(ra)}")
    for p in ra[:4]:
        mags = p.details.get("magnitudes", [])
        print(f"  loc {p.loc} at {p.source_location()}: "
              f"magnitudes {['%.2e' % m for m in mags[:6]]}")

    # contrast: the same flip magnitude in the *final residual* region
    # (no iterations left) usually escapes to verification
    final_inst = [i for i in ft.instances() if i.region.kind == "loop"
                  and i.index == ft.instances()[-1].index]
    print("\ncontrast campaign: CG sweep region vs final-residual region")
    loops = [i for i in ft.instances()
             if i.index == 0 and i.region.kind == "loop"]
    sweep = max(loops, key=lambda i: i.n_instr)
    tail = loops[-1]
    for inst in (sweep, tail):
        res = ft.region_campaign(inst.region.name, "internal", n=25)
        print(f"  {inst.region.name:6s}: success rate "
              f"{res.success_rate:.2f} over {res.total} injections")


if __name__ == "__main__":
    main()
