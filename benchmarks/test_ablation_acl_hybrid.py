"""Ablation: hybrid value-alignment ACL vs classic taint propagation.

Section III-C motivates the hybrid pass: while the faulty run is still
control-aligned with the fault-free run, corruption is decided by
bit-exact value comparison, which is what lets a masking operation (a
shift dropping the flipped bit, a conditional landing on the same
side) visibly *end* a corrupted lineage.  Classic taint propagation —
what security-style analyses and the cited error-propagation tools
use — can only over-approximate.

This bench quantifies the gap on the masking-rich IS and KMEANS
programs: the taint-only ablation observes zero masking events and
reports at least as many alive corrupted locations everywhere, i.e.
it cannot discover the Shifting/Truncation/Conditional patterns at
all.
"""

from conftest import tracker

from repro.acl.table import build_acl
from repro.trace.events import Trace, TraceMeta
from repro.vm.errors import VMError

PROBES_PER_APP = 4
APPS = ("is", "kmeans")


def _traced_faulty(ft, plan):
    interp = ft.program.fresh_interpreter(trace=True, fault=plan,
                                          max_instr=ft.faulty_budget,
                                          exec_tier="interp")
    try:
        interp.run(ft.program.entry)
    except (VMError, TypeError, ValueError, OverflowError, MemoryError):
        pass
    rec = interp.fault_record
    trace = Trace(interp.records, ft.program.module,
                  TraceMeta(program=ft.program.name, faulty=True))
    return trace, (rec.loc if rec.fired else None,
                   rec.dyn_index if rec.fired else None)


def _collect():
    out = []
    for app in APPS:
        ft = tracker(app)
        loops = [i for i in ft.instances()
                 if i.index == 0 and i.region.kind == "loop"]
        plans = []
        for inst in loops[:2]:
            plans.extend(ft.probe_plans(inst, bits=(0, 20), n_sites=1))
        for plan in plans[:PROBES_PER_APP]:
            faulty, (loc, time) = _traced_faulty(ft, plan)
            hybrid = build_acl(ft.fault_free_trace(), faulty,
                               injected_loc=loc, injected_time=time,
                               index=ft.trace_index())
            taint = build_acl(ft.fault_free_trace(), faulty,
                              injected_loc=loc, injected_time=time,
                              taint_only=True, index=ft.trace_index())
            out.append((app, hybrid, taint))
    return out


def test_ablation_acl_hybrid(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    print()
    print("Ablation: hybrid ACL vs taint-only")
    print("app    | hybrid peak | taint peak | hybrid maskings | taint maskings")
    total_mask_hybrid = 0
    for app, hybrid, taint in results:
        print(f"{app:6s} | {hybrid.peak:11d} | {taint.peak:10d} | "
              f"{len(hybrid.maskings):15d} | {len(taint.maskings):14d}")
        total_mask_hybrid += len(hybrid.maskings)

        # taint-only can never observe a masking event, hence never a
        # "masked" death — the Shifting/Truncation/Conditional patterns
        # are structurally invisible to it
        assert len(taint.maskings) == 0
        assert taint.deaths_by_cause().get("masked", 0) == 0
        # the corruption itself is still tracked (seeded injection)
        if hybrid.peak >= 1:
            assert taint.peak >= 1

    # across the masking-rich probes, the hybrid sees maskings somewhere
    assert total_mask_hybrid > 0
