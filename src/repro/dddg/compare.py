"""Faulty-vs-fault-free region comparison (paper Section III-D).

Given matching region instances from a fault-free and a faulty run,
classify the instance's fault tolerance:

* **Case 1** — at least one corrupted input location, but every output
  location carries the correct value: the region masked the error.
* **Case 2** — corruption on both sides of the region, but the error
  magnitude (Equation 2) of at least one location *shrank* across the
  instance: the region diminished the error (MG's repeated additions,
  Table II).
* **NO_TOLERANCE** — corruption passed through undiminished.
* **CLEAN** — no corrupted inputs reached this instance (the paper's
  divide-and-conquer skip: "if the input variables of a code region
  are not corrupted ... we can skip propagation analysis on it").
* **DIVERGED** — the operation signatures differ: control flow inside
  the region diverged, so value-by-value comparison is meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.acl.table import same_value
from repro.dddg.builder import DDDG, build_dddg
from repro.regions.model import RegionInstance, split_instances
from repro.regions.variables import classify_io
from repro.trace.index import TraceIndex

CASE1 = "case1"
CASE2 = "case2"
NO_TOLERANCE = "no_tolerance"
CLEAN = "clean"
DIVERGED = "diverged"


def error_magnitude(value_correct, value_incorrect) -> float:
    """Equation 2: |v_c - v_i| / |v_c| (inf when v_c == 0, as Table II).

    Non-numeric or NaN pairs compare as inf when different, 0 when
    bit-identical.
    """
    if value_correct == value_incorrect:
        return 0.0
    try:
        if value_correct != value_correct and \
                value_incorrect != value_incorrect:
            return 0.0  # both NaN
        num = abs(value_correct - value_incorrect)
        den = abs(value_correct)
    except TypeError:
        return float("inf")
    if den == 0:
        return float("inf")
    return num / den


@dataclass
class RegionComparison:
    """Outcome of comparing one region instance across runs."""

    region: str
    index: int
    case: str
    corrupted_inputs: dict[int, tuple] = field(default_factory=dict)
    corrupted_outputs: dict[int, tuple] = field(default_factory=dict)
    input_magnitudes: dict[int, float] = field(default_factory=dict)
    output_magnitudes: dict[int, float] = field(default_factory=dict)
    #: locations whose magnitude shrank across the instance
    diminished: dict[int, tuple[float, float]] = field(default_factory=dict)

    @property
    def tolerant(self) -> bool:
        return self.case in (CASE1, CASE2)

    def describe(self) -> str:
        bits = [f"{self.region}#{self.index}: {self.case}"]
        if self.corrupted_inputs:
            bits.append(f"{len(self.corrupted_inputs)} corrupted inputs")
        if self.corrupted_outputs:
            bits.append(f"{len(self.corrupted_outputs)} corrupted outputs")
        if self.diminished:
            loc, (m0, m1) = next(iter(self.diminished.items()))
            bits.append(f"magnitude at loc {loc}: {m0:.3g} -> {m1:.3g}")
        return ", ".join(bits)


def compare_instance(ff_records: Sequence, ff_index: TraceIndex,
                     ff_inst: RegionInstance,
                     faulty_records: Sequence,
                     faulty_inst: RegionInstance,
                     ff_dddg: Optional[DDDG] = None,
                     faulty_dddg: Optional[DDDG] = None
                     ) -> RegionComparison:
    """Compare one region instance between runs (see module docstring).

    The fault-free run supplies the input/output *location sets* (via
    :func:`classify_io`); both runs' DDDGs supply the boundary values.
    Prebuilt DDDGs may be passed to amortize repeated comparisons.
    """
    region = ff_inst.region.name
    if ff_dddg is None:
        ff_dddg = build_dddg(ff_records, ff_inst)
    if faulty_dddg is None:
        faulty_dddg = build_dddg(faulty_records, faulty_inst)

    if ff_dddg.operation_signature() != faulty_dddg.operation_signature():
        return RegionComparison(region, ff_inst.index, DIVERGED)

    io = classify_io(ff_records, ff_index, ff_inst)
    cmp = RegionComparison(region, ff_inst.index, CLEAN)

    # inputs: value on entry (source nodes; fall back to the classified
    # entry value for locations first touched by a write)
    for loc, v_ff in io.inputs.items():
        found, v_f = faulty_dddg.value_of(loc) \
            if loc in faulty_dddg.sources else (True, None)
        if loc in faulty_dddg.sources:
            v_f = faulty_dddg.sources[loc].value
        else:
            continue  # never consumed in the faulty slice
        if not same_value(v_ff, v_f):
            cmp.corrupted_inputs[loc] = (v_ff, v_f)
            cmp.input_magnitudes[loc] = error_magnitude(v_ff, v_f)

    # outputs: final written values of locations read after the region
    for loc, v_ff in io.outputs.items():
        found, v_f = faulty_dddg.value_of(loc)
        if not found:
            continue
        if not same_value(v_ff, v_f):
            cmp.corrupted_outputs[loc] = (v_ff, v_f)
            cmp.output_magnitudes[loc] = error_magnitude(v_ff, v_f)

    # magnitude trajectory: same location corrupted on entry and still
    # present on exit -> did the region diminish it?
    for loc, m_in in cmp.input_magnitudes.items():
        found, v_f = faulty_dddg.value_of(loc)
        if not found:
            continue
        ok, v_ff_exit = ff_dddg.value_of(loc)
        if not ok:
            continue
        m_out = error_magnitude(v_ff_exit, v_f)
        if m_out < m_in:
            cmp.diminished[loc] = (m_in, m_out)

    if not cmp.corrupted_inputs:
        cmp.case = CLEAN
    elif not cmp.corrupted_outputs:
        cmp.case = CASE1
    elif cmp.diminished:
        cmp.case = CASE2
    else:
        cmp.case = NO_TOLERANCE
    return cmp


def compare_run(ff_records: Sequence, ff_index: TraceIndex,
                ff_instances: Sequence[RegionInstance],
                faulty_records: Sequence, model,
                max_instance_records: int = 200_000
                ) -> list[RegionComparison]:
    """Compare every matched region instance of a faulty run.

    Instances are matched by (region, index); faulty instances with no
    fault-free counterpart (post-divergence control flow) are skipped —
    the ACL taint pass owns that territory.  Instances larger than
    ``max_instance_records`` are skipped to bound graph size.
    """
    faulty_instances = split_instances(faulty_records, model)
    by_key = {(fi.region.name, fi.index): fi for fi in faulty_instances}
    out: list[RegionComparison] = []
    for ff_inst in ff_instances:
        if ff_inst.n_instr > max_instance_records:
            continue
        key = (ff_inst.region.name, ff_inst.index)
        faulty_inst = by_key.get(key)
        if faulty_inst is None:
            continue
        out.append(compare_instance(ff_records, ff_index, ff_inst,
                                    faulty_records, faulty_inst))
    return out
