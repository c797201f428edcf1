"""Injection-site enumeration and sampling (FlipIt analog).

A *site* is a (dynamic target, bit) pair.  Mirroring Section V-C, sites
come in two flavours per region instance:

* **input sites** — flip a bit of the value held by one of the
  instance's input locations at instance entry (``"loc"`` mode plans);
* **internal sites** — flip a bit of the result of a dynamic
  instruction inside the instance that defines an internal location
  (``"result"`` mode plans).

Populations are huge (every instruction x 64 bits), so internal sites
are *sampled* uniformly by rejection rather than materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.ir import opcodes as oc
from repro.regions.model import RegionInstance
from repro.regions.variables import RegionIO, location_width
from repro.trace.columnar import NO_LOC, GoldenTrace
from repro.trace.events import R_FN, R_OP, R_PC
from repro.util.rng import DeterministicRNG
from repro.vm.fault import FaultPlan

#: opcodes whose results cannot be targeted by "result"-mode plans
#: (no committed register/memory result, or frame bookkeeping)
_UNTARGETABLE_OPS = np.array([oc.BR, oc.CBR, oc.CALL, oc.RET, oc.EMIT,
                              oc.NOP, oc.MPI_BARRIER, oc.MPI_SEND,
                              oc.ALLOCA], dtype=np.uint8)
_UNTARGETABLE = frozenset(_UNTARGETABLE_OPS.tolist())


class NoFaultSitesError(RuntimeError):
    """Plan sampling could not draw a single site for a target.

    Raised (rather than silently returning an empty plan list) when a
    campaign asks for ``n > 0`` plans but the target population is
    empty or rejection sampling exhausted its draw budget — a campaign
    over zero plans would report a meaningless 0/0 success rate."""


@dataclass(frozen=True)
class SiteInfo:
    """Descriptive metadata kept alongside a plan for reporting."""

    region: str
    instance: int
    kind: str        # "input" or "internal"
    loc: Optional[int]
    trigger: int
    bit: int


def input_site_population(io: RegionIO, module) -> int:
    """Number of (input location, bit) pairs for an instance."""
    total = 0
    for loc, val in io.inputs.items():
        total += location_width(module, loc, val)
    return total


def _targetable(g: GoldenTrace, a: int, b: int) -> np.ndarray:
    """Records of ``[a, b)`` whose result a "result"-mode plan can flip."""
    return (g.dloc[a:b] != NO_LOC) & \
        ~np.isin(g.ints(R_OP, a, b), _UNTARGETABLE_OPS)


def internal_site_population(g: GoldenTrace,
                             instance: RegionInstance) -> int:
    """Upper bound: targetable defs in the instance x 64 bits."""
    return int(_targetable(g, instance.start, instance.end).sum()) * 64


def sample_input_plan(io: RegionIO, module, rng: DeterministicRNG
                      ) -> Optional[tuple[FaultPlan, SiteInfo]]:
    """Uniformly choose one (input location, bit) site of an instance."""
    if not io.inputs:
        return None
    locs = sorted(io.inputs)
    loc = locs[rng.randint(0, len(locs) - 1)]
    width = location_width(module, loc, io.inputs[loc])
    bit = rng.randint(0, width - 1)
    trigger = io.instance.start
    plan = FaultPlan(trigger=trigger, mode="loc", bit=bit, loc=loc,
                     width=width)
    info = SiteInfo(io.instance.region.name, io.instance.index, "input",
                    loc, trigger, bit)
    return plan, info


def sample_internal_plan(g: GoldenTrace, io: RegionIO, module,
                         rng: DeterministicRNG, max_tries: int = 2000
                         ) -> Optional[tuple[FaultPlan, SiteInfo]]:
    """Uniformly sample one internal-def site by rejection.

    Draws a position in [start, end) and accepts it when the record
    defines an internal location with a targetable opcode; this is
    uniform over accepted positions without materializing them.
    """
    inst = io.instance
    a, b = inst.start, inst.end
    if b <= a:
        return None
    internals = io.internals
    for _ in range(max_tries):
        t = rng.randint(a, b - 1)
        dloc = int(g.dloc[t])
        if dloc == NO_LOC or g.field(t, R_OP) in _UNTARGETABLE or \
                dloc not in internals:
            continue
        width = result_width(module, g.field(t, R_FN), g.field(t, R_PC))
        bit = rng.randint(0, width - 1)
        plan = FaultPlan(trigger=t, mode="result", bit=bit, width=width)
        info = SiteInfo(inst.region.name, inst.index, "internal",
                        dloc, t, bit)
        return plan, info
    return None


#: default probe strata: low mantissa/int bits (shift & truncation
#: masking), mid mantissa, high mantissa, low exponent, sign-adjacent
PROBE_BITS = (0, 4, 20, 40, 52, 62)


def stratified_probe_plans(g: GoldenTrace, io: RegionIO, module,
                           bits: Sequence[int] = PROBE_BITS,
                           n_sites: int = 2
                           ) -> list[tuple[FaultPlan, SiteInfo]]:
    """Deterministic probes: a few sites x a bit sweep per kind.

    Purely random sampling at small campaign sizes almost never lands
    on the *low* bits where Shifting/Truncation/Conditional-Statement
    masking lives (6 of 64 bits for a 5-bit shift).  For pattern
    *detection* (Table I) — as opposed to success-rate *measurement*
    (Figs. 5/6), which keeps the uniform model — we sweep a fixed bit
    stratum over a few evenly spaced sites of every region instance.
    FlipIt's "user-specified population of instructions and operands"
    explicitly supports such directed populations.
    """
    inst = io.instance
    plans: list[tuple[FaultPlan, SiteInfo]] = []

    # input probes: evenly spaced input locations at instance entry
    locs = sorted(io.inputs)
    if locs:
        step = max(1, len(locs) // n_sites)
        for loc in locs[::step][:n_sites]:
            width = location_width(module, loc, io.inputs[loc])
            for bit in bits:
                if bit >= width:
                    continue
                plan = FaultPlan(trigger=inst.start, mode="loc", bit=bit,
                                 loc=loc, width=width)
                info = SiteInfo(inst.region.name, inst.index, "input", loc,
                                inst.start, bit)
                plans.append((plan, info))

    # internal probes: evenly spaced targetable internal defs
    a, b = inst.start, inst.end
    internals = np.fromiter(io.internals, dtype=np.int64,
                            count=len(io.internals))
    defs = (a + np.flatnonzero(_targetable(g, a, b) &
                               np.isin(g.dloc[a:b], internals))).tolist()
    if defs:
        step = max(1, len(defs) // n_sites)
        for t in defs[::step][:n_sites]:
            width = result_width(module, g.field(t, R_FN), g.field(t, R_PC))
            for bit in bits:
                if bit >= width:
                    continue
                plan = FaultPlan(trigger=t, mode="result", bit=bit,
                                 width=width)
                info = SiteInfo(inst.region.name, inst.index, "internal",
                                int(g.dloc[t]), t, bit)
                plans.append((plan, info))
    return plans


def result_width(module, fn: int, pc: int) -> int:
    """Bit width of the result of static instruction ``(fn, pc)``."""
    fns = getattr(module, "_fn_list", None)
    if fns is None:
        fns = list(module.functions.values())
        module._fn_list = fns
    bits = fns[fn].instr_at[pc].rtype.bits
    return bits if bits in (1, 32, 64) else 64
