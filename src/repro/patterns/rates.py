"""Pattern rates: the prediction-model features of Table IV.

From a *fault-free* trace we count, per pattern, how many dynamic
pattern-instance sites the program exercises, normalized by the total
number of dynamic instructions ("to enable a fair comparison between
applications with different number of instructions", Section VII-B):

* ``condition``          — comparison instructions (CS sites);
* ``shift``              — shift instructions (Shifting sites);
* ``truncation``         — narrowing conversions + precision-limited
                           formatted output (Truncation sites);
* ``dead_location``      — value definitions never read before being
                           overwritten or abandoned (DCL raw material);
* ``repeated_addition``  — accumulator updates ``x = x + ...`` (RA sites);
* ``overwrite``          — definitions that overwrite an already-written
                           location (DO sites).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.ir import opcodes as oc
from repro.patterns.detect import find_accumulator_updates
from repro.trace.columnar import NO_LOC, GoldenTrace
from repro.trace.events import R_OP

#: formats that drop mantissa precision when printed (e.g. "%12.6e")
_PRECISION_FMT = re.compile(r"%[-0-9.]*[efg]")


@dataclass
class PatternRates:
    """Per-pattern dynamic site rates for one program."""

    condition: float
    shift: float
    truncation: float
    dead_location: float
    repeated_addition: float
    overwrite: float
    total_instructions: int

    #: feature order used by the prediction model (matches Table IV)
    FIELDS = ("condition", "shift", "truncation", "dead_location",
              "repeated_addition", "overwrite")

    def vector(self) -> list[float]:
        return [getattr(self, f) for f in self.FIELDS]


def compute_rates(g: GoldenTrace) -> PatternRates:
    """Count pattern sites in a fault-free trace (see module docstring)."""
    n = len(g)
    if n == 0:
        return PatternRates(0, 0, 0, 0, 0, 0, 0)

    op = g.ints(R_OP, 0, n)
    cond = np.isin(op, list(oc.CMP_OPS))
    shift = np.isin(op, list(oc.SHIFT_OPS)) & ~cond
    trunc = np.isin(op, list(oc.TRUNC_OPS)) & ~cond & ~shift
    emits = np.flatnonzero((op == oc.EMIT) & ~cond & ~shift & ~trunc)
    # EMIT records carry the *formatted output* in R_EXTRA; the format
    # string itself lives on the static instruction, so look it up there
    # (only precision-limited float formats can cut corruption off)
    fns = list(g.module.functions.values())
    truncs = int(trunc.sum())
    emit_sids = g.sid[emits]
    for fn, pc in zip(g.table.fn[emit_sids].tolist(),
                      g.table.pc[emit_sids].tolist()):
        fmt = fns[fn].instr_at[pc].aux
        if isinstance(fmt, str) and _PRECISION_FMT.search(fmt):
            truncs += 1

    wt = np.flatnonzero(g.dloc != NO_LOC)
    wloc = g.dloc[wt]
    defs = len(wt)
    overwrites = defs - len(np.unique(wloc))

    # dead definitions: a def is dead unless the next record touching
    # its location (after it) reads it; a record's reads precede its
    # write, so at equal times reads sort first
    slots = np.flatnonzero(g.sloc != NO_LOC)
    rt = np.searchsorted(g.soff, slots, side="right") - 1
    loc = np.concatenate((wloc, g.sloc[slots]))
    time = np.concatenate((wt, rt))
    is_write = np.concatenate((np.ones(defs, dtype=bool),
                               np.zeros(len(slots), dtype=bool)))
    order = np.lexsort((is_write, time, loc))
    loc, is_write = loc[order], is_write[order]
    follows = np.zeros(len(loc), dtype=bool)   # next event reads the loc
    follows[:-1] = (loc[1:] == loc[:-1]) & ~is_write[1:]
    dead = int((is_write & ~follows).sum())

    accum_updates = sum(len(v) for v in find_accumulator_updates(g).values())

    return PatternRates(
        condition=int(cond.sum()) / n,
        shift=int(shift.sum()) / n,
        truncation=truncs / n,
        dead_location=dead / n,
        repeated_addition=accum_updates / n,
        overwrite=overwrites / n,
        total_instructions=n,
    )
