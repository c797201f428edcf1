"""The code-region model (paper Section III-A).

An application is a chain of *code regions* delineated by loops: each
top-level loop of a designated region function is a region, and so is
any straight-line section between (before, after) those loops.  Regions
are named ``<prefix>_a``, ``<prefix>_b``, ... in program order, exactly
like Table I's ``cg_a`` ... ``cg_e``.

A region has many dynamic *instances* (one per execution of the region's
code).  :func:`split_instances` recovers instances from a trace,
attributing instructions executed in callees to the calling region —
the paper's per-region instruction counts (e.g. 31.7M instructions for
``cg_c``) include callee work the same way.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.ir import opcodes as oc
from repro.ir.function import Function
from repro.ir.module import Module
from repro.regions.cfg import CFG, Loop


@dataclass(frozen=True)
class CodeRegion:
    """One static code region of the region function."""

    rid: int
    name: str
    kind: str  # "loop" or "straight"
    fn_name: str
    blocks: frozenset
    line_lo: int
    line_hi: int

    def __str__(self) -> str:
        return f"{self.name}({self.kind}, lines {self.line_lo}-{self.line_hi})"


@dataclass
class RegionInstance:
    """One dynamic execution of a region: records [start, end)."""

    region: CodeRegion
    start: int
    end: int
    index: int = 0  # instance number of this region, in time order

    @property
    def n_instr(self) -> int:
        return self.end - self.start


@dataclass
class RegionModel:
    """Static regions of one function plus the block -> region map."""

    fn: Function
    regions: list[CodeRegion]
    block_to_region: dict[str, int]
    cfg: CFG = field(repr=False, default=None)  # type: ignore[assignment]

    def by_name(self, name: str) -> CodeRegion:
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(name)


def _lines_of_blocks(fn: Function, blocks) -> tuple[int, int]:
    lines = [instr.line
             for b in fn.blocks if b.label in blocks
             for instr in b.instrs if instr.line > 0]
    if not lines:
        return (0, 0)
    return (min(lines), max(lines))


def detect_regions(module: Module, fn_name: str,
                   prefix: Optional[str] = None) -> RegionModel:
    """Build the region chain for ``fn_name``.

    Top-level loops become ``loop`` regions; maximal runs of top-level
    blocks between/around them become ``straight`` regions.  Region
    order follows static pc order, which matches source order for
    frontend-compiled kernels.
    """
    fn = module.functions[fn_name]
    cfg = CFG(fn)
    prefix = prefix or fn_name[:2]
    top_loops = cfg.top_level_loops()
    in_loop: dict[str, Loop] = {}
    for loop in top_loops:
        for lb in loop.blocks:
            in_loop[lb] = loop

    regions: list[CodeRegion] = []
    block_to_region: dict[str, int] = {}

    def add_region(kind: str, blocks: set) -> None:
        rid = len(regions)
        name = f"{prefix}_{chr(ord('a') + rid)}" if rid < 26 \
            else f"{prefix}_r{rid}"
        lo, hi = _lines_of_blocks(fn, blocks)
        region = CodeRegion(rid, name, kind, fn_name, frozenset(blocks),
                            lo, hi)
        regions.append(region)
        for lb in blocks:
            block_to_region[lb] = rid

    # walk blocks in pc order, grouping straight runs and loops
    pending_straight: list[str] = []
    seen_loops: set[str] = set()
    for block in fn.blocks:
        lb = block.label
        loop = in_loop.get(lb)
        if loop is None:
            pending_straight.append(lb)
            continue
        if pending_straight:
            add_region("straight", set(pending_straight))
            pending_straight = []
        if loop.header not in seen_loops:
            seen_loops.add(loop.header)
            add_region("loop", set(loop.blocks))
    if pending_straight:
        add_region("straight", set(pending_straight))

    return RegionModel(fn, regions, block_to_region, cfg)


def _region_of_pc(model: RegionModel) -> np.ndarray:
    """Region id of every pc of the region function (-1 for none)."""
    b2r = model.block_to_region
    return np.array([b2r.get(label, -1) for label in model.fn.block_of_pc],
                    dtype=np.int64)


def split_instances(records: Sequence, model: RegionModel,
                    golden: Sequence[RegionInstance] = (),
                    aligned: int = 0) -> list[RegionInstance]:
    """Split a trace into dynamic region instances.

    A record belongs to region R when (a) it executes in the region
    function inside R's blocks, or (b) it executes in a callee invoked
    while R was current.  A RET of the region function closes the
    current instance.

    The split reads only the static-instruction ids (the access API of
    :mod:`repro.trace.columnar`): the records of the region function
    are picked out at once, and only the records where the current
    region changes (plus the function's RETs) are visited one by one.

    ``golden`` are the instances of another trace whose records match
    ``records`` in static id — all the split reads — before
    ``aligned`` (a faulty trace and its golden one, up to their
    divergence).  The instances opened before ``aligned`` are then the
    golden ones up to the last such instance, whose opening record
    closes whatever was open in both traces alike; the scan starts at
    that record, and the earlier golden instance objects are reused.
    """
    # the last golden instance opened before `aligned` is re-scanned
    last = bisect_left(golden, aligned, key=lambda inst: inst.start) - 1
    instances: list[RegionInstance] = list(golden[:max(last, 0)])
    start = golden[last].start if last >= 0 else 0
    per_region_count: dict[int, int] = {
        inst.region.rid: inst.index + 1 for inst in instances}
    n = len(records)
    table = records.table
    fn_lo = table.base[model.fn.index]
    sid = records.sids(start, n)
    sel = np.flatnonzero((sid >= fn_lo) & (sid < fn_lo + len(model.fn.code)))
    sid = sid[sel]
    sel += start
    rid = _region_of_pc(model)[sid - fn_lo]
    is_ret = table.op[sid] == oc.RET
    # the region current before each selected record: the previous
    # one's, or none after a RET
    cur_before = np.full(len(sel), -1, dtype=np.int64)
    cur_before[1:] = np.where(is_ret[:-1], -1, rid[:-1])
    change = rid != cur_before
    events = np.flatnonzero(change | is_ret)

    cur_rid = -1
    cur_start = start

    def close(end: int) -> None:
        nonlocal cur_rid
        if cur_rid >= 0:
            region = model.regions[cur_rid]
            idx = per_region_count.get(cur_rid, 0)
            per_region_count[cur_rid] = idx + 1
            instances.append(RegionInstance(region, cur_start, end, idx))
            cur_rid = -1

    for t, r, changed, ret in zip(sel[events].tolist(),
                                  rid[events].tolist(),
                                  change[events].tolist(),
                                  is_ret[events].tolist()):
        if changed:
            close(t)
            cur_rid = r
            cur_start = t
        if ret:
            # the RET itself belongs to the current (or its own) region
            close(t + 1)
    close(n)
    return instances


def find_main_loop(module: Module, fn_name: Optional[str] = None) -> tuple[Function, Loop]:
    """The application's main loop: the largest top-level loop of ``fn``.

    Defaults to the entry function.  "Largest" means most static
    instructions — in the studied HPC apps the time-stepping loop
    dominates the function body.
    """
    fn = module.functions[fn_name or module.entry]
    cfg = CFG(fn)
    loops = cfg.top_level_loops()
    if not loops:
        raise ValueError(f"{fn.name} has no top-level loop")

    def static_size(loop: Loop) -> int:
        return sum(len(b.instrs) for b in fn.blocks if b.label in loop.blocks)

    return fn, max(loops, key=static_size)


def split_iterations(records: Sequence, fn: Function, loop: Loop,
                     lo: int = 0, hi: Optional[int] = None
                     ) -> list[tuple[int, int]]:
    """Per-iteration spans of a loop (used for the Fig. 6 experiment).

    An iteration starts each time the loop header is entered; the span
    extends to the next header entry.  The final span (the exiting
    condition test) is dropped when it never reaches the loop body.
    ``[lo, hi)`` restricts the scan to one dynamic execution of the
    loop (one region instance).
    """
    if hi is None:
        hi = len(records)
    labels = fn.block_of_pc
    in_loop = np.array([label in loop.blocks for label in labels])
    in_body = np.array([label in loop.blocks and label != loop.header
                        for label in labels])
    # pc within the loop's function (0 for records of other functions)
    local_pc = records.sids(lo, hi) - records.table.base[fn.index]
    here = (local_pc >= 0) & (local_pc < len(labels))
    local_pc[~here] = 0
    hits = np.flatnonzero(here & (local_pc == fn.pc_of_block[loop.header]))
    if not hits.size:
        return []
    # the loop is finally left after its last record (a header hit is
    # one, so the last span is never empty)
    end = int(np.flatnonzero(here & in_loop[local_pc])[-1]) + 1
    starts = hits.tolist()
    spans = list(zip(starts, starts[1:])) + [(starts[-1], end)]
    # drop pure header-test spans (no body executed); callee work
    # implies the run got past the header
    body = np.concatenate(([0], np.cumsum(~here | in_body[local_pc])))
    return [(a + lo, b + lo) for a, b in spans if body[b] > body[a]]


def main_loop_iterations(records: Sequence, module: Module, fn_name: str
                         ) -> list[RegionInstance]:
    """Main-loop iterations as pseudo region instances (Fig. 6 targets).

    The main loop is chosen *dynamically*: among the top-level loops of
    ``fn_name``, the one whose region instances (callee-attributed)
    cover the most dynamic instructions — the time-stepping loop in
    every studied app.
    """
    model = detect_regions(module, fn_name, prefix="_ml")
    insts = split_instances(records, model)
    totals: dict[int, int] = {}
    for inst in insts:
        if inst.region.kind == "loop":
            totals[inst.region.rid] = totals.get(inst.region.rid, 0) \
                + inst.n_instr
    if not totals:
        raise ValueError(f"{fn_name} has no top-level loop")
    best = max(totals, key=totals.get)  # type: ignore[arg-type]
    region = model.regions[best]
    fn = model.fn
    loop = next(lp for lp in model.cfg.top_level_loops()
                if lp.header in region.blocks)
    pseudo = CodeRegion(-1, "main_loop", "loop", fn.name, region.blocks,
                        region.line_lo, region.line_hi)
    out: list[RegionInstance] = []
    for inst in insts:
        if inst.region.rid != best:
            continue
        for a, b in split_iterations(records, fn, loop, inst.start, inst.end):
            out.append(RegionInstance(pseudo, a, b, len(out)))
    return out
