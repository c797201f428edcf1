"""DDDG construction from a dynamic trace slice.

One :class:`ValueNode` per dynamic value: either a *definition* node
(a record in the slice wrote a register/memory location) or a *source*
node (a value read inside the slice that was defined before it — a
region input).  Edges run from consumed values to the produced value
and carry the producing opcode.

Effect records with no destination (conditional branches, formatted
output) get *sink* nodes so conditionals and emits are visible in the
graph — they are where the Conditional-Statement and Truncation
patterns live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import networkx as nx

from repro.ir import opcodes as oc
from repro.regions.model import RegionInstance
from repro.trace.events import (R_DLOC, R_DVAL, R_FN, R_LINE, R_OP, R_PC,
                                R_SLOCS, R_SVALS)

#: node kinds
SOURCE = "source"      # value defined before the slice (region input)
DEF = "def"            # value defined by a record inside the slice
SINK = "sink"          # effect record (CBR/EMIT) consuming values
CONST = "const"        # constant operand (no location)


@dataclass(frozen=True)
class ValueNode:
    """One dynamic value in the graph.

    ``nid`` is unique within one DDDG; ``loc`` is the home location
    (``None`` for constants and sinks); ``time`` is the defining record
    index (-1 for sources: they predate the slice).
    """

    nid: int
    kind: str
    loc: Optional[int]
    time: int
    value: object = field(compare=False, default=None)
    op: int = field(compare=False, default=-1)
    line: int = field(compare=False, default=0)

    def label(self) -> str:
        opn = oc.op_name(self.op) if self.op >= 0 else self.kind
        v = self.value
        if isinstance(v, float):
            v = f"{v:.6g}"
        return f"{opn} loc={self.loc} v={v}"


class DDDG:
    """A built graph plus its root/leaf classification."""

    def __init__(self, instance: RegionInstance):
        self.instance = instance
        self.graph = nx.DiGraph()
        self.nodes: list[ValueNode] = []
        #: latest value node per location (the slice's live-out values)
        self.last_def: dict[int, ValueNode] = {}
        #: input value nodes keyed by location
        self.sources: dict[int, ValueNode] = {}

    # -- construction helpers (used by build_dddg) -------------------------
    def _add(self, node: ValueNode) -> ValueNode:
        self.nodes.append(node)
        self.graph.add_node(node.nid, ref=node)
        return node

    def node(self, nid: int) -> ValueNode:
        return self.graph.nodes[nid]["ref"]

    # -- classification -----------------------------------------------------
    def roots(self) -> list[ValueNode]:
        """Input values: source nodes actually consumed in the slice."""
        return [n for n in self.nodes
                if n.kind == SOURCE and self.graph.out_degree(n.nid) > 0]

    def leaves(self) -> list[ValueNode]:
        """Candidate outputs: definitions nothing in the slice consumed.

        Whether a leaf is a true region *output* additionally depends
        on the future trace (is the location read after the region?) —
        :meth:`outputs` takes the caller-supplied read test.
        """
        return [n for n in self.nodes
                if n.kind == DEF and self.graph.out_degree(n.nid) == 0]

    def outputs(self, is_read_after) -> list[ValueNode]:
        """Final definitions whose location is read after the slice.

        ``is_read_after(loc)`` is provided by the caller (typically a
        closure over a :class:`~repro.trace.index.TraceIndex`).
        """
        return [n for loc, n in sorted(self.last_def.items())
                if is_read_after(loc)]

    def internals(self) -> list[ValueNode]:
        out_nids = {n.nid for n in self.leaves()}
        return [n for n in self.nodes
                if n.kind == DEF and n.nid not in out_nids]

    # -- comparison support ---------------------------------------------------
    def operation_signature(self) -> list[tuple[int, int, int]]:
        """The slice's (fn, pc, op) sequence.

        Two instances of the same region with different signatures have
        divergent control flow — the paper's DDDG-based divergence
        check ("allows us to detect control flow divergence by
        comparing operations").
        """
        return self._signature

    def value_of(self, loc: int):
        """(found, value) held at ``loc`` when the slice ended."""
        if loc in self.last_def:
            return True, self.last_def[loc].value
        if loc in self.sources:
            return True, self.sources[loc].value
        return False, None

    def stats(self) -> dict:
        g = self.graph
        return {"nodes": g.number_of_nodes(), "edges": g.number_of_edges(),
                "roots": len(self.roots()), "leaves": len(self.leaves()),
                "region": self.instance.region.name,
                "instance": self.instance.index}


def build_dddg(records: Sequence, instance: RegionInstance,
               max_records: Optional[int] = None) -> DDDG:
    """Build the DDDG of one region instance from its trace slice.

    ``max_records`` guards against accidentally graphing a multi-
    million-record slice (DDDGs are for fine-grained inspection of one
    instance; the ACL pass handles whole-trace scale).
    """
    a, b = instance.start, instance.end
    if max_records is not None and b - a > max_records:
        raise ValueError(f"slice has {b - a} records > max_records="
                         f"{max_records}; pick a smaller instance")
    d = DDDG(instance)
    g = d.graph
    next_id = 0
    signature: list[tuple[int, int, int]] = []

    def fresh(kind: str, loc, time, value, op=-1, line=0) -> ValueNode:
        nonlocal next_id
        node = ValueNode(next_id, kind, loc, time, value, op, line)
        next_id += 1
        return d._add(node)

    def source_for(loc: int, value) -> ValueNode:
        node = d.sources.get(loc)
        if node is None:
            node = fresh(SOURCE, loc, -1, value)
            d.sources[loc] = node
        return node

    for t, rec in enumerate(records[a:b], a):
        op = rec[R_OP]
        signature.append((rec[R_FN], rec[R_PC], op))
        dloc = rec[R_DLOC]
        slocs = rec[R_SLOCS]
        svals = rec[R_SVALS]

        if dloc is None:
            if op not in (oc.CBR, oc.EMIT):
                continue  # BR/NOP/bookkeeping: no dataflow
            dst = fresh(SINK, None, t, rec[R_DVAL], op, rec[R_LINE])
        else:
            dst = fresh(DEF, dloc, t, rec[R_DVAL], op, rec[R_LINE])

        for sloc, sval in zip(slocs, svals):
            if sloc is None:
                src = fresh(CONST, None, t, sval)
            elif sloc in d.last_def:
                src = d.last_def[sloc]
            else:
                src = source_for(sloc, sval)
            g.add_edge(src.nid, dst.nid, op=op, time=t)

        if dloc is not None:
            d.last_def[dloc] = dst

    d._signature = signature
    return d
