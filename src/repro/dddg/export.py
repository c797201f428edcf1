"""DOT export of a DDDG (Graphviz-compatible, no graphviz needed).

The paper renders DDDGs with Graphviz to inspect input/output/internal
locations of a region instance; this produces the same artifact as a
string, colour-coding the classification:

* root/source nodes (region inputs)      — blue boxes;
* leaf definitions (candidate outputs)   — green boxes;
* internal definitions                   — grey ellipses;
* sinks (conditional branches, emits)    — orange diamonds;
* constants                              — dotted points.

Optionally, nodes whose values differ from a matching fault-free DDDG
are outlined in red — the visual error-propagation overlay.
"""

from __future__ import annotations

from typing import Optional

from repro.acl.table import same_value
from repro.dddg.builder import CONST, DDDG, DEF, SINK, SOURCE
from repro.ir import opcodes as oc

_STYLE = {
    SOURCE: 'shape=box, style=filled, fillcolor="#d0e0ff"',
    DEF: 'shape=ellipse, style=filled, fillcolor="#eeeeee"',
    SINK: 'shape=diamond, style=filled, fillcolor="#ffe0b0"',
    CONST: "shape=point",
}


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(dddg: DDDG, title: Optional[str] = None,
           reference: Optional[DDDG] = None,
           max_nodes: int = 4000) -> str:
    """Render ``dddg`` as DOT text.

    ``reference`` enables the corruption overlay: any node whose value
    differs from the same-position node of the reference graph (a
    fault-free build of the same instance) is outlined red.  Graphs
    beyond ``max_nodes`` are rejected — render a smaller instance.
    """
    g = dddg.graph
    if g.number_of_nodes() > max_nodes:
        raise ValueError(f"DDDG has {g.number_of_nodes()} nodes > "
                         f"max_nodes={max_nodes}")
    ref_nodes = reference.nodes if reference is not None else None
    leaves = {n.nid for n in dddg.leaves()}
    name = title or (f"{dddg.instance.region.name}"
                     f"_{dddg.instance.index}")
    lines = [f'digraph "{_escape(name)}" {{',
             "  rankdir=TB;",
             f'  label="{_escape(name)}";']
    for node in dddg.nodes:
        style = _STYLE[node.kind]
        if node.kind == DEF and node.nid in leaves:
            style = 'shape=box, style=filled, fillcolor="#d0ffd0"'
        corrupt = (ref_nodes is not None
                   and node.nid < len(ref_nodes)
                   and not same_value(ref_nodes[node.nid].value,
                                      node.value))
        extra = ', color=red, penwidth=2.5' if corrupt else ""
        lines.append(f'  n{node.nid} [label="{_escape(node.label())}", '
                     f"{style}{extra}];")
    for u, v, attrs in g.edges(data=True):
        opn = oc.op_name(attrs["op"]) if attrs.get("op", -1) >= 0 else ""
        lines.append(f'  n{u} -> n{v} [label="{_escape(opn)}"];')
    lines.append("}")
    return "\n".join(lines)
