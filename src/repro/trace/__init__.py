"""Dynamic instruction traces: schema, persistence, per-location index."""

from repro.trace.events import (R_DLOC, R_DVAL, R_EXTRA, R_FN, R_LINE, R_OP,
                                R_PC, R_SLOCS, R_SVALS, Trace, TraceMeta)
from repro.trace.index import INF, TraceIndex

__all__ = [
    "R_DLOC", "R_DVAL", "R_EXTRA", "R_FN", "R_LINE", "R_OP", "R_PC",
    "R_SLOCS", "R_SVALS", "Trace", "TraceMeta", "INF", "TraceIndex",
]
