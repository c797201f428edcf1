"""Shared utilities: deterministic RNG, NPB-style randlc, timers, tables,
and the cyclic-GC pause around trace building.

These helpers are deliberately dependency-light; everything above them
(IR, VM, analyses) builds on this layer.
"""

from repro.util.gcpause import gc_paused
from repro.util.rng import DeterministicRNG, Randlc
from repro.util.tables import format_table
from repro.util.timing import Timer

__all__ = ["DeterministicRNG", "Randlc", "format_table", "gc_paused",
           "Timer"]
