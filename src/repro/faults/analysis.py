"""Analysis plans: one faulty run traced and analyzed (Table I).

An :class:`AnalysisPlan` wraps an ordinary single-bit-flip
:class:`~repro.vm.fault.FaultPlan`.  Executing it traces the faulty run
and runs the ACL and pattern passes over it
(:meth:`~repro.core.FlipTracker.analyze_injection`); the outcome is the
canonical compact-JSON image of the run's manifestation plus its
patterns by region (:func:`encode_analysis`).  Like a recovery outcome,
that image is an opaque string to the engine and the wire, so analysis
plans ride the same shards, frames and reassembly as every other plan.

This module is a leaf (it imports only :mod:`repro.vm.fault`) so the
engine's key and wire codecs can use it without import cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.vm.fault import FaultPlan


@dataclass(frozen=True)
class AnalysisPlan:
    """One traced faulty run, analyzed for resilience patterns."""

    fault: FaultPlan


def encode_analysis(analysis) -> str:
    """Canonical image of one traced analysis (the engine/wire value).

    ``{"m": manifestation, "patterns": {region: [pattern, ...]}}`` with
    each pattern set as a **sorted list**, serialized with sorted keys
    and no whitespace, so the value is a pure function of the analysis.
    """
    return json.dumps(
        {"m": analysis.manifestation.value,
         "patterns": {region: sorted(pats) for region, pats
                      in analysis.patterns_by_region().items()}},
        sort_keys=True, separators=(",", ":"))


def decode_analysis(value: str) -> tuple[str, dict[str, list[str]]]:
    """Inverse of :func:`encode_analysis` -> ``(manifestation, patterns)``.

    Raises :class:`ValueError` unless ``m`` is a string and
    ``patterns`` maps region names to lists of strings.
    """
    try:
        image = json.loads(value)
    except (TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"undecodable analysis value: {exc}") from exc
    if not isinstance(image, dict) or not isinstance(image.get("m"), str):
        raise ValueError(f"analysis value without a manifestation: "
                         f"{value!r}")
    patterns = image.get("patterns")
    if not isinstance(patterns, dict) or not all(
            isinstance(pats, list) and
            all(isinstance(p, str) for p in pats)
            for pats in patterns.values()):
        raise ValueError(f"analysis value with malformed patterns: "
                         f"{value!r}")
    return image["m"], patterns
