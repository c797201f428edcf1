"""Execution-tier selection for the VM.

Two tiers execute the same finalized modules with byte-identical
observables:

* ``"compiled"`` — specialized generated Python per function
  (:mod:`repro.vm.compile`), several times faster per run (default);
* ``"interp"`` — the flat dispatch loop in :mod:`repro.vm.interp`:
  the reference implementation the tier-parity suites compare
  against, and the fallback for communicator-attached runs and
  anything the compiler cannot lower.

Selection precedence: an explicit ``exec_tier=`` argument wins,
otherwise the ``REPRO_EXEC`` environment variable, otherwise
``"compiled"``.  ``REPRO_EXEC=interp`` is the test/CI hook that
selects the reference tier; pool workers (fork *and* spawn) and shard
servers inherit it, so a single setting covers every engine backend.
"""

from __future__ import annotations

import os
from typing import Optional

ENV_VAR = "REPRO_EXEC"
EXEC_TIERS = ("interp", "compiled")


def resolve_exec_tier(exec_tier: Optional[str] = None) -> str:
    """Normalize an explicit choice / the environment to a tier name."""
    tier = exec_tier if exec_tier is not None else os.environ.get(ENV_VAR)
    if tier is None or tier == "":
        return "compiled"
    tier = tier.strip().lower()
    if tier not in EXEC_TIERS:
        raise ValueError(
            f"unknown execution tier {tier!r}; expected one of {EXEC_TIERS}")
    return tier


def make_interpreter(module, *, exec_tier: Optional[str] = None, **kwargs):
    """Interpreter for ``module`` on the resolved tier.

    ``kwargs`` are passed through to the interpreter constructor
    (``trace``, ``fault``, ``max_instr``, ``stack_words``, ``comm``,
    ``rank``).  The compiled tier degrades gracefully: unsupported
    modules and communicator-attached runs execute interpreted even
    when ``"compiled"`` is selected.
    """
    if resolve_exec_tier(exec_tier) == "compiled":
        from repro.vm.compile import CompiledInterpreter
        return CompiledInterpreter(module, **kwargs)
    from repro.vm.interp import Interpreter
    return Interpreter(module, **kwargs)
