"""Application abstraction shared by the ten studied programs.

Every app builds a :class:`Program`: a finalized module plus the
metadata FlipTracker needs — which function's top-level loops form the
code-region chain, where the main loop lives, and how to run the app's
verification phase (the NPB-style check that decides *Verification
Success* vs *Verification Failed*).

Apps must build **deterministically** from their parameters: campaign
workers reconstruct programs from ``(app name, params)`` in separate
processes, and faulty runs must align with the parent's fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.ir.module import Module
from repro.vm.exec_tier import make_interpreter
from repro.vm.interp import Interpreter


@dataclass
class Program:
    """A built application instance, ready for tracing and injection."""

    name: str
    module: Module
    region_fn: str
    region_prefix: str
    main_fn: str = "main"
    entry: str = "main"
    max_instr: int = 20_000_000
    params: dict = field(default_factory=dict)
    #: verification phase: True = the run's output is acceptable
    check: Callable[[Interpreter], bool] = None  # type: ignore[assignment]
    #: optional extras recorded by the builder (reference values, sizes)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.check is None:
            self.check = verified_flag_check

    def fresh_interpreter(self, *, trace: bool = False, fault=None,
                          max_instr: Optional[int] = None,
                          exec_tier: Optional[str] = None) -> Interpreter:
        """Interpreter on the selected execution tier (explicit arg >
        ``REPRO_EXEC`` env > compiled; see :mod:`repro.vm.exec_tier`)."""
        return make_interpreter(self.module, exec_tier=exec_tier,
                                trace=trace, fault=fault,
                                max_instr=max_instr or self.max_instr)

    def run_fault_free(self, *, trace: bool = False,
                       exec_tier: Optional[str] = None) -> Interpreter:
        """Execute without faults; raises if verification fails (a bug)."""
        interp = self.fresh_interpreter(trace=trace, exec_tier=exec_tier)
        interp.run(self.entry)
        if not self.check(interp):
            raise RuntimeError(
                f"{self.name}: fault-free run failed its own verification "
                f"phase — the app implementation is broken")
        return interp


def verified_flag_check(interp: Interpreter) -> bool:
    """Default verification: the program set its ``verified`` global to 1.

    Apps compute verification *inside* the traced program (as NPB does),
    so the conditional-statement pattern in verification phases is
    visible to the analyses.
    """
    try:
        return interp.read_scalar("verified") == 1
    except KeyError:
        raise RuntimeError("program has no 'verified' scalar; supply a "
                           "custom check function") from None


class AppRegistry:
    """Name -> builder registry (used by campaign worker processes)."""

    def __init__(self) -> None:
        self._builders: dict[str, Callable[..., Program]] = {}

    def register(self, name: str):
        def deco(fn: Callable[..., Program]):
            if name in self._builders:
                raise ValueError(f"app {name!r} already registered")
            self._builders[name] = fn
            return fn
        return deco

    def build(self, name: str, **params) -> Program:
        if name not in self._builders:
            raise KeyError(f"unknown app {name!r}; known: "
                           f"{sorted(self._builders)}")
        return self._builders[name](**params)

    def names(self) -> list[str]:
        return sorted(self._builders)


REGISTRY = AppRegistry()
