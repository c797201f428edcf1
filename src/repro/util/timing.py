"""Timing helpers used by the overhead experiments (Fig. 4, Table III)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Timer:
    """Context-manager stopwatch accumulating elapsed time.

    ``clock`` defaults to wall time (``time.perf_counter``); pass
    ``time.process_time`` to measure this process's CPU time, which
    other load on the machine does not inflate.

    Example
    -------
    >>> t = Timer()
    >>> with t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    laps: list[float] = field(default_factory=list)
    _start: float = field(default=0.0, repr=False)
    clock: Callable[[], float] = field(default=time.perf_counter,
                                       repr=False)

    def __enter__(self) -> "Timer":
        self._start = self.clock()
        return self

    def __exit__(self, *exc) -> None:
        lap = self.clock() - self._start
        self.elapsed += lap
        self.laps.append(lap)

    @property
    def mean(self) -> float:
        """Mean lap time; 0.0 when no laps have been recorded."""
        return self.elapsed / len(self.laps) if self.laps else 0.0

    @property
    def median(self) -> float:
        """Median lap time; 0.0 when no laps have been recorded.  Unlike
        the mean, one lap slowed by other load on the machine barely
        moves it."""
        if not self.laps:
            return 0.0
        laps = sorted(self.laps)
        mid = len(laps) // 2
        if len(laps) % 2:
            return laps[mid]
        return (laps[mid - 1] + laps[mid]) / 2

    @property
    def min(self) -> float:
        return min(self.laps) if self.laps else 0.0

    @property
    def max(self) -> float:
        return max(self.laps) if self.laps else 0.0
