"""Statistics, environment and memory helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

#: every metric name the benchmark emits must match this
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")

#: selection variables removed before anything runs, so only the
#: repository's defaults are measured
STRIPPED_VARS = ("REPRO_EXEC", "REPRO_WARMSTART")
STRIPPED_PREFIX = "REPRO_BENCH_"

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10

ROOT = Path(__file__).resolve().parent.parent
LAYERS_PATH = Path(__file__).resolve().parent / "layers.json"


def load_layers() -> dict:
    """The per-layer map: what each per-layer metric measures and moves."""
    with open(LAYERS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def strip_repro_env(environ=os.environ) -> dict:
    """Remove execution-selection variables; returns what was removed."""
    removed = {}
    for name in sorted(environ):
        if name in STRIPPED_VARS or name.startswith(STRIPPED_PREFIX):
            removed[name] = environ.pop(name)
    return removed


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def tail_percentile(samples: Sequence[float]
                    ) -> Optional[tuple[int, float, int]]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns ``(percentile, value, n)`` using the nearest-rank value, or
    ``None`` when there are too few samples for any percentile of at
    least 50 to keep :data:`TAIL_BEYOND` samples above it.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    pct = min(99, (100 * (n - TAIL_BEYOND)) // n)
    if pct < 50:
        return None
    ordered = sorted(samples)
    rank = math.ceil(pct * n / 100)
    return pct, ordered[rank - 1], n


def cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children.

    Unlike wall time, CPU time leaves out the time the (virtual) CPU
    spends running other tenants, so it reads alike on a busy host.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + \
        children.ru_stime


def pid_cpu_s(pid: int) -> float:
    """:func:`cpu_s` of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # utime, stime, cutime, cstime are fields 14-17 of proc(5)
    return sum(int(x) for x in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> tuple[float, float]:
    """Max resident set of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def source_digest(root: Path = ROOT) -> str:
    """SHA-256 over the program sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path = ROOT) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment_record(seed: int, stripped: dict) -> dict:
    """What two result files must share to compare the same setup."""
    from repro.vm.exec_tier import resolve_exec_tier
    from repro.warmstart import resolve_warmstart
    commit = git_commit()
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_commit": commit,
        # a checkout without git is identified by its sources instead
        "source_sha256": None if commit else source_digest(),
        "seed": seed,
        "exec_tier": resolve_exec_tier(),
        "warm_start": "on" if resolve_warmstart() else "off",
        "stripped_env": stripped,
    }
