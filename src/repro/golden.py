"""Process-wide golden-artifact cache, keyed by program fingerprint.

A program's golden-side state (:class:`~repro.core.fliptracker.
GoldenArtifacts`: golden trace, region instances, I/O classification,
recovery context, warm-start ladder) depends only on the program, so a
long-lived service process builds it once per distinct program and
hands it to every tracker it creates.  Only the service processes read
this cache — the registry daemon for each job's trackers and every
:class:`~repro.engine.backends.server.ShardServer` for its analysis
tracker — so a plain ``FlipTracker(program)`` (CLI runs, tests, pool
workers) always builds its own, independent bundle.

Residency: one bundle per distinct fingerprint, held for the life of
the process.  There is no eviction, so a long-lived process keeps the
golden trace and snapshot ladder of every program it has served.  The
golden trace is stored as columns
(:class:`~repro.trace.columnar.GoldenTrace`, 54 to 59 bytes per record
against 300 or more for a list of tuples), filled chunk by chunk
during the golden run; its read/write index is int32 CSR positions.
Clearing the dict drops the cached bundles; trackers that still hold
one keep it alive.
"""

from __future__ import annotations

import threading

#: fingerprint -> GoldenArtifacts
GOLDEN_CACHE: dict = {}
GOLDEN_CACHE_LOCK = threading.Lock()


def shared_golden(program, fingerprint: str | None = None):
    """The process's bundle for ``program``: ``(bundle, reused)``.

    ``reused`` is True when the bundle was already cached.  A new
    bundle is inserted unbuilt (it builds lazily, under its own lock),
    so the cache lock is never held across a golden run.
    """
    from repro.core.fliptracker import GoldenArtifacts
    from repro.engine.keys import program_fingerprint
    fp = fingerprint or program_fingerprint(program)
    with GOLDEN_CACHE_LOCK:
        bundle = GOLDEN_CACHE.get(fp)
        if bundle is not None:
            return bundle, True
        bundle = GOLDEN_CACHE[fp] = GoldenArtifacts(program)
        return bundle, False
