"""The persistent job queue: specs in, job ids out, JSONL durability.

A *job* is one :class:`~repro.api.specs.Experiment` payload queued for
execution.  Its lifecycle is a straight line through
:data:`JOB_STATES`::

    queued -> running -> done
                      \\-> failed

Every transition is appended to ``jobs.jsonl`` under the queue's spill
directory through the plan cache's JSONL helpers
(:mod:`repro.engine.cache`) and fsynced before the call returns, so
the queue is a pure function of its spill file: a restarted daemon
replays the file and carries on.  A torn final line (a daemon killed
mid-append) is skipped on replay and terminated before the next
append.  A job that was ``running`` when the daemon died is requeued
on replay (execution is idempotent: results are content-addressed, so
a re-run of a half-finished job reuses every cached plan).

In-memory only: per-job progress events (``watch`` streams them live;
they are derivable by re-running, so spilling them would be dead
weight) and the condition variable that wakes the executor and
watchers.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.cache import jsonl_append, jsonl_open_append, jsonl_records

#: the job lifecycle, in order (docs drift-check anchor)
JOB_STATES = ("queued", "running", "done", "failed")

#: terminal states: no further transitions, safe to fetch/report
TERMINAL_STATES = ("done", "failed")


@dataclass
class Job:
    """One queued experiment and everything known about it."""

    id: str
    spec: dict                          #: Experiment payload (JSON dict)
    name: str = ""                      #: experiment name, for listings
    state: str = "queued"
    error: Optional[str] = None         #: set iff ``state == "failed"``
    result: Optional[dict] = None       #: full envelope iff ``done``
    events: list = field(default_factory=list)  #: progress, in-memory

    def summary(self) -> dict:
        """The ``joblist`` wire image (no spec/result payloads)."""
        payload = {"id": self.id, "name": self.name, "state": self.state}
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobQueue:
    """FIFO of :class:`Job` with JSONL spill and restart replay."""

    def __init__(self, spill_dir: Optional[str] = None):
        self._lock = threading.Lock()
        #: notified on every submit, transition and progress event —
        #: the executor and every watcher wait on it
        self.changed = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._next = 1
        self._spill: Optional[int] = None
        self._spill_path: Optional[str] = None
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
            self._spill_path = os.path.join(spill_dir, "jobs.jsonl")
            self._replay()
            self._spill = jsonl_open_append(self._spill_path)

    # ------------------------------------------------------------ durability
    def _replay(self) -> None:
        """Rebuild state from the spill; requeue jobs caught running."""
        if self._spill_path is None or \
                not os.path.exists(self._spill_path):
            return
        for entry, _offset in jsonl_records(self._spill_path):
            self._apply(entry)
        for job in self._jobs.values():
            if job.state == "running":
                # the daemon died mid-job; requeue (re-running is safe:
                # plan results are content-addressed).  Not re-spilled —
                # a future replay reaches this same state on its own.
                job.state = "queued"
        numbers = [int(job_id.rsplit("-", 1)[1])
                   for job_id in self._jobs]
        self._next = max(numbers, default=0) + 1

    def _apply(self, entry: dict) -> None:
        """One spilled transition -> in-memory state (replay path)."""
        job_id = entry["job"]
        state = entry["state"]
        if state == "queued" and job_id not in self._jobs:
            self._jobs[job_id] = Job(id=job_id,
                                     spec=entry.get("spec", {}),
                                     name=entry.get("name", ""))
            return
        job = self._jobs.get(job_id)
        if job is None:  # transition for a job we never saw queued
            return
        job.state = state
        if state == "queued":       # requeue spilled by a prior restart
            job.error = None
        elif state == "done":
            job.result = entry.get("result")
        elif state == "failed":
            job.error = entry.get("error")

    def _spill_entry(self, entry: dict) -> None:
        if self._spill is None:
            return
        jsonl_append(self._spill, entry)
        os.fsync(self._spill)

    def close(self) -> None:
        with self._lock:
            if self._spill is not None:
                os.close(self._spill)
                self._spill = None

    # ------------------------------------------------------------ lifecycle
    def submit(self, spec: dict, name: str = "") -> Job:
        """Queue one experiment payload; durable before returning."""
        with self.changed:
            job = Job(id=f"job-{self._next:06d}", spec=spec, name=name)
            self._next += 1
            self._jobs[job.id] = job
            self._spill_entry({"job": job.id, "state": "queued",
                               "name": name, "spec": spec})
            self.changed.notify_all()
            return job

    def claim(self) -> Optional[Job]:
        """Oldest queued job -> running (the executor's pull)."""
        with self.changed:
            for job in self._jobs.values():  # insertion = FIFO order
                if job.state == "queued":
                    job.state = "running"
                    self._spill_entry({"job": job.id,
                                       "state": "running"})
                    self.changed.notify_all()
                    return job
            return None

    def record_event(self, job_id: str, event: dict) -> None:
        """Append one progress event (in-memory; wakes watchers)."""
        with self.changed:
            job = self._jobs[job_id]
            job.events.append(event)
            self.changed.notify_all()

    def finish(self, job_id: str, result: dict) -> None:
        with self.changed:
            job = self._jobs[job_id]
            job.state = "done"
            job.result = result
            self._spill_entry({"job": job_id, "state": "done",
                               "result": result})
            self.changed.notify_all()

    def fail(self, job_id: str, error: str) -> None:
        with self.changed:
            job = self._jobs[job_id]
            job.state = "failed"
            job.error = error
            self._spill_entry({"job": job_id, "state": "failed",
                               "error": error})
            self.changed.notify_all()

    # ------------------------------------------------------------ queries
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every job, submission order."""
        with self._lock:
            return list(self._jobs.values())
