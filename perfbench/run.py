#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 20181111 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
untraced; ``--trace 1`` runs the traced pass and reports the per-layer
metrics.  Each metric is printed as ``name value unit``; the full
record (environment, every sample, spans of a traced run) goes to
``.perfbench_out/``, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of this checkout; without it the
benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: wall-clock metrics printed next to the end-to-end ones, with units.
#: They are what a user waits for, but on a shared host they spread too
#: widely to bound, so BENCHMARK.json bounds the CPU-time forms instead.
REPORTED = {"setup_wall_s": "s", "runs_per_s": "1/s",
            "analyses_per_s": "1/s", "experiment_s": "s",
            "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "patterns", "service"))
    parser.add_argument("--seed", type=int, default=20181111)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import (TAIL_BEYOND, environment_record,
                                  strip_repro_env)
    stripped = strip_repro_env()
    from perfbench.workloads import run_workload

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for entry in wanted:
        value = outcome.metrics[entry["name"]]
        if not math.isfinite(value):
            raise ValueError(f"{entry['name']} is not finite: {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    failed_frac = outcome.failed / outcome.attempted \
        if outcome.attempted else 1.0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = outcome.extra.pop("spans", None)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment_record(args.seed, stripped),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failed_frac": failed_frac, "metrics": metrics,
        "extra": outcome.extra,
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if spans is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w",
                  encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed} "
          f"exec_tier {env['exec_tier']} warm_start {env['warm_start']} "
          f"nproc {env['nproc']} stripped {sorted(stripped) or 'none'}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, value in outcome.extra.get("reported", {}).items():
        print(f"{name} {value:.6g} {REPORTED[name]}")
    samples = outcome.extra.get("job_samples")
    if samples:
        pct = outcome.extra["job_tail_percentile"]
        print(f"job_tail_percentile p{pct} of {samples} jobs" if pct else
              f"job_tail_s n/a: {samples} jobs leave no percentile from "
              f"the median up with {TAIL_BEYOND} samples beyond it")
    print(f"failed_frac {failed_frac:.6g} ratio")
    print(json.dumps({"correct": outcome.failed == 0
                      and outcome.attempted > 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
