"""The repository benchmark (``python3 perfbench/run.py --help``).

Three workloads run the reproduction in its default configuration:
``sweep`` (untraced Fig. 5/6-style campaigns), ``patterns`` (traced
Table I analyses) and ``service`` (a registry daemon and a shard server
fed by a closed loop of clients).  An untraced run reports the
end-to-end metrics listed in ``BENCHMARK.json``; a traced run installs
wrappers around each layer's public functions (:mod:`.tracing`) and
reports the per-layer metrics described in ``layers.json``.

The bounded end-to-end times are CPU times (user + system, summed over
every process of the workload): on a shared virtual machine the wall
clock of the same run drifts by tens of percent, CPU time by a few.
Wall-clock throughput and latency are printed beside them, unbounded.
"""
