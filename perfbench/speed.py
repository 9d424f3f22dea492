"""The current speed of this process's CPU, to scale CPU time to a reference.

On a shared virtual machine the CPUs run up to twice as slowly for minutes
at a time while other tenants load the host, and the process sees no
steal time: its CPU share stays at 1.0 and each instruction just takes
longer.  Wall-clock throughput then drifts with the neighbours, not with
the program.  A fixed probe (an interpreter loop and a small matrix
product, about 1 ms) run next to the workload measures that drift.  On a
two-vCPU virtual machine under heavy host load, in seven alternating 10-s
runs per workload, scaling by it narrowed the IQR/median of throughput
from 0.30 to 0.13 (mc-loopback) and from 0.24 to 0.03 (dense-reports);
in eight more mc-loopback runs, from 0.23 to 0.08.  Probes with a larger
working set or closer to a session's mix of calls tracked no better.

Workloads whose time is CPU work (every one but tcp-demo, whose time is a
kernel timer) and all set-up phases are scaled.  Scaling only the CPU-busy
share of the wall time, from the process's CPU time, undercorrected
tcp-secure: under load its two threads wait longer to be woken, so its CPU
share fell from 0.97 to 0.72 as the probe slowed, and the spread rose.
"""

import time

import numpy

# The probe's time on an unloaded CPU of the two-vCPU virtual machine the
# seed baseline was measured on; scaled times are in that CPU's seconds.
REFERENCE_NS = 800_000
_MATRIX = numpy.random.default_rng(0).standard_normal((96, 96))


def probe_ns() -> int:
    """Time one fixed piece of work: interpreter bytecode plus BLAS."""
    start = time.perf_counter_ns()
    table, total = {}, 0
    for i in range(5000):
        table[i & 63] = i
        total += table[i & 31] * 3 % 7
    for _ in range(4):
        _MATRIX @ _MATRIX
    return time.perf_counter_ns() - start


def reference_s(wall_s: float, probe: float) -> float:
    """wall_s of CPU work, done where the probe took `probe` ns, in seconds
    of the reference CPU."""
    return wall_s * REFERENCE_NS / probe
