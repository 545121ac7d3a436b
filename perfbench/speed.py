"""Machine-speed probe: how fast this host runs Python right now.

A shared virtual machine runs the same work at different speeds from one
minute to the next (by up to a third on a 2-vCPU Xeon VM, for a fixed
pure-Python loop and for a fixed design alike).  The benchmark therefore
runs a short fixed loop between slices of its workload, never while an op
is in flight, and reports every timing in *reference seconds*: wall seconds
times ``REFERENCE_PROBE_S`` divided by the loop's time around that slice.
The loop is part of the benchmark, so no change to repro can change it.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the probe loop.
PROBE_ITERATIONS = 400_000

#: The probe's time, in seconds, on the 2-vCPU Xeon VM the bounds in
#: ``BENCHMARK.json`` were set on.  A reference second is a wall second at
#: the speed at which the probe takes this long.
REFERENCE_PROBE_S = 0.035


def probe(repeats: int = 1) -> float:
    """Mean seconds of ``repeats`` runs of the fixed probe loop."""
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i % 7
        times.append(time.perf_counter() - began)
    return statistics.fmean(times)


def scale(before: float, after: float) -> float:
    """Reference seconds per wall second for a slice between two probes."""
    return REFERENCE_PROBE_S / ((before + after) / 2)
