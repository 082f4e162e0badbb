"""Reference speed of a shared host, sampled alongside the workload.

On a shared machine the speed of the same Python code drifts by tens of
percent over minutes, which would swamp the differences the benchmark
is meant to show.  So each run times a fixed kernel right after each
set-up and each chunk of ops, and reports every time at the reference
speed: raw time * REF_NS / median kernel time measured right after it.

The kernel is stdlib Fraction arithmetic, sorting and hashing: the kind
of work plmonoid's layers do, but not plmonoid's code, so a change to
plmonoid moves the raw time and not the kernel.  It runs with the
cyclic garbage collector off, so its time does not depend on the size
of the workload's heap.  It follows the host's drift only in part, so
the scaled times keep some of it.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter_ns

# Kernel time (ns) that defines the reference speed.
REF_NS = 2_000_000
MIN_SAMPLES = 5


def _kernel() -> Fraction:
    xs = [Fraction(i * 7919 % 257, 257 + i % 3) for i in range(1, 160)]
    pts = sorted(set(xs))
    acc = Fraction(0)
    for a, b in zip(pts, pts[1:]):
        acc += (b - a) * (a + b) / 2
    return acc


def scale_after(busy_ns: float, share: float) -> float:
    """Time the kernel right after a measured interval of busy_ns, for
    share of that time and at least MIN_SAMPLES times, and return the
    factor that takes the interval's raw times to the reference speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        spent = 0
        while len(samples) < MIN_SAMPLES or spent < share * busy_ns:
            t0 = perf_counter_ns()
            _kernel()
            dt = perf_counter_ns() - t0
            samples.append(dt)
            spent += dt
    finally:
        if enabled:
            gc.enable()
    return REF_NS / statistics.median(samples)
