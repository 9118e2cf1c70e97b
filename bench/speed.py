"""Machine speed, measured with a fixed reference snippet.

The benchmark runs on shared virtual machines whose execution speed drifts
by 10-40% over minutes, for every process alike.  Each run therefore times
the snippet below at intervals while it measures, and reports its timings
scaled to a machine on which the snippet takes REF_S:

    reported time = measured time * REF_S / median snippet time

The snippet is the benchmark's own code (stdlib Fraction, complex and dict
work, the kinds of work the workloads do), so a change to halphen cannot
change it; a program that gets faster reads faster, a machine phase that
slows both cancels.
"""

from __future__ import annotations

import cmath
import statistics
import time
from fractions import Fraction

# median snippet time on the 2-core VM where bench/baseline.json was taken
REF_S = 2.0e-3
# while measuring, time the snippet once per this much task time
EVERY_S = 0.1


def snippet_s() -> float:
    """Seconds one run of the reference snippet takes (about REF_S)."""
    t0 = time.perf_counter()
    acc, z, counts = Fraction(0), 0j, {}
    for i in range(1, 300):
        acc += Fraction(i * 7919, i + 13)
        z = z * 0.5 + cmath.exp(1j * i / 300)
        counts[i % 61] = counts.get(i % 61, 0) + i * i
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Factor that turns times measured alongside the samples into times
    at reference speed."""
    return REF_S / statistics.median(samples)


def sample(count: int) -> list:
    return [snippet_s() for _ in range(count)]
