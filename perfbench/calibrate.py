"""Machine-speed calibration of the end-to-end timings.

The benchmark runs on shared virtual machines whose speed swings by up to 2x
over seconds to minutes, and every kind of work in the package slows down
together.  A fixed kernel that uses only the standard library is timed before
every request; it measures how fast the machine is at that moment.  Each
request's time is scaled by ``NOMINAL_S / k``, where ``k`` is the median
kernel time of the probes around it, so the reported time is the one the
request would take on a machine where the kernel takes ``NOMINAL_S``.  The
kernel never touches circleact: a change to the package moves calibrated
times exactly as much as raw ones.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from fractions import Fraction

NOMINAL_S = 0.00085  # the kernel's median time on the machine the bounds were set on
WINDOW = 5  # probes on each side of a request that set its local speed


def kernel():
    """Rational arithmetic, tuple sorting and counting: the kinds of work the
    package does."""
    acc = Fraction(0)
    seen = Counter()
    rows = []
    for i in range(1, 120):
        acc += Fraction(i, i + 3) * Fraction(i + 1, 7)
        key = tuple(sorted((i % 11, i % 5, i % 3)))
        seen[key] += 1
        rows.append((key, i * i))
    rows.sort()
    return acc, len(seen)


def probe() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def calibrate(times, probes) -> list[float]:
    """times[i] ran right after probes[i]; probes has one more entry, taken
    after the last time.  Returns each time at the nominal speed."""
    if len(probes) != len(times) + 1:
        raise ValueError("need one probe before each time and one after the last")
    return [
        t * NOMINAL_S / statistics.median(probes[max(0, i - WINDOW + 1): i + WINDOW + 1])
        for i, t in enumerate(times)
    ]
