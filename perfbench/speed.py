"""Wall times scaled to a reference machine speed.

On a shared host other tenants slow every process, by up to 2x, for
seconds or minutes at a time.  Process CPU time slows down as much as wall
time, so neither clock gives figures that repeat from run to run.  A ~1 ms
probe of pure-Python int and Fraction arithmetic, which calls no library
code, tells the machine's current speed.  `timed_each` probes right
before and right after a piece of work and scales the work's wall time by
REFERENCE_PROBE_S over the mean of the two probe times.  Short calls are
bracketed as a group, so that they run back to back, as a closed-loop
client sends them.  A scaled time is the wall time the work would take on
a machine where the probe takes REFERENCE_PROBE_S, about this probe's
fastest time on a 2-core x86-64 host with CPython 3.  A change to the library moves the work and not the
probe, so it shows in full.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.75e-3
#: Probes per estimate of the speed: the median of three back-to-back
#: probes varies about a third as much as one probe does.
PROBES = 3
#: Calls shorter than this run back to back between two speed estimates.
GROUP_S = 0.05


def probe() -> float:
    """Wall seconds of a fixed computation that touches no library code."""
    t0 = time.perf_counter()
    x = 0
    for i in range(6000):
        x += i * i
    s = Fraction(0)
    for k in range(1, 150):
        s += Fraction(x % 1000 + k, k * k)
    return time.perf_counter() - t0


def estimate() -> float:
    """The machine's current probe time: the median of PROBES probes."""
    return statistics.median(probe() for _ in range(PROBES))


def timed_each(calls):
    """Run ``calls`` in order; yield (result, wall s, scaled s) for each.

    Calls run back to back in groups of about GROUP_S seconds, and a
    longer call is a group of its own.  Speed estimates bracket each group,
    and every call in it is scaled by their mean.  A group's results are
    yielded when it ends, so what the caller does with them runs between
    groups, outside the bracket.
    """
    calls = iter(calls)
    while True:
        before = estimate()
        group = []
        start = time.perf_counter()
        for fn in calls:
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
            group.append((result, t1 - t0))
            if t1 - start >= GROUP_S:
                break
        if not group:
            return
        factor = 2 * REFERENCE_PROBE_S / (before + estimate())
        for result, wall in group:
            yield result, wall, wall * factor
        group = result = None  # free the results before the next group runs
