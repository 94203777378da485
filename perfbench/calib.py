"""Speed probes: how fast the core runs while the timed region runs.

The benchmark shares a few cores of a host with other tenants, and the speed
of a core drifts by tens of percent from second to second and from minute to
minute, so raw wall times of identical work spread too far to compare two
commits.  While a repetition's timed region runs, :class:`SpeedSampler` runs
a small fixed computation, :func:`probe`, every :data:`PERIOD_S` seconds from
a ``SIGALRM`` handler on the same thread and core, and times it.  The mean
probe time is the core's slowness over the region, sampled uniformly in time.
:func:`normalized` scales the region's own time (its wall time less the
probes) to the probe's nominal speed.  A change to privtest moves the region
but not the probes, which use no privtest code.

The probe mixes the kinds of work privtest does: interpreted Python (dicts,
calls, float arithmetic), numpy calls on tiny arrays, where call overhead
dominates, and an elementwise ``log``/``exp`` pass over a 256 KiB array.
Signals are handled between bytecodes, so a long numpy call delays a probe;
the speed is then sampled less densely, not wrongly.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.025
# Seconds one probe() takes on an idle core of the baseline machine (see
# BASELINE.md); only the scale of the normalized metric depends on it.
PROBE_NOMINAL_S = 0.0008

_SMALL = np.linspace(0.01, 1.0, 34)
_LARGE = np.linspace(0.01, 1.0, 32 * 1024).reshape(32, 1024)


def probe() -> float:
    """Run the fixed probe work once; return its wall seconds."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(1000):
        key = i % 97
        table[key] = table.get(key, 0.0) + (i * 0.5) ** 0.5
        acc += table[key] / (key + 1)
    for _ in range(75):
        b = np.log(_SMALL) * _SMALL
        acc += float(np.exp(-b).sum())
    acc += float(np.exp(-np.log(_LARGE) * _LARGE).sum(axis=1).max())
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager that probes every PERIOD_S seconds while it is open."""

    def __init__(self):
        self.probes: list[float] = []

    def _on_alarm(self, signum, frame):
        self.probes.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def normalized(wall_s: float, probes: list[float]) -> float:
    """The region's time in ``wall_s``, less ``probes``, at the probe's nominal speed."""
    if not probes:
        raise ValueError("no speed probe ran in the timed region")
    total = math.fsum(probes)
    return (wall_s - total) * PROBE_NOMINAL_S * len(probes) / total
