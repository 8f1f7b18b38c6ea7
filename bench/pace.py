"""Machine pace: how fast this core runs right now, from a fixed kernel.

On a shared virtual machine the speed of one core drifts by up to 2x for
tens of seconds at a time, with no steal time reported, so raw wall times of
identical work spread far more than any useful regression bound.  Most of
the drift shows up in a small fixed kernel of the same kind of work (Python
calls into small numpy FFTs, the shape of svcl's hot loop).  The kernel is
timed between units, never inside one, so nothing the measured program does
to its own process (caches, allocation, threads) is divided out: a unit's
paced time is its wall time divided by the mean of the slowdowns measured
just before and just after it.  A unit during which the pace changes gets
a wrong paced time; the median over a run's units discards those.  What
pacing cannot remove: at the same kernel pace, medians of whole 24 s runs
of the m=16 workloads still differed by up to about 9% between host
states, and no other fixed kernel tried (pure Python, numpy ufunc calls, a
memory copy, or blends of them) tracked them better.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 1.0e-3  # kernel time that defines the reference pace
# Setup (file reads, unmarshalling, loading numpy) follows only part of the
# drift: over 100 setups on a 2-core VM, log setup time against log kernel
# time had slope 0.34.  Dividing by slowdown ** 0.34 cut the spread of
# five-setup medians from 0.19 to about 0.08; dividing by the full slowdown
# widened it to 0.25.
SETUP_EXPONENT = 0.34

_X = np.linspace(0.0, 1.0, 32)


def kernel() -> float:
    """Fixed work: 50 round trips through a 32-point real FFT."""
    x, acc = _X, 0.0
    for i in range(50):
        z = np.fft.irfft(np.fft.rfft(x), 32)
        acc += float(np.dot(z, z)) * 0.5 + i
        x = 0.999 * x + 1e-3
    return acc


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def slowdown_now(calls: int = 21) -> float:
    """Median time of back-to-back kernel calls over NOMINAL_S; the median
    ignores a call that was itself preempted."""
    return statistics.median(_timed_kernel() for _ in range(calls)) / NOMINAL_S


def warm_up() -> None:
    """Let numpy build its FFT plans before anything is timed."""
    for _ in range(20):
        kernel()
