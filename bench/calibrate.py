"""A fixed slice of reference work that measures the host's current speed.

On a shared host the speed available to one process drifts by a third and
more within seconds, as neighbours come and go, and process CPU time drifts
with wall time.  The benchmark therefore runs this slice before and after
every rep and scales the rep's timings by ``REF_SECONDS`` over the slice's
mean time: a timing then reads as seconds at the speed at which the slice
takes ``REF_SECONDS``.  The slice uses none of the program's code, so a
change to the program moves the scaled timings just as it moves the wall
times.  Its work is a mix of what symns spends its time on: a pure-Python
recurrence (the Thomas solve), many numpy calls on short arrays (the
operators at small n) and float formatting (the snapshot writer).
"""

from __future__ import annotations

import time

import numpy as np

# Nominal wall seconds of one slice; ITERATIONS is sized so that the slice
# takes about this long on a 2-vCPU x86-64 cloud VM.
REF_SECONDS = 0.2
ITERATIONS = 90

_N = 2048
_SUB = [1.0] * _N
_DIAG = [4.0 + 0.1 * (i % 7) for i in range(_N)]
_SUP = [1.0] * _N
_RHS = [float(i % 11) for i in range(_N)]
_X = np.linspace(1.0, 2.0, 64)
_FMT = np.linspace(0.0, 1.0, 512).tolist()


def _recurrence() -> float:
    a, b, c, d = _SUB, _DIAG, _SUP, _RHS
    cp = [0.0] * _N
    xp = [0.0] * _N
    cp[0] = c[0] / b[0]
    xp[0] = d[0] / b[0]
    for i in range(1, _N):
        denom = b[i] - a[i] * cp[i - 1]
        cp[i] = c[i] / denom
        xp[i] = (d[i] - a[i] * xp[i - 1]) / denom
    for i in range(_N - 2, -1, -1):
        xp[i] -= cp[i] * xp[i + 1]
    return xp[0]


def _small_arrays() -> float:
    total = 0.0
    for _ in range(100):
        y = np.sqrt(_X * _X + 1.0)
        z = np.diff(y) / (_X[1:] - _X[:-1])
        total += float(np.sum(np.maximum(z, 0.0)))
    return total


def _formatting() -> int:
    return len(",".join("%.17g" % v for v in _FMT))


def slice_s() -> float:
    """Wall seconds taken by one slice of reference work."""
    t0 = time.perf_counter()
    for _ in range(ITERATIONS):
        _recurrence()
        _small_arrays()
        _formatting()
    return time.perf_counter() - t0
