"""Tridiagonal solves for the implicit steps: LAPACK ``dgtsv`` (Gaussian
elimination with partial pivoting) from the OpenBLAS that numpy's wheel
already loads, bound through ctypes.  One call solves one system, or a
(k, n) block of k independent systems of n rows, packed as one k*n-row
system whose couplings between systems are zero: ``dgtsv`` never swaps
across a zero coupling, so each system is solved as if alone.  The
solution is copied out of the solve's (4, ...) work buffer, so that a
state holding it keeps only its own rows alive.

Every system assembled by this package is (weakly) diagonally dominant by
construction.  The per-row check below is an assembly check: it turns a
violated assumption into a named error instead of a solve of the wrong
system.  Where numpy ships no ``scipy_dgtsv_64_`` (a numpy built against
another LAPACK), the pure-Python Thomas recurrence, which does not pivot,
solves the packed system instead.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from .errors import SolverFailure

__all__ = ["solve_tridiagonal", "tridiagonal_matvec"]

_DOMINANCE_SLACK = 1e-10


def _bind_dgtsv():
    """numpy's own ``dgtsv`` (64-bit integers), or None where it has none."""
    # numpy.libs in numpy's Linux and Windows wheels, .dylibs in macOS ones
    numpy_dir = Path(np.__file__).parent
    for lib in sorted([*numpy_dir.parent.glob("numpy.libs/libscipy_openblas*"),
                       *numpy_dir.glob(".dylibs/libscipy_openblas*")]):
        try:
            dgtsv = ctypes.CDLL(str(lib)).scipy_dgtsv_64_
        except (OSError, AttributeError):
            continue
        dgtsv.argtypes = [ctypes.c_void_p] * 8
        dgtsv.restype = None
        return dgtsv
    return None


_dgtsv = _bind_dgtsv()


def solve_tridiagonal(sub, diag, sup, rhs, context: str = "tridiagonal solve",
                      names=None):
    """Solve the system with sub/main/super diagonals (sub[0], sup[-1] ignored).

    Raises :class:`SolverFailure` naming the first non-diagonally-dominant
    row (tiny slack allowed for the weak-equality rows of vacuum cells), or
    the row at which elimination met an exactly zero pivot.  That row is
    where the pivoting elimination found the singularity, which may lie
    below the rows that cause it.  Inputs are coerced to float64.

    The solution is a new array that owns its memory.  (k, n) arrays hold
    k independent systems, row j being system j, and give a (k, n)
    solution from one packed solve.  A failure names its system by
    ``names[j]`` in front of ``context`` (by its index when ``names`` is
    not given), and its ``cell`` is the row within that system.
    """
    shape = np.shape(diag)
    # rows sub, diag, sup, rhs of one buffer, which the solve overwrites
    work = np.empty((4,) + shape)
    work[0], work[1], work[2], work[3] = sub, diag, sup, rhs
    a, b, c, x = work
    a[..., 0] = 0.0     # zero couplings decouple the systems of a block
    c[..., -1] = 0.0

    off = np.abs(a) + np.abs(c)
    abs_diag = np.abs(b)
    bad = (abs_diag == 0.0) | (off - abs_diag > _DOMINANCE_SLACK
                               * (abs_diag + off))
    if bad.any():
        row = int(np.argmax(bad))
        where, i = _system_row(context, names, shape, row)
        raise SolverFailure(
            f"{where}: row {i} not diagonally dominant "
            f"(|diag|={abs_diag.flat[row]:.6g}, "
            f"|sub|+|sup|={off.flat[row]:.6g})", cell=i)

    info = _thomas(work) if _dgtsv is None else _dgtsv_solve(work)
    if info:
        where, i = _system_row(context, names, shape, info - 1)
        raise SolverFailure(f"{where}: elimination breakdown at row {i}",
                            cell=i)
    # a copy owns its memory, where x would keep all of work alive
    return x.copy()


def _system_row(context, names, shape, row):
    """The context naming the system of packed row ``row``, and the row
    within that system."""
    j, i = divmod(row, shape[-1])
    if len(shape) == 2:
        context = (f"{names[j]} {context}" if names
                   else f"{context}, system {j}")
    return context, i


def _dgtsv_solve(work):
    """``dgtsv`` on the packed rows of work: the solution overwrites
    work[3]; returns LAPACK's info (i > 0: zero pivot at packed row i-1)."""
    n = ctypes.c_int64(work[0].size)
    one, info = ctypes.c_int64(1), ctypes.c_int64(0)
    p = work.ctypes.data
    step = work[0].nbytes
    _dgtsv(ctypes.byref(n), ctypes.byref(one), p + work.itemsize, p + step,
           p + 2 * step, p + 3 * step, ctypes.byref(n), ctypes.byref(info))
    return info.value


def _thomas(work):
    """Thomas recurrence with :func:`_dgtsv_solve`'s contract, on lists:
    plain-python floats are several times faster than numpy scalars."""
    a, b, c, d = (row.ravel().tolist() for row in work)
    n = len(b)
    cp = [0.0] * n
    xp = [0.0] * n
    cp[0] = c[0] / b[0]
    xp[0] = d[0] / b[0]
    for i in range(1, n):
        denom = b[i] - a[i] * cp[i - 1]
        if denom == 0.0:
            return i + 1
        cp[i] = c[i] / denom
        xp[i] = (d[i] - a[i] * xp[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        xp[i] -= cp[i] * xp[i + 1]
    work[3].flat = xp
    return 0


def tridiagonal_matvec(sub, diag, sup, x):
    """Product of the tridiagonal matrix with x (sub[0], sup[-1] ignored)."""
    x = np.asarray(x)
    out = diag * x
    out[1:] = out[1:] + sub[1:] * x[:-1]
    out[:-1] = out[:-1] + sup[:-1] * x[1:]
    return out
