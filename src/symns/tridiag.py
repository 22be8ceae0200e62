"""Thomas recurrence for the tridiagonal systems of the implicit solves.

No pivoting: every system assembled by this package is (weakly) diagonally
dominant by construction, and the per-row check below turns a violated
assumption into a named error instead of a silent loss of accuracy.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailure

__all__ = ["solve_tridiagonal", "tridiagonal_matvec"]

_DOMINANCE_SLACK = 1e-10


def solve_tridiagonal(sub, diag, sup, rhs, context: str = "tridiagonal solve"):
    """Solve the system with sub/main/super diagonals (sub[0], sup[-1] ignored).

    Raises :class:`SolverFailure` naming the first non-diagonally-dominant
    row (tiny slack allowed for the weak-equality rows of vacuum cells).
    Inputs are coerced to float64.
    """
    sub = np.asarray(sub, dtype=float)
    diag = np.asarray(diag, dtype=float)
    sup = np.asarray(sup, dtype=float)

    off = np.abs(sub) + np.abs(sup)
    off[0] = abs(sup[0])
    off[-1] = abs(sub[-1])
    scale = np.abs(diag) + off
    bad = (np.abs(diag) == 0.0) | (off - np.abs(diag) > _DOMINANCE_SLACK * scale)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SolverFailure(
            f"{context}: row {i} not diagonally dominant "
            f"(|diag|={abs(diag[i]):.6g}, |sub|+|sup|={off[i]:.6g})",
            cell=i)

    # plain-python floats: several times faster than numpy scalar indexing
    a = sub.tolist()
    b = diag.tolist()
    c = sup.tolist()
    d = np.asarray(rhs, dtype=float).tolist()
    n = len(b)
    cp = [0.0] * n
    xp = [0.0] * n
    cp[0] = c[0] / b[0]
    xp[0] = d[0] / b[0]
    for i in range(1, n):
        denom = b[i] - a[i] * cp[i - 1]
        if denom == 0.0:
            raise SolverFailure(f"{context}: elimination breakdown at row {i}",
                                cell=i)
        cp[i] = c[i] / denom
        xp[i] = (d[i] - a[i] * xp[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        xp[i] -= cp[i] * xp[i + 1]
    return np.asarray(xp)


def tridiagonal_matvec(sub, diag, sup, x):
    """Product of the tridiagonal matrix with x (sub[0], sup[-1] ignored)."""
    x = np.asarray(x)
    out = diag * x
    out[1:] = out[1:] + sub[1:] * x[:-1]
    out[:-1] = out[:-1] + sup[:-1] * x[1:]
    return out
