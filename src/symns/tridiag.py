"""Tridiagonal solves for the implicit steps: Thomas recurrence, with
odd-even cyclic reduction in front of it for long systems.  One call
solves one system, or a (k, n) block of k independent systems of n rows.

No pivoting: every system assembled by this package is (weakly) diagonally
dominant by construction, and the per-row check below turns a violated
assumption into a named error instead of a silent loss of accuracy.
Cyclic reduction keeps diagonal dominance at every level (Heller, SIAM J.
Numer. Anal. 13, 1976), so it needs no pivoting either.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailure

__all__ = ["solve_tridiagonal", "tridiagonal_matvec"]

_DOMINANCE_SLACK = 1e-10

# Systems with more rows than this are cyclically reduced before the Thomas
# recurrence runs.  A reduction level's cost is mostly a fixed numpy call
# overhead (~30 us); it removes half the rows from the Python recurrence.
# Timing solve_tridiagonal with one level against the plain recurrence on
# random dominant systems of m rows (medians of 15 interleaved pairs, two
# runs, shared 2-vCPU x86-64, Python 3.11, numpy 2.4) gave time ratios 1.17
# at m=96, 1.04 at 128, 1.02-1.03 at 144, 0.96-0.98 at 160 and 0.83-0.85 at
# 256: the break-even lies between 144 and 160 rows.
_REDUCE_ABOVE = 150


def solve_tridiagonal(sub, diag, sup, rhs, context: str = "tridiagonal solve",
                      names=None):
    """Solve the system with sub/main/super diagonals (sub[0], sup[-1] ignored).

    Raises :class:`SolverFailure` naming the first non-diagonally-dominant
    row (tiny slack allowed for the weak-equality rows of vacuum cells).
    Inputs are coerced to float64.

    (k, n) arrays hold k independent systems, row j being system j, and
    give a (k, n) solution: one dominance check covers the block, then each
    system runs the one-system code.  A failure names its system by
    ``names[j]`` in front of ``context`` (by its index when ``names`` is
    not given), and its ``cell`` is the row within that system.
    """
    sub = np.asarray(sub, dtype=float)
    diag = np.asarray(diag, dtype=float)
    sup = np.asarray(sup, dtype=float)
    if diag.ndim == 2:
        return _solve_block(sub, diag, sup, rhs, context, names)

    off = np.abs(sub) + np.abs(sup)
    off[0] = abs(sup[0])
    off[-1] = abs(sub[-1])
    abs_diag = np.abs(diag)
    scale = abs_diag + off
    bad = (abs_diag == 0.0) | (off - abs_diag > _DOMINANCE_SLACK * scale)
    if bad.any():
        i = int(np.argmax(bad))
        raise _not_dominant(context, i, diag[i], off[i])

    rhs = np.asarray(rhs, dtype=float)
    if len(diag) > _REDUCE_ABOVE:
        return _cyclic_reduction(sub, diag, sup, rhs, context)
    # plain-python floats: several times faster than numpy scalar indexing
    return np.asarray(_thomas(sub.tolist(), diag.tolist(), sup.tolist(),
                              rhs.tolist(), context))


def _solve_block(sub, diag, sup, rhs, context, names):
    """solve_tridiagonal for (k, n) arrays of k systems."""
    k, n = diag.shape
    contexts = [f"{names[j]} {context}" if names else f"{context}, system {j}"
                for j in range(k)]
    off = np.abs(sub) + np.abs(sup)
    off[:, 0] = np.abs(sup[:, 0])
    off[:, -1] = np.abs(sub[:, -1])
    abs_diag = np.abs(diag)
    scale = abs_diag + off
    bad = (abs_diag == 0.0) | (off - abs_diag > _DOMINANCE_SLACK * scale)
    if bad.any():
        j, i = divmod(int(np.argmax(bad)), n)
        raise _not_dominant(contexts[j], i, diag[j, i], off[j, i])

    rhs = np.asarray(rhs, dtype=float)
    if n > _REDUCE_ABOVE:
        return np.array([_cyclic_reduction(*system) for system
                         in zip(sub, diag, sup, rhs, contexts)])
    return np.array([_thomas(*system) for system
                     in zip(sub.tolist(), diag.tolist(), sup.tolist(),
                            rhs.tolist(), contexts)])


def _not_dominant(context, row, diag, off):
    return SolverFailure(
        f"{context}: row {row} not diagonally dominant "
        f"(|diag|={abs(diag):.6g}, |sub|+|sup|={off:.6g})", cell=row)


def _breakdown(context, row):
    return SolverFailure(f"{context}: elimination breakdown at row {row}",
                         cell=row)


def _thomas(a, b, c, d, context, stride=1):
    """Thomas recurrence on lists; row i is original row i*stride."""
    n = len(b)
    cp = [0.0] * n
    xp = [0.0] * n
    cp[0] = c[0] / b[0]
    xp[0] = d[0] / b[0]
    for i in range(1, n):
        denom = b[i] - a[i] * cp[i - 1]
        if denom == 0.0:
            raise _breakdown(context, i * stride)
        cp[i] = c[i] / denom
        xp[i] = (d[i] - a[i] * xp[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        xp[i] -= cp[i] * xp[i + 1]
    return xp


def _cyclic_reduction(a, b, c, d, context):
    """Odd-even reduction down to _REDUCE_ABOVE rows, Thomas, back-substitute.

    Each level eliminates the odd rows, whose diagonals are the pivots, from
    the even rows; the even rows form the next level.  Row j of level L is
    original row j * 2**L.  a[0] and c[-1] are never read.
    """
    levels = []
    stride = 1
    while len(b) > _REDUCE_ABOVE:
        m = len(b)
        n_odd = m // 2
        k = (m - 1) // 2          # even rows that have an odd row on the left
        bo = b[1::2]
        if np.count_nonzero(bo) < n_odd:
            raise _breakdown(context,
                             (2 * int(np.argmin(bo != 0.0)) + 1) * stride)
        ao, co, do = a[1::2], c[1::2], d[1::2]
        # multipliers that eliminate the odd neighbours from each even row
        left = -a[2::2] / bo[:k]
        right = -c[0:2 * n_odd:2] / bo
        b_new = b[0::2].copy()
        b_new[1:] += left * co[:k]
        b_new[:n_odd] += right * ao
        d_new = d[0::2].copy()
        d_new[1:] += left * do[:k]
        d_new[:n_odd] += right * do
        a_new = np.zeros(m - n_odd)
        a_new[1:] = left * ao[:k]
        c_new = np.zeros(m - n_odd)
        c_new[:k] = right[:k] * co[:k]
        levels.append((ao, bo, co, do, k))
        a, b, c, d = a_new, b_new, c_new, d_new
        stride *= 2

    if b[0] == 0.0:   # _thomas leaves its first pivot to the caller
        raise _breakdown(context, 0)
    x = np.asarray(_thomas(a.tolist(), b.tolist(), c.tolist(), d.tolist(),
                           context, stride))
    for ao, bo, co, do, k in reversed(levels):
        x_odd = do - ao * x[:len(bo)]
        x_odd[:k] -= co[:k] * x[1:]
        x_odd /= bo
        x_up = np.empty(len(x) + len(bo))
        x_up[0::2] = x
        x_up[1::2] = x_odd
        x = x_up
    return x


def tridiagonal_matvec(sub, diag, sup, x):
    """Product of the tridiagonal matrix with x (sub[0], sup[-1] ignored)."""
    x = np.asarray(x)
    out = diag * x
    out[1:] = out[1:] + sub[1:] * x[:-1]
    out[:-1] = out[:-1] + sup[:-1] * x[1:]
    return out
