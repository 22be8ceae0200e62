import numpy as np
import pytest

from symns.errors import SolverFailure
from symns.tridiag import solve_tridiagonal, tridiagonal_matvec


def _random_dominant(rng, n):
    sub = rng.standard_normal(n)
    sup = rng.standard_normal(n)
    sub[0] = 0.0
    sup[-1] = 0.0
    diag = np.abs(sub) + np.abs(sup) + 1.0 + rng.random(n)
    return sub, diag, sup


def test_matches_dense_solve(rng):
    n = 40
    sub, diag, sup = _random_dominant(rng, n)
    rhs = rng.standard_normal(n)
    x = solve_tridiagonal(sub, diag, sup, rhs)
    A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    xd = np.linalg.solve(A, rhs)
    assert np.max(np.abs(x - xd)) < 1e-12 * np.max(np.abs(xd) + 1)


def test_matvec_roundtrip(rng):
    n = 25
    sub, diag, sup = _random_dominant(rng, n)
    rhs = rng.standard_normal(n)
    x = solve_tridiagonal(sub, diag, sup, rhs)
    r = tridiagonal_matvec(sub, diag, sup, x) - rhs
    assert np.max(np.abs(r)) < 1e-12 * np.max(np.abs(rhs))


def test_zero_rhs_gives_bitwise_zero(rng):
    n = 30
    sub, diag, sup = _random_dominant(rng, n)
    x = solve_tridiagonal(sub, diag, sup, np.zeros(n))
    assert not x.any()


def test_dominance_violation_names_cell(rng):
    n = 12
    sub, diag, sup = _random_dominant(rng, n)
    diag[7] = 0.1 * (abs(sub[7]) + abs(sup[7]))
    with pytest.raises(SolverFailure) as err:
        solve_tridiagonal(sub, diag, sup, np.ones(n))
    assert err.value.cell == 7


def test_zero_row_rejected():
    n = 8
    sub = np.zeros(n)
    sup = np.zeros(n)
    diag = np.ones(n)
    diag[3] = 0.0
    with pytest.raises(SolverFailure):
        solve_tridiagonal(sub, diag, sup, np.ones(n))


def test_weak_dominance_allowed():
    # vacuum-style rows: |diag| == |sub| + |sup| exactly
    n = 10
    sub = np.full(n, -1.0)
    sup = np.full(n, -1.0)
    sub[0] = 0.0
    sup[-1] = 0.0
    diag = np.full(n, 2.0)
    diag[0] = 2.0  # first row strictly dominant anchors the recurrence
    rhs = np.zeros(n)
    rhs[0] = 1.0
    x = solve_tridiagonal(sub, diag, sup, rhs)
    A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    assert np.max(np.abs(A @ x - rhs)) < 1e-12
