import warnings

import numpy as np
import pytest

from symns.errors import SolverFailure
from symns.tridiag import _REDUCE_ABOVE, solve_tridiagonal, tridiagonal_matvec


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


# --- systems longer than _REDUCE_ABOVE go through cyclic reduction ---------

def _thomas_reference(sub, diag, sup, rhs):
    """Textbook Thomas loop, the arithmetic of the short-system path."""
    n = len(diag)
    cp = [0.0] * n
    xp = [0.0] * n
    cp[0] = float(sup[0]) / float(diag[0])
    xp[0] = float(rhs[0]) / float(diag[0])
    for i in range(1, n):
        denom = float(diag[i]) - float(sub[i]) * cp[i - 1]
        cp[i] = float(sup[i]) / denom
        xp[i] = (float(rhs[i]) - float(sub[i]) * xp[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        xp[i] -= cp[i] * xp[i + 1]
    return np.array(xp)


@pytest.mark.parametrize("n", [8, 64, _REDUCE_ABOVE])
def test_short_systems_bitwise_equal_thomas(rng, n):
    sub, diag, sup = _random_dominant(rng, n)
    rhs = rng.standard_normal(n)
    x = solve_tridiagonal(sub, diag, sup, rhs)
    assert np.array_equal(x, _thomas_reference(sub, diag, sup, rhs))


@pytest.mark.parametrize("n", [_REDUCE_ABOVE + 1, 1000, 1023, 1024, 1025,
                               4097])
def test_reduced_solve_accuracy(rng, n):
    sub, diag, sup = _random_dominant(rng, n)
    sub[0] = 7.0     # ignored entries must stay ignored
    sup[-1] = -9.0
    rhs = rng.standard_normal(n)
    x = solve_tridiagonal(sub, diag, sup, rhs)
    sub[0] = 0.0
    sup[-1] = 0.0
    r = tridiagonal_matvec(sub, diag, sup, x) - rhs
    assert np.max(np.abs(r)) < 1e-12 * np.max(np.abs(rhs))
    if n <= 1025:
        A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        xd = np.linalg.solve(A, rhs)
        assert np.max(np.abs(x - xd)) < 1e-12 * np.max(np.abs(xd) + 1)


def test_reduced_zero_rhs_gives_bitwise_zero(rng):
    n = 1025
    sub, diag, sup = _random_dominant(rng, n)
    x = solve_tridiagonal(sub, diag, sup, np.zeros(n))
    assert x.shape == (n,)
    assert not x.any()


def test_reduced_identity_rows_return_rhs_exactly(rng):
    # momentum vacuum cells: a = c = 0, b = 1, d = the explicit value
    n = 1000
    sub, diag, sup = _random_dominant(rng, n)
    vac = np.zeros(n, dtype=bool)
    vac[::7] = True
    vac[400:520] = True
    vac[-3:] = True
    sub[vac] = 0.0
    sup[vac] = 0.0
    diag[vac] = 1.0
    rhs = rng.standard_normal(n)
    x = solve_tridiagonal(sub, diag, sup, rhs)
    assert np.array_equal(x[vac], rhs[vac])
    r = tridiagonal_matvec(sub, diag, sup, x) - rhs
    assert np.max(np.abs(r)) < 1e-12 * np.max(np.abs(rhs))


def test_reduced_weakly_dominant_vacuum_chain(rng):
    # temperature vacuum cells: pure conduction rows, |diag| == |sub| + |sup|,
    # between cells whose mass term makes them strictly dominant
    n = 2000
    kf = 1.0 + rng.random(n + 1)          # face conductivities
    kf[0] = kf[-1] = 0.0                  # insulated walls
    sub = -kf[:-1]
    sup = -kf[1:]
    diag = kf[:-1] + kf[1:]
    mass = 0.5 + rng.random(n)
    mass[300:1700] = 0.0
    diag = diag + mass
    rhs = rng.standard_normal(n)
    x = solve_tridiagonal(sub, diag, sup, rhs)
    r = tridiagonal_matvec(sub, diag, sup, x) - rhs
    assert np.max(np.abs(r)) < 1e-12 * np.max(np.abs(diag) * np.abs(x))


def test_reduced_dominance_violation_names_cell(rng):
    n = 1024
    sub, diag, sup = _random_dominant(rng, n)
    diag[777] = 0.1 * (abs(sub[777]) + abs(sup[777]))
    with pytest.raises(SolverFailure) as err:
        solve_tridiagonal(sub, diag, sup, np.ones(n))
    assert err.value.cell == 777


@pytest.mark.parametrize("row", [0, 2, 6, 12, 40, 992, 998])
def test_reduced_breakdown_names_original_row(rng, row):
    # rows (row, row+1) form the singular block [[1, -1], [-1, 1]]: each row
    # passes the weak dominance check, and reduced row `row` becomes all zero
    # after one level.  n = 1000 reduces 1000 -> 500 -> 250 -> 125, so the
    # zero is hit as a level-1 pivot (row = 2 mod 4), a level-2 pivot
    # (row = 4 mod 8) or in the Thomas base case (row = 0 mod 8).
    n = 1000
    sub, diag, sup = _random_dominant(rng, n)
    sub[row], diag[row], sup[row] = 0.0, 1.0, -1.0
    sub[row + 1], diag[row + 1], sup[row + 1] = -1.0, 1.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailure) as err:
            solve_tridiagonal(sub, diag, sup, np.ones(n))
    assert err.value.cell == row
    assert f"elimination breakdown at row {row}" in str(err.value)


NAMES = ("radial", "angular", "axial")


def _random_block(rng, k, n):
    """(sub, diag, sup) of k random dominant systems as (k, n) arrays."""
    systems = [_random_dominant(rng, n) for _ in range(k)]
    return [np.stack(diagonal) for diagonal in zip(*systems)]


@pytest.mark.parametrize("n", [64, 256])
def test_block_solve_is_bitwise_the_one_system_solves(rng, n):
    # n = 64 runs the Thomas recurrence alone, n = 256 reduces first
    assert (n > _REDUCE_ABOVE) == (n == 256)
    sub, diag, sup = _random_block(rng, 3, n)
    rhs = rng.standard_normal((3, n))
    x = solve_tridiagonal(sub, diag, sup, rhs)
    assert x.shape == (3, n)
    for j in range(3):
        one = solve_tridiagonal(sub[j], diag[j], sup[j], rhs[j])
        assert x[j].tobytes() == one.tobytes()


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_block_dominance_violation_names_system_and_row(rng, n, j):
    sub, diag, sup = _random_block(rng, 3, n)
    row = n // 2 + 5
    diag[j, row] = 0.1 * (abs(sub[j, row]) + abs(sup[j, row]))
    with pytest.raises(SolverFailure) as err:
        solve_tridiagonal(sub, diag, sup, np.ones((3, n)),
                          context="momentum solve", names=NAMES)
    assert err.value.cell == row
    assert str(err.value).startswith(
        f"{NAMES[j]} momentum solve: row {row} not diagonally dominant")


def test_block_failure_without_names_gives_the_system_index(rng):
    sub, diag, sup = _random_block(rng, 2, 16)
    diag[1, 3] = 0.0
    with pytest.raises(SolverFailure, match=r"^tridiagonal solve, system 1: "
                                            r"row 3 ") as err:
        solve_tridiagonal(sub, diag, sup, np.ones((2, 16)))
    assert err.value.cell == 3


@pytest.mark.parametrize("n, row, cell", [(64, 20, 21), (1000, 40, 40),
                                          (1000, 998, 998)])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_block_breakdown_names_system_and_row(rng, n, row, cell, j):
    # the singular 2x2 block of test_reduced_breakdown_names_original_row,
    # in system j only: the Thomas recurrence (n = 64) meets the zero pivot
    # on the block's second row, the reduced solve (n = 1000) on its first
    sub, diag, sup = _random_block(rng, 3, n)
    sub[j, row], diag[j, row], sup[j, row] = 0.0, 1.0, -1.0
    sub[j, row + 1], diag[j, row + 1], sup[j, row + 1] = -1.0, 1.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailure) as err:
            solve_tridiagonal(sub, diag, sup, np.ones((3, n)),
                              context="momentum solve", names=NAMES)
    assert err.value.cell == cell
    assert str(err.value) == (f"{NAMES[j]} momentum solve: elimination "
                              f"breakdown at row {cell}")
