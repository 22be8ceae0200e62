import warnings

import numpy as np
import pytest

from symns import tridiag
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


# --- the LAPACK solve, its Thomas fallback and longer systems -------------

@pytest.fixture
def thomas(monkeypatch):
    """Run solve_tridiagonal on the Thomas fallback, as where numpy ships
    no dgtsv."""
    monkeypatch.setattr(tridiag, "_dgtsv", None)


def test_numpy_openblas_dgtsv_is_bound():
    # numpy's wheel names its LAPACK scipy-openblas; a renamed library or
    # symbol would otherwise drop every solve onto the Python fallback
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if lapack["name"] != "scipy-openblas":
        pytest.skip(f"numpy built against {lapack['name']}")
    assert tridiag._dgtsv is not None


def _solve_both(monkeypatch, *system):
    """The solution of system by dgtsv and by the Thomas fallback."""
    x = solve_tridiagonal(*system)
    with monkeypatch.context() as patch:
        patch.setattr(tridiag, "_dgtsv", None)
        return x, solve_tridiagonal(*system)


@pytest.mark.parametrize("n", [8, 64, 150, 1000, 4097])
def test_solve_agrees_with_thomas_fallback(rng, monkeypatch, n):
    sub, diag, sup = _random_dominant(rng, n)
    rhs = rng.standard_normal(n)
    x, ref = _solve_both(monkeypatch, sub, diag, sup, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_thomas_fallback_is_the_textbook_recurrence(rng, thomas):
    n = 64
    sub, diag, sup = _random_dominant(rng, n)
    rhs = rng.standard_normal(n)
    cp = [0.0] * n
    xp = [0.0] * n
    cp[0] = sup[0] / diag[0]
    xp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - sub[i] * cp[i - 1]
        cp[i] = sup[i] / denom
        xp[i] = (rhs[i] - sub[i] * xp[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        xp[i] -= cp[i] * xp[i + 1]
    x = solve_tridiagonal(sub, diag, sup, rhs)
    assert x.tobytes() == np.array(xp).tobytes()


@pytest.mark.parametrize("n", [151, 1000, 1023, 1024, 1025, 4097])
def test_long_solve_accuracy(rng, n):
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


def test_long_zero_rhs_gives_bitwise_zero(rng):
    n = 1025
    sub, diag, sup = _random_dominant(rng, n)
    x = solve_tridiagonal(sub, diag, sup, np.zeros(n))
    assert x.shape == (n,)
    assert not x.any()


def test_identity_rows_return_rhs_to_rounding(rng):
    # momentum vacuum cells: a = c = 0, b = 1, d = the explicit value.  Next
    # to a row that pivots, dgtsv carries an identity row through one
    # interchange, so it is exact only to rounding
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
    r = tridiagonal_matvec(sub, diag, sup, x) - rhs
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(r)) < 1e-12 * scale
    assert np.max(np.abs(x[vac] - rhs[vac])) <= 1e-14 * scale


def test_weakly_dominant_vacuum_chain(rng):
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


def test_long_dominance_violation_names_cell(rng):
    n = 1024
    sub, diag, sup = _random_dominant(rng, n)
    diag[777] = 0.1 * (abs(sub[777]) + abs(sup[777]))
    with pytest.raises(SolverFailure) as err:
        solve_tridiagonal(sub, diag, sup, np.ones(n))
    assert err.value.cell == 777


def _singular_pair(sub, diag, sup, row):
    """Rows (row, row+1) become the singular block [[1, -1], [-1, 1]]: each
    row passes the weak dominance check, and elimination turns row + 1 into
    a zero row."""
    sub[row], diag[row], sup[row] = 0.0, 1.0, -1.0
    sub[row + 1], diag[row + 1], sup[row + 1] = -1.0, 1.0, 0.0


@pytest.mark.parametrize("row", [0, 2, 6, 12, 40, 992, 998])
def test_breakdown_names_zero_pivot_row(rng, row):
    # partial pivoting swaps the zero row below each row that couples to it,
    # so the zero pivot is met on the last row of the coupled run: here the
    # system's last row, and the row before `cut` once row `cut` no longer
    # couples to its left neighbour
    n = 1000
    cut = row + 2 + (n - row - 2) // 2
    cases = [(n, n - 1)] + ([(cut, cut - 1)] if cut < n else [])
    for cut, cell in cases:
        sub, diag, sup = _random_dominant(rng, n)
        _singular_pair(sub, diag, sup, row)
        sub[cut:cut + 1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure) as err:
                solve_tridiagonal(sub, diag, sup, np.ones(n))
        assert err.value.cell == cell
        assert f"elimination breakdown at row {cell}" in str(err.value)


NAMES = ("radial", "angular", "axial")


def _random_block(rng, k, n):
    """(sub, diag, sup) of k random dominant systems as (k, n) arrays."""
    systems = [_random_dominant(rng, n) for _ in range(k)]
    return [np.stack(diagonal) for diagonal in zip(*systems)]


@pytest.mark.parametrize("n", [64, 256])
def test_block_solve_is_bitwise_the_one_system_solves(rng, n):
    # dgtsv never swaps rows across the zeroed couplings of the packed block
    sub, diag, sup = _random_block(rng, 3, n)
    rhs = rng.standard_normal((3, n))
    x = solve_tridiagonal(sub, diag, sup, rhs)
    assert x.shape == (3, n)
    for j in range(3):
        one = solve_tridiagonal(sub[j], diag[j], sup[j], rhs[j])
        assert x[j].tobytes() == one.tobytes()


def test_block_with_zero_rhs_system_gives_exact_zeros(rng):
    # the zero-swirl guarantee: the axial system of an m = 1 step has a zero
    # right-hand side, and the packed solve must not leak its neighbours'
    # values into it
    n = 256
    sub, diag, sup = _random_block(rng, 3, n)
    rhs = rng.standard_normal((3, n))
    rhs[2] = 0.0
    x = solve_tridiagonal(sub, diag, sup, rhs)
    assert x[:2].all()
    assert not x[2].any()


@pytest.mark.parametrize("k", [None, 3])
def test_solution_owns_its_memory(rng, monkeypatch, k):
    # a view of the solve's work buffer would keep all four of its rows
    # alive for as long as the solution is kept
    if k is None:
        system = *_random_dominant(rng, 64), rng.standard_normal(64)
    else:
        system = *_random_block(rng, k, 64), rng.standard_normal((k, 64))
    for x in _solve_both(monkeypatch, *system):
        assert x.base is None and x.shape == system[-1].shape
        assert x.flags.owndata and x.flags.writeable


@pytest.mark.parametrize("n", [64, 1000])
def test_thomas_fallback_solves_blocks(rng, monkeypatch, n):
    sub, diag, sup = _random_block(rng, 3, n)
    rhs = rng.standard_normal((3, n))
    x, ref = _solve_both(monkeypatch, sub, diag, sup, rhs, "momentum solve",
                         NAMES)
    assert x.shape == ref.shape == (3, n)
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


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


@pytest.mark.parametrize("n, row, cell", [(64, 20, 63), (1000, 40, 999),
                                          (1000, 998, 999)])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_block_breakdown_names_system_and_row(rng, n, row, cell, j):
    # the singular pair of test_breakdown_names_zero_pivot_row, in system j
    # only: the zero pivot is met on that system's last row, and neither
    # the failure nor its row leaks into the neighbouring systems
    sub, diag, sup = _random_block(rng, 3, n)
    _singular_pair(sub[j], diag[j], sup[j], row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailure) as err:
            solve_tridiagonal(sub, diag, sup, np.ones((3, n)),
                              context="momentum solve", names=NAMES)
    assert err.value.cell == cell
    assert str(err.value) == (f"{NAMES[j]} momentum solve: elimination "
                              f"breakdown at row {cell}")


def test_thomas_fallback_names_system_and_row(rng, thomas):
    # without pivoting the zero pivot is met right on the pair's second row
    sub, diag, sup = _random_block(rng, 3, 64)
    _singular_pair(sub[1], diag[1], sup[1], 20)
    with pytest.raises(SolverFailure, match=r"^angular momentum solve: "
                       r"elimination breakdown at row 21$") as err:
        solve_tridiagonal(sub, diag, sup, np.ones((3, 64)),
                          context="momentum solve", names=NAMES)
    assert err.value.cell == 21
