from dataclasses import replace

import numpy as np
import pytest

import symns.initdata
from symns.constitutive import GasModel, pressure
from symns.errors import SolverFailure
from symns.grid import make_grid, weighted_integral
from symns.initdata import (compatibility_residuals, load_initial_csv,
                            preset, radial_residual, regularize,
                            solve_initial_velocity, validate_initial)
from symns.operators import ddx, lame_stencil
from symns.state import RHO_VAC_TOL

MODEL = GasModel()


def test_equilibrium_preset():
    g = make_grid(1, 2, 64, 2)
    d = preset("equilibrium", g, rho_bar=1.0, theta_bar=1.0)
    validate_initial(d)
    assert d.grid is g and d.t == 0.0
    assert np.all(d.rho == 1.0)
    assert not d.u.any() and not d.v.any() and not d.w.any()


def test_vacuum_bump_preset():
    g = make_grid(1, 2, 128, 2)
    d = preset("vacuum_bump", g)
    assert d.rho.min() == 0.0
    assert weighted_integral(g, d.rho) > 0.0
    assert np.all(d.theta > 0.0)
    # support strictly inside: vacuum next to both walls
    assert d.rho[0] == 0.0 and d.rho[-1] == 0.0
    # theta has exactly zero discrete slope at the walls (bump gone there)
    assert d.theta[1] - d.theta[0] == 0.0
    assert d.theta[-1] - d.theta[-2] == 0.0


def test_vacuum_bump_support_validation():
    g = make_grid(1, 2, 64, 2)
    with pytest.raises(ValueError):
        preset("vacuum_bump", g, center=1.1, halfwidth=0.5)


def test_swirl_requires_cylindrical():
    g2 = make_grid(1, 2, 64, 2)
    with pytest.raises(ValueError):
        preset("swirl_cylinder", g2)
    g1 = make_grid(1, 2, 64, 1)
    d = preset("swirl_cylinder", g1, swirl=0.3)
    assert d.v.max() > 0.0
    assert not d.u.any() and not d.w.any()


def test_unknown_preset_and_params():
    g = make_grid(1, 2, 64, 2)
    with pytest.raises(ValueError):
        preset("tophat", g)
    with pytest.raises(ValueError):
        preset("equilibrium", g, bogus=1.0)


def test_regularize():
    g = make_grid(1, 2, 64, 2)
    d = preset("vacuum_bump", g)
    with pytest.raises(ValueError):
        regularize(d, 0.0)
    d1 = regularize(d, 1e-3)
    assert d1.rho.min() == pytest.approx(1e-3)
    # additivity
    d2 = regularize(regularize(d, 2e-4), 3e-4)
    d_once = regularize(d, 5e-4)
    assert np.allclose(d2.rho, d_once.rho, rtol=0, atol=1e-18)
    # exact mass increase eps * total weight
    dm = weighted_integral(g, d1.rho) - weighted_integral(g, d.rho)
    assert dm == pytest.approx(1e-3 * g.total_weight, rel=1e-12)


def test_solve_initial_velocity_zero_data():
    g = make_grid(1, 2, 64, 2)
    rho = np.ones(64)
    theta = np.ones(64)
    u = solve_initial_velocity(MODEL, rho, theta, np.zeros(64), g)
    assert not u.any()


def test_solve_initial_velocity_requires_positive_rho():
    g = make_grid(1, 2, 64, 2)
    rho = np.ones(64)
    rho[3] = 0.0
    with pytest.raises(ValueError):
        solve_initial_velocity(MODEL, rho, np.ones(64), np.zeros(64), g)


def test_solve_initial_velocity_residual_check_is_solver_failure(
        monkeypatch):
    # a solve that returns a wrong answer trips the 1e-10 residual check
    monkeypatch.setattr(symns.initdata, "solve_tridiagonal",
                        lambda a, b, c, d, context: np.ones(len(b)))
    g = make_grid(1, 2, 64, 2)
    with pytest.raises(SolverFailure,
                       match="initial velocity solve residual .* exceeds"):
        solve_initial_velocity(MODEL, np.ones(64), np.ones(64),
                               np.zeros(64), g)


def test_solve_initial_velocity_dense_oracle(rng):
    n = 128
    g = make_grid(1, 2, n, 2)
    d = regularize(preset("vacuum_bump", g), 1e-6)
    g1 = np.sin(3.0 * g.centers) + 0.5 * rng.standard_normal(n)
    u = solve_initial_velocity(MODEL, d.rho, d.theta, g1, g)
    sub, diag, sup = lame_stencil(g)
    beta = MODEL.beta
    A = (np.diag(-beta * diag) + np.diag(-beta * sub[1:], -1)
         + np.diag(-beta * sup[:-1], 1))
    P = pressure(MODEL, d.rho, d.theta)
    rhs = ddx(g, P, "neumann0") + np.sqrt(d.rho) * g1
    u_dense = np.linalg.solve(A, -rhs)
    assert np.max(np.abs(u - u_dense)) <= 1e-10


def test_solve_initial_velocity_closed_form_convergence():
    # u*(x) = (x-a)(b-x) vanishes at the walls; feed the analytic
    # beta*L[u*] through g1 (constant pressure contributes nothing)
    a, b, m = 1.0, 2.0, 2
    beta = MODEL.beta
    errs, dxs = [], []
    for n in (64, 128, 256):
        g = make_grid(a, b, n, m)
        x = g.centers
        ustar = (x - a) * (b - x)
        lap = -2.0 + m * (a + b - 2.0 * x) / x - m * ustar / x ** 2
        g1 = beta * lap  # rho = 1, theta = 1: P_x = 0
        u = solve_initial_velocity(MODEL, np.ones(n), np.ones(n), g1, g)
        errs.append(np.max(np.abs(u - ustar)))
        dxs.append(g.dx)
    slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert slope >= 1.8


def test_solve_initial_velocity_superposition(rng):
    g = make_grid(1, 2, 64, 2)
    d = regularize(preset("vacuum_bump", g), 1e-3)
    g1 = rng.standard_normal(64)
    u0 = solve_initial_velocity(MODEL, d.rho, d.theta, np.zeros(64), g)
    u1 = solve_initial_velocity(MODEL, d.rho, d.theta, g1, g)
    u2 = solve_initial_velocity(MODEL, d.rho, d.theta, 2.0 * g1, g)
    # affine in g1: u(2 g1) - u(g1) = u(g1) - u(0)
    lhs = u2 - u1
    rhs = u1 - u0
    scale = np.max(np.abs(u1)) + 1e-30
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * scale


def test_compatibility_residuals_equilibrium():
    g = make_grid(1, 2, 64, 2)
    d = preset("equilibrium", g)
    res = compatibility_residuals(d, MODEL)
    for gi in (res.g1, res.g2, res.g3, res.g4):
        assert np.max(np.abs(gi)) == 0.0
    assert res.vacuum_indices.size == 0


def test_compatibility_vacuum_report_matches_threshold():
    g = make_grid(1, 2, 128, 2)
    d = preset("vacuum_bump", g)
    tol = RHO_VAC_TOL
    # a cell exactly at the tolerance is fluid, as in the stepper
    d.rho[0] = tol
    res = compatibility_residuals(d, MODEL)
    expected = np.nonzero(d.rho < tol)[0]
    assert expected.size and 0 not in expected
    assert np.array_equal(res.vacuum_indices, expected)
    assert res.vacuum_raw.shape == (expected.size, 4)
    assert np.all(np.isnan(res.g1[expected]))
    assert np.all(np.isfinite(res.g1[d.rho >= tol]))


def test_radial_residual_is_compatibility_g1():
    g = make_grid(1, 2, 128, 2)
    s = replace(preset("vacuum_bump", g), u=0.1 * np.sin(g.centers))
    model = GasModel(lam=0.5)
    # a positive density below the threshold is vacuum too
    s.rho[np.flatnonzero(s.rho == 0.0)[::4]] = 0.5 * RHO_VAC_TOL
    res = compatibility_residuals(s, model)
    g1 = radial_residual(s, model)
    assert np.array_equal(g1, res.g1, equal_nan=True)
    assert np.array_equal(np.isnan(g1), s.rho < RHO_VAC_TOL)


def test_swirl_or_axial_velocity_needs_cylindrical_mode():
    for m in (1, 2):
        g = make_grid(1, 2, 16, m)
        for name in ("v", "w"):
            s = replace(preset("equilibrium", g), **{name: np.full(16, 0.1)})
            if m == 1:
                validate_initial(s)
            else:
                with pytest.raises(ValueError, match=f"initial field {name} "
                                                     "must be zero when m = 2"):
                    validate_initial(s)


@pytest.mark.parametrize("name", ["equilibrium", "vacuum_bump",
                                  "manufactured", "swirl_cylinder"])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_g1_roundtrip_all_presets(name, n):
    m = 1 if name == "swirl_cylinder" else 2
    g = make_grid(1, 2, n, m)
    d0 = preset(name, g)
    res0 = compatibility_residuals(d0, MODEL)
    g1 = np.nan_to_num(res0.g1, nan=0.0) + np.sin(2.0 * g.centers)
    d = regularize(d0, 1e-6)
    u = solve_initial_velocity(MODEL, d.rho, d.theta, g1, g)
    d = replace(d, u=u)
    res = compatibility_residuals(d, MODEL)
    mask = d.rho >= 1e-6
    assert np.max(np.abs(res.g1[mask] - g1[mask])) <= 1e-8


def test_initial_csv_roundtrip(tmp_path):
    from symns.io import write_snapshot
    g = make_grid(1, 2, 32, 2)
    d = preset("vacuum_bump", g)
    path = tmp_path / "snap.csv"
    write_snapshot(path, d)
    loaded = load_initial_csv(path, g)
    assert loaded.t == 0.0
    for name in ("rho", "u", "v", "w", "theta"):
        assert np.array_equal(getattr(loaded, name), getattr(d, name))


def test_initial_csv_zero_suffixed_header(tmp_path):
    # only the snapshot header x,rho,u,v,w,theta is accepted
    g = make_grid(1, 2, 8, 2)
    path = tmp_path / "init.csv"
    for header in ("x,rho0,u0,v0,w0,theta0", "x00,rho000,u,v,w,theta"):
        rows = [header]
        for i in range(8):
            rows.append("%.17g,1.0,0.0,0.0,0.0,1.0" % g.centers[i])
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="expected columns x,rho,u,v,w,"
                                             f"theta, got {header}$"):
            load_initial_csv(path, g)


def test_initial_csv_rejects_mismatched_grid(tmp_path):
    g = make_grid(1, 2, 8, 2)
    path = tmp_path / "init.csv"
    rows = ["x,rho,u,v,w,theta"]
    for i in range(8):
        rows.append("%.17g,1.0,0.0,0.0,0.0,1.0" % (g.centers[i] + 1e-9))
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="centers"):
        load_initial_csv(path, g)


def test_initial_csv_rejects_bad_header(tmp_path):
    g = make_grid(1, 2, 8, 2)
    path = tmp_path / "init.csv"
    path.write_text("x,density,u,v,w,theta\n" + "1,1,0,0,0,1\n" * 8)
    with pytest.raises(ValueError, match="columns"):
        load_initial_csv(path, g)


@pytest.mark.parametrize("body", [
    "1,1,0,0,0,1\n" * 7 + "1,1,0\n",
    "1,1,0,0,0,1\n" * 7 + "1,one,0,0,0,1\n",
    # numpy warns that the input has no data before the shape check raises
    pytest.param("", marks=pytest.mark.filterwarnings("ignore:loadtxt")),
], ids=["short_row", "not_a_number", "no_rows"])
def test_initial_csv_rejects_malformed_rows(body, tmp_path):
    g = make_grid(1, 2, 8, 2)
    path = tmp_path / "init.csv"
    path.write_text("x,rho,u,v,w,theta\n" + body)
    with pytest.raises(ValueError):
        load_initial_csv(path, g)
