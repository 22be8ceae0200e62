import numpy as np
import pytest

import symns.initdata
from symns.constitutive import ideal_gas, pressure
from symns.errors import SolverFailure
from symns.grid import make_grid, weighted_integral
from symns.initdata import (InitialData, compatibility_residuals,
                            load_initial_csv, preset, regularize,
                            solve_initial_velocity)
from symns.operators import ddx, lame_stencil

MODEL = ideal_gas()


def test_equilibrium_preset():
    g = make_grid(1, 2, 64, 2)
    d = preset("equilibrium", g, rho_bar=1.0, theta_bar=1.0)
    d.validate(g)
    assert np.all(d.rho0 == 1.0)
    assert not d.u0.any() and not d.v0.any() and not d.w0.any()


def test_vacuum_bump_preset():
    g = make_grid(1, 2, 128, 2)
    d = preset("vacuum_bump", g)
    assert d.rho0.min() == 0.0
    assert weighted_integral(g, d.rho0) > 0.0
    assert np.all(d.theta0 > 0.0)
    # support strictly inside: vacuum next to both walls
    assert d.rho0[0] == 0.0 and d.rho0[-1] == 0.0
    # theta has exactly zero discrete slope at the walls (bump gone there)
    assert d.theta0[1] - d.theta0[0] == 0.0
    assert d.theta0[-1] - d.theta0[-2] == 0.0


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
    assert d.v0.max() > 0.0
    assert not d.u0.any() and not d.w0.any()


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
    assert d1.rho0.min() == pytest.approx(1e-3)
    assert d1.epsilon == 1e-3
    # additivity
    d2 = regularize(regularize(d, 2e-4), 3e-4)
    d_once = regularize(d, 5e-4)
    assert np.allclose(d2.rho0, d_once.rho0, rtol=0, atol=1e-18)
    assert d2.epsilon == pytest.approx(5e-4)
    # exact mass increase eps * total weight
    dm = weighted_integral(g, d1.rho0) - weighted_integral(g, d.rho0)
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
    u = solve_initial_velocity(MODEL, d.rho0, d.theta0, g1, g)
    sub, diag, sup = lame_stencil(g)
    beta = MODEL.beta
    A = (np.diag(-beta * diag) + np.diag(-beta * sub[1:], -1)
         + np.diag(-beta * sup[:-1], 1))
    P = pressure(MODEL, d.rho0, d.theta0)
    rhs = ddx(g, P, "neumann0") + np.sqrt(d.rho0) * g1
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
    u0 = solve_initial_velocity(MODEL, d.rho0, d.theta0, np.zeros(64), g)
    u1 = solve_initial_velocity(MODEL, d.rho0, d.theta0, g1, g)
    u2 = solve_initial_velocity(MODEL, d.rho0, d.theta0, 2.0 * g1, g)
    # affine in g1: u(2 g1) - u(g1) = u(g1) - u(0)
    lhs = u2 - u1
    rhs = u1 - u0
    scale = np.max(np.abs(u1)) + 1e-30
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * scale


def test_compatibility_residuals_equilibrium():
    g = make_grid(1, 2, 64, 2)
    d = preset("equilibrium", g)
    res = compatibility_residuals(d, MODEL, g)
    for gi in (res.g1, res.g2, res.g3, res.g4):
        assert np.max(np.abs(gi)) == 0.0
    assert res.vacuum_indices.size == 0


def test_compatibility_vacuum_report_matches_threshold():
    g = make_grid(1, 2, 128, 2)
    d = preset("vacuum_bump", g)
    tol = 1e-12
    res = compatibility_residuals(d, MODEL, g, rho_vac_tol=tol)
    expected = np.nonzero(d.rho0 <= tol)[0]
    assert np.array_equal(res.vacuum_indices, expected)
    assert res.vacuum_raw.shape == (expected.size, 4)
    assert np.all(np.isnan(res.g1[expected]))
    assert np.all(np.isfinite(res.g1[d.rho0 > tol]))


@pytest.mark.parametrize("name", ["equilibrium", "vacuum_bump",
                                  "manufactured", "swirl_cylinder"])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_g1_roundtrip_all_presets(name, n):
    m = 1 if name == "swirl_cylinder" else 2
    g = make_grid(1, 2, n, m)
    d0 = preset(name, g)
    res0 = compatibility_residuals(d0, MODEL, g)
    g1 = np.nan_to_num(res0.g1, nan=0.0) + np.sin(2.0 * g.centers)
    d = regularize(d0, 1e-6)
    u = solve_initial_velocity(MODEL, d.rho0, d.theta0, g1, g)
    d = InitialData(rho0=d.rho0, u0=u, v0=d.v0, w0=d.w0, theta0=d.theta0,
                    epsilon=d.epsilon)
    res = compatibility_residuals(d, MODEL, g)
    mask = d.rho0 >= 1e-6
    assert np.max(np.abs(res.g1[mask] - g1[mask])) <= 1e-8


def test_initial_csv_roundtrip(tmp_path):
    from symns.io import write_snapshot
    from symns.state import State
    g = make_grid(1, 2, 32, 2)
    d = preset("vacuum_bump", g)
    s = State(g, 0.0, d.rho0, d.u0, d.v0, d.w0, d.theta0)
    path = tmp_path / "snap.csv"
    write_snapshot(path, s)
    loaded = load_initial_csv(path, g)
    for a, b in ((loaded.rho0, d.rho0), (loaded.u0, d.u0),
                 (loaded.theta0, d.theta0)):
        assert np.array_equal(a, b)


def test_initial_csv_zero_suffixed_header(tmp_path):
    g = make_grid(1, 2, 8, 2)
    path = tmp_path / "init.csv"
    rows = ["x,rho0,u0,v0,w0,theta0"]
    for i in range(8):
        rows.append("%.17g,1.0,0.0,0.0,0.0,1.0" % g.centers[i])
    path.write_text("\n".join(rows) + "\n")
    d = load_initial_csv(path, g)
    assert np.all(d.rho0 == 1.0)


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
