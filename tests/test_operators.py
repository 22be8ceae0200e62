import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symns.constitutive import GasModel, conductivity, pressure
from symns.diagnostics import DiagnosticsSeries, record_step
from symns.grid import make_grid, weighted_integral
from symns.operators import (_dissipation_and_div, axial_laplacian,
                             axial_stencil, ddx, dissipation, face_kappa,
                             heat_flux_div, lame_operator, lame_stencil,
                             radial_div, upwind_derivative)
from symns.state import State
from symns.tridiag import tridiagonal_matvec

INTERIOR = slice(1, -1)


def _slope(errs, dxs):
    # least-squares slope of log(err) against log(dx)
    lx = np.log(dxs)
    le = np.log(errs)
    return np.polyfit(lx, le, 1)[0]


def test_ddx_exact_on_linear_interior():
    g = make_grid(1, 2, 16, 2)
    d = ddx(g, g.centers.copy(), "dirichlet0")
    assert np.max(np.abs(d[INTERIOR] - 1.0)) < 1e-13


def test_ddx_constant_neumann_is_zero():
    g = make_grid(1, 2, 16, 1)
    assert not ddx(g, np.full(16, 3.7), "neumann0").any()


def test_ddx_unknown_bc():
    g = make_grid(1, 2, 8, 1)
    with pytest.raises(ValueError):
        ddx(g, np.ones(8), "periodic")


def test_ddx_richardson_order():
    errs, dxs = [], []
    for n in (32, 64, 128):
        g = make_grid(1, 2, n, 2)
        d = ddx(g, np.sin(g.centers), "dirichlet0")
        errs.append(np.max(np.abs(d[INTERIOR] - np.cos(g.centers[INTERIOR]))))
        dxs.append(g.dx)
    assert _slope(errs, dxs) >= 1.9


@pytest.mark.parametrize("m", [1, 2, 3])
def test_radial_div_uniform_expansion(m):
    g = make_grid(1, 2, 16, m)
    d = radial_div(g, g.centers.copy())
    assert np.max(np.abs(d[INTERIOR] - (m + 1))) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_radial_div_flux_annihilates_divergence_free(m):
    g = make_grid(1, 2, 8, m)
    u = g.centers ** (-float(m))
    d = radial_div(g, u, form="flux")
    s = g.centers ** m * u
    scale = np.abs(s) / (2 * g.dx * g.centers ** m)
    assert np.all(np.abs(d[INTERIOR]) <= 4 * np.spacing(scale[INTERIOR]))


def test_radial_div_forms_agree_roundoff_linear_cylindrical():
    g = make_grid(1, 2, 32, 1)
    u = g.centers.copy()
    p = radial_div(g, u, "pointwise")
    f = radial_div(g, u, "flux")
    assert np.max(np.abs(p[INTERIOR] - f[INTERIOR])) < 1e-12


def test_radial_div_forms_agree_dx2_smooth():
    diffs, dxs = [], []
    for n in (32, 64, 128):
        g = make_grid(1, 2, n, 2)
        u = np.sin(np.pi * (g.centers - 1.0))
        p = radial_div(g, u, "pointwise")
        f = radial_div(g, u, "flux")
        diffs.append(np.max(np.abs(p[INTERIOR] - f[INTERIOR])))
        dxs.append(g.dx)
    assert _slope(diffs, dxs) >= 1.8


def test_radial_div_closed_form_cylinder():
    errs, dxs = [], []
    for n in (32, 64, 128):
        g = make_grid(1, 2, n, 1)
        x = g.centers
        u = np.sin(np.pi * (x - 1.0))
        exact = np.pi * np.cos(np.pi * (x - 1.0)) + u / x
        d = radial_div(g, u)
        errs.append(np.max(np.abs(d[INTERIOR] - exact[INTERIOR])))
        dxs.append(g.dx)
    assert _slope(errs, dxs) >= 1.8


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lame_annihilates_identity_map(m):
    g = make_grid(1, 2, 16, m)
    L = lame_operator(g, g.centers.copy())
    scale = m / g.centers[INTERIOR]
    assert np.all(np.abs(L[INTERIOR]) <= 4 * np.spacing(scale))


def test_lame_zero_field():
    g = make_grid(1, 2, 16, 2)
    assert not lame_operator(g, np.zeros(16)).any()


def test_lame_quadratic_closed_form():
    # f = x^2, m = 2: f'' + m f'/x - m f/x^2 = 2 + 4 - 2 = 4
    g = make_grid(1, 2, 32, 2)
    L = lame_operator(g, g.centers ** 2)
    assert np.max(np.abs(L[INTERIOR] - 4.0)) < 1e-11


def test_axial_laplacian_cases():
    g = make_grid(1, 2, 32, 1)
    assert not axial_laplacian(g, np.full(32, 5.0))[INTERIOR].any()
    L = axial_laplacian(g, g.centers ** 2)
    assert np.max(np.abs(L[INTERIOR] - 4.0)) < 1e-11
    # log x is harmonic in the cylinder
    errs, dxs = [], []
    for n in (32, 64, 128):
        gn = make_grid(1, 2, n, 1)
        Ln = axial_laplacian(gn, np.log(gn.centers))
        errs.append(np.max(np.abs(Ln[INTERIOR])))
        dxs.append(gn.dx)
    assert _slope(errs, dxs) >= 1.8


def test_heat_flux_div_constant_theta():
    g = make_grid(1, 2, 16, 2)
    kf = np.linspace(1.0, 2.0, 17)
    assert not heat_flux_div(g, kf, np.full(16, 2.5)).any()


def test_heat_flux_div_conserves(rng):
    g = make_grid(1, 2, 64, 2)
    theta = np.abs(rng.standard_normal(64)) + 0.1
    kf = np.abs(rng.standard_normal(65)) + 0.5
    out = heat_flux_div(g, kf, theta)
    total = weighted_integral(g, out)
    scale = np.max(np.abs(out)) * g.total_weight
    assert abs(total) <= 1e-13 * max(scale, 1.0)


def test_heat_flux_div_face_length_check():
    g = make_grid(1, 2, 16, 2)
    with pytest.raises(ValueError):
        heat_flux_div(g, np.ones(16), np.ones(16))


def test_heat_flux_div_closed_form():
    errs, dxs = [], []
    for n in (32, 64, 128):
        g = make_grid(1, 2, n, 2)
        x = g.centers
        theta = np.cos(np.pi * (x - 1.0))        # zero slope at both walls
        exact = -np.pi ** 2 * theta - 2.0 * np.pi * np.sin(np.pi * (x - 1.0)) / x
        out = heat_flux_div(g, np.ones(n + 1), theta)
        errs.append(np.max(np.abs(out - exact)))  # valid up to the walls
        dxs.append(g.dx)
    assert _slope(errs, dxs) >= 1.8


def test_dissipation_zero_velocities():
    g = make_grid(1, 2, 16, 2)
    z = np.zeros(16)
    assert not dissipation(g, z, z, z, GasModel()).any()


def test_dissipation_pointwise_value():
    # u = x - x_j has u_x = 1 and u = 0 at cell j: value lam + 2*mu there
    g = make_grid(1, 2, 16, 1)
    j = 8
    u = g.centers - g.centers[j]
    z = np.zeros(16)
    model = GasModel(mu=1.0, lam=-0.5)
    p = dissipation(g, u, z, z, model)
    assert p[j] == pytest.approx(model.lam + 2 * model.mu, rel=1e-12)


@given(st.integers(1, 3), st.floats(0.1, 10.0), st.floats(0.01, 0.99),
       st.integers(0, 2 ** 31 - 1))
def test_dissipation_nonnegative_admissible(m, mu, frac, seed):
    # lam < 0 scanned up to the admissibility edge 2*mu + (m+1)*lam > 0
    lam = -frac * 2.0 * mu / (m + 1)
    model = GasModel(mu=mu, lam=lam)
    g = make_grid(1, 2, 16, m)
    rs = np.random.default_rng(seed)
    u, v, w = rs.standard_normal((3, 16))
    p = dissipation(g, u, v, w, model)
    assert p.min() >= -1e-12 * max(1.0, np.max(np.abs(p)))


def test_recorded_g_max_is_beta_div_u_minus_pressure():
    # record_step computes G = beta*div(u) - P on the u_x it already holds
    g = make_grid(1, 2, 16, 2)
    model = GasModel(mu=1.0, lam=0.5)
    rs = np.random.default_rng(7)
    rho, theta = rs.uniform(0.1, 2.0, (2, 16))
    u = rs.standard_normal(16)
    z = np.zeros(16)
    ser = DiagnosticsSeries()
    record_step(ser, State(g, 0.0, rho, u, z, z, theta), model, step=0,
                dt=0.0, alpha=0.5, clip_cum=0.0)
    G = model.beta * radial_div(g, u) - pressure(model, rho, theta)
    assert ser.column("G_max")[0] == np.max(np.abs(G))


@pytest.mark.parametrize("field", ["rho", "u", "v", "w", "theta"])
def test_state_rejects_a_wrong_length_field(field):
    # the one shape check on what the operators receive
    g = make_grid(1, 2, 16, 1)
    fields = {name: np.ones(16) for name in ("rho", "u", "v", "w", "theta")}
    fields[field] = np.ones(15)
    with pytest.raises(ValueError, match=r"expected \(16,\)"):
        State(grid=g, t=0.0, **fields)


def test_upwind_derivative_bias():
    g = make_grid(1, 2, 16, 1)
    f = g.centers ** 2
    wind = np.ones(16)
    d = upwind_derivative(g, f, wind)
    back = (f[1:] - f[:-1]) / g.dx
    assert np.allclose(d[1:], back)
    assert not upwind_derivative(g, f, np.zeros(16)).any()


@pytest.mark.parametrize("stencil,operator", [(lame_stencil, lame_operator),
                                              (axial_stencil, axial_laplacian)])
def test_stencils_match_operators(stencil, operator, rng):
    g = make_grid(1, 2, 32, 2)
    f = np.sin(np.pi * (g.centers - 1.0)) * rng.standard_normal()
    sub, diag, sup = stencil(g)
    mv = tridiagonal_matvec(sub, diag, sup, f)
    direct = operator(g, f)
    scale = np.max(np.abs(direct)) + np.max(np.abs(f)) / g.dx ** 2
    assert np.max(np.abs(mv - direct)) <= 1e-12 * scale


def test_grid_only_arrays_built_once_and_read_only():
    g = make_grid(1, 2, 16, 2)
    other = make_grid(1, 2, 16, 2)
    for build in (lame_stencil, axial_stencil, lambda g: (g.face_powers,)):
        first, again, own = build(g), build(g), build(other)
        for arr, same, fresh in zip(first, again, own):
            assert same is arr
            assert fresh is not arr and np.array_equal(fresh, arr)
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert np.array_equal(g.face_powers, g.faces ** 2)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [64, 1024])
def test_dissipation_shares_the_pointwise_divergence(m, n, rng):
    g = make_grid(1, 2, n, m)
    u, v, w = rng.standard_normal((3, n))
    model = GasModel(mu=1.3, lam=-0.4)
    phi, div_u = _dissipation_and_div(g, u, v, w, model)
    assert np.array_equal(div_u, radial_div(g, u))
    assert np.array_equal(phi, dissipation(g, u, v, w, model))


@pytest.mark.parametrize("model", [GasModel(kappa0=1.0, q=2.0),
                                   GasModel(family="power", mu=1.0, lam=0.0,
                                            r=0.5, q=3.5, kappa0=0.7)],
                         ids=["q2", "q3.5"])
def test_face_kappa_is_the_kirchhoff_mean(model):
    import mpmath as mp
    g = make_grid(1, 2, 16, 2)
    # a zero cell, equal neighbours, jumps of 1e-12*theta both ways, a jump
    # from zero and ordinary jumps of every size
    theta = np.array([0.0, 0.0, 0.3, 1.7, 1.7, 1.7 * (1 + 1e-12), 1.7,
                      2.5, 2.5 * (1 - 1e-12), 2.5, 0.05, 4.0, 3.0, 3.0,
                      1e-3, 1e-3 * (1 + 1e-12)])
    kf = face_kappa(g, model, theta)
    kc = conductivity(model, theta)
    assert kf.shape == (17,)
    assert np.all(kf > 0)
    assert kf[0] == kc[0] and kf[-1] == kc[-1]
    for i in range(15):
        lo, hi = theta[i], theta[i + 1]
        if lo == hi:
            assert kf[i + 1] == kc[i]
            continue
        with mp.workdps(40):
            kappa = lambda t: model.kappa0 * (1 + t ** mp.mpf(model.q))
            mean = mp.quad(kappa, [mp.mpf(lo), mp.mpf(hi)]) / (
                mp.mpf(hi) - mp.mpf(lo))
        assert kf[i + 1] == pytest.approx(float(mean), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_operator_refinement_orders(m):
    # every differential operator converges at order >= 1.8 on smooth
    # inputs compatible with its wall convention
    cases = {
        "ddx": lambda g: (ddx(g, np.sin(np.pi * (g.centers - 1.0)), "dirichlet0"),
                          np.pi * np.cos(np.pi * (g.centers - 1.0))),
        "radial_div": lambda g: (
            radial_div(g, np.sin(np.pi * (g.centers - 1.0))),
            np.pi * np.cos(np.pi * (g.centers - 1.0))
            + g.m * np.sin(np.pi * (g.centers - 1.0)) / g.centers),
        "lame": lambda g: (
            lame_operator(g, np.sin(np.pi * (g.centers - 1.0))),
            -np.pi ** 2 * np.sin(np.pi * (g.centers - 1.0))
            + g.m * (np.pi * np.cos(np.pi * (g.centers - 1.0))
                     - np.sin(np.pi * (g.centers - 1.0)) / g.centers)
            / g.centers),
        "axial": lambda g: (
            axial_laplacian(g, np.sin(np.pi * (g.centers - 1.0))),
            -np.pi ** 2 * np.sin(np.pi * (g.centers - 1.0))
            + g.m * np.pi * np.cos(np.pi * (g.centers - 1.0)) / g.centers),
    }
    for name, case in cases.items():
        errs, dxs = [], []
        for n in (32, 64, 128):
            g = make_grid(1, 2, n, m)
            got, exact = case(g)
            errs.append(np.max(np.abs(got[INTERIOR] - exact[INTERIOR])))
            dxs.append(g.dx)
        assert _slope(errs, dxs) >= 1.8, f"{name} under-converges at m={m}"
