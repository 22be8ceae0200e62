import math
import warnings
from itertools import accumulate

import numpy as np
import pytest

import symns.stepper
from symns.config import parse_config
from symns.constitutive import GasModel, conductivity, pressure
from symns.diagnostics import (SERIES_COLUMNS, DiagnosticsSeries,
                               blowup_indicator, record_step)
from symns.errors import ConfigError, DtUnderflow, SolverFailure
from symns.grid import Grid, make_grid, weighted_integral
from symns.initdata import preset
from symns.io import (SNAPSHOT_COLUMNS, snapshot_filename, write_snapshot,
                      write_trajectory)
from symns.operators import (axial_laplacian, ddx, dissipation, face_kappa,
                             heat_flux_coeffs, heat_flux_div, lame_operator,
                             radial_div, upwind_derivative)
from symns.state import FIELDS, RHO_VAC_TOL, State
from symns.stepper import (_RECORD_CELLS, StepControls, _ThetaPredictor,
                           cfl_dt, run, step_continuity, step_detailed,
                           step_momentum, step_temperature)
from symns.tridiag import solve_tridiagonal

MODEL = GasModel()


def test_controls_validation():
    with pytest.raises(ValueError):
        StepControls(cfl=1.5)
    with pytest.raises(ValueError):
        StepControls(picard_tol=0.0)
    for name in ("picard_max", "max_steps"):
        with pytest.raises(ValueError, match=name):
            StepControls(**{name: 0})


def test_cfl_dt_sound_speed():
    g = make_grid(1, 2, 64, 2)
    s = preset("equilibrium", g)
    c = StepControls(cfl=0.4)
    # ideal gas at rho = theta = 1: sound speed sqrt(dP/drho) = 1
    assert cfl_dt(s, c, MODEL) == pytest.approx(0.4 * g.dx, rel=1e-6)


def test_cfl_dt_barotropic_sound_speed():
    g = make_grid(1, 2, 64, 2)
    s = preset("equilibrium", g)
    model = GasModel(mu=1.0, lam=0.0, kappa0=1.0, q=2.0, A=1.0, gamma=2.0)
    # dP/drho = theta + 2*A*rho = 3 at rho = theta = 1
    assert cfl_dt(s, StepControls(cfl=0.4), model) == pytest.approx(
        0.4 * g.dx / math.sqrt(3.0), rel=1e-14)
    # vacuum cells (rho = 0) contribute sqrt(theta) only
    s = preset("vacuum_bump", g)
    expected = 0.4 * g.dx / float(np.max(np.sqrt(s.theta + 2.0 * s.rho)))
    assert cfl_dt(s, StepControls(cfl=0.4), model) == pytest.approx(
        expected, rel=1e-14)


def test_cfl_dt_advective_scaling():
    g = make_grid(1, 2, 64, 2)
    c = StepControls()
    s = preset("equilibrium", g)
    s.u = np.full(64, 10.0)
    dt1 = cfl_dt(s, c, MODEL)
    s.u = np.full(64, 20.0)
    dt2 = cfl_dt(s, c, MODEL)
    assert dt1 / dt2 == pytest.approx(21.0 / 11.0, rel=1e-6)


def test_cfl_dt_rejects_nan():
    g = make_grid(1, 2, 64, 2)
    s = preset("equilibrium", g)
    s.u[5] = math.nan
    with pytest.raises(ValueError):
        cfl_dt(s, StepControls(), MODEL)


def test_cfl_dt_underflow():
    g = make_grid(1, 2, 64, 2)
    s = preset("equilibrium", g)
    with pytest.raises(DtUnderflow):
        cfl_dt(s, StepControls(dt_min=1.0), MODEL)


def test_continuity_zero_velocity_identity():
    g = make_grid(1, 2, 64, 2)
    s = preset("vacuum_bump", g)
    rho, clip = step_continuity(s, 1e-3)
    assert np.array_equal(rho, s.rho)
    assert clip == 0.0


def test_continuity_conserves_mass(rng):
    g = make_grid(1, 2, 64, 2)
    s = preset("vacuum_bump", g)
    s.u = 0.3 * np.sin(np.pi * (g.centers - 1.0)) * rng.random()
    m0 = weighted_integral(g, s.rho)
    rho, _ = step_continuity(s, 1e-3)
    assert abs(weighted_integral(g, rho) - m0) <= 1e-14 * m0


def test_continuity_advected_bump_mass_drift():
    g = make_grid(1, 2, 128, 2)
    s = preset("vacuum_bump", g)
    u = 0.2 * np.sin(np.pi * (g.centers - 1.0))
    m0 = weighted_integral(g, s.rho)
    rho = s.rho
    for _ in range(100):
        st = State(g, 0.0, rho, u, s.v, s.w, s.theta)
        rho, _ = step_continuity(st, 1e-3)
    assert abs(weighted_integral(g, rho) - m0) <= 1e-12 * m0
    assert rho.min() >= 0.0


def test_momentum_equilibrium_is_zero():
    g = make_grid(1, 2, 64, 2)
    s = preset("equilibrium", g)
    u, v, w = step_momentum(s, 1e-3, MODEL)
    assert not u.any() and not v.any() and not w.any()


def test_momentum_zero_swirl_preserved_bitwise(rng):
    # cylindrical (m = 1), where v and w are solved
    g = make_grid(1, 2, 64, 1)
    s = preset("manufactured", g)
    assert not s.v.any() and not s.w.any()
    u, v, w = step_momentum(s, 1e-3, MODEL)
    assert not v.any() and not w.any()
    assert u.any()  # pressure gradient accelerates the radial component


@pytest.mark.parametrize("m", [1, 2])
def test_momentum_vacuum_rows_solve_the_rho_limit(m):
    # a vacuum row reads rho as 0, so it states the rho -> 0 limit of the
    # momentum equations, beta*L[u] = P_x - f, mu*L[v] = 0 and
    # mu*L_axial[w] = 0, also where rho is positive but below RHO_VAC_TOL
    g = make_grid(1, 2, 64, m)
    s = preset("vacuum_bump", g)
    s.rho[np.flatnonzero(s.rho == 0.0)[::4]] = 0.5 * RHO_VAC_TOL
    phase = np.pi * (g.centers - 1.0)
    s.u = 0.01 * np.sin(phase)
    if m == 1:
        s.v = 0.02 * np.cos(phase)
        s.w = 0.03 + 0.01 * g.centers
    force = 0.7 * np.cos(3.0 * phase)
    vac = s.rho < RHO_VAC_TOL
    assert (s.rho[vac] > 0.0).any() and (force[vac] != 0.0).all()
    u, v, w = step_momentum(s, 1e-4, MODEL, force_u=force)
    px = ddx(g, pressure(MODEL, s.rho, s.theta), "neumann0")
    bound = 1e-13 * MODEL.beta * np.abs(u).max() / g.dx ** 2
    radial = MODEL.beta * lame_operator(g, u) - px + force
    assert np.abs(radial[vac]).max() <= bound
    if m == 1:
        for f in (lame_operator(g, v), axial_laplacian(g, w)):
            assert np.abs(MODEL.mu * f[vac]).max() <= bound
    else:
        assert v is s.v and w is s.w


def test_continuity_vacuum_donor_carries_no_flux():
    # the wind leaves cell k through both faces; k is a vacuum donor, so
    # no flux leaves it and its density stays as it is
    g = make_grid(1, 2, 64, 2)
    s = preset("vacuum_bump", g)
    k = 5
    assert s.rho[k] == 0.0 and s.rho[k - 1] == s.rho[k + 1] == 0.0
    s.rho[k] = 0.5 * RHO_VAC_TOL
    s.u = 0.3 * (g.centers - g.centers[k])
    m0 = weighted_integral(g, s.rho)
    rho, clip = step_continuity(s, 1e-3)
    assert rho[k] == s.rho[k] and clip == 0.0
    assert not np.array_equal(rho, s.rho)
    assert abs(weighted_integral(g, rho) - m0) <= 1e-14 * m0


def test_vacuum_run_is_the_eps_limit():
    # data with vacuum (eps = 0) and the same data lifted by eps = 1e-10
    # give the same blow-up indicator: a vacuum cell follows the rho -> 0
    # limit that an eps-lifted cell approaches
    def indicator(eps):
        traj = run(parse_config(f"""
[grid]
n = 32
m = 2
[model]
family = "power"
r = 0.5
q = 3.5
[init]
preset = "vacuum_bump"
eps = {eps!r}
[controls]
t_end = 0.05
dt_max = 1e-4
"""))
        assert traj.reason == "completed"
        return blowup_indicator(traj)

    vacuum, lifted = indicator(0.0), indicator(1e-10)
    assert abs(vacuum - lifted) <= 1e-6 * lifted


def _vacuum_rows_state():
    # a vacuum bump stirred by a sine, with some vacuum cells at a density
    # that is positive but below RHO_VAC_TOL
    g = make_grid(1, 2, 64, 2)
    s = preset("vacuum_bump", g)
    s.u = 0.01 * np.sin(np.pi * (g.centers - 1.0))
    s.rho[np.flatnonzero(s.rho == 0.0)[::4]] = 0.5 * RHO_VAC_TOL
    vac = s.rho < RHO_VAC_TOL
    assert (s.rho[vac] > 0.0).any()
    phi = dissipation(g, s.u, s.v, s.w, MODEL)
    assert (phi[vac] > 0.0).all()
    return s, vac, phi


def test_temperature_one_sweep_vacuum_rows_solve_the_newton_line():
    # one sweep linearizes Phi at theta_old; a vacuum row then states
    # 0 = L_F[Phi(theta_old) + kappa(theta_old)*(theta' - theta_old)] + phi,
    # also where rho is positive but below RHO_VAC_TOL
    s, vac, phi = _vacuum_rows_state()
    g = s.grid
    with pytest.warns(RuntimeWarning, match="picard_max"):
        theta, _, _ = step_temperature(s, 1e-4, MODEL,
                                       StepControls(picard_max=1))
    old = s.theta
    kirchhoff = MODEL.kappa0 * (old + old ** (MODEL.q + 1) / (MODEL.q + 1))
    line = kirchhoff + conductivity(MODEL, old) * (theta - old)
    unit = np.ones(g.n + 1)    # L_F is heat_flux_div at kappa = 1
    residual = heat_flux_div(g, unit, line) + phi
    fl, fr = heat_flux_coeffs(g, unit)
    scale = float(((fl + fr) * np.abs(line)).max())
    assert np.abs(residual[vac]).max() <= 1e-13 * scale
    assert np.abs(residual[~vac]).max() > 1e-6 * scale


def test_temperature_vacuum_rows_solve_the_kirchhoff_balance():
    # converged sweeps leave vacuum rows at 0 = L_F[Phi(theta')] + phi,
    # which is heat_flux_div with face_kappa's integral mean, within the
    # picard_tol scale; the other rows keep their time derivative
    s, vac, phi = _vacuum_rows_state()
    g = s.grid
    c = StepControls()
    theta, _, iters = step_temperature(s, 1e-4, MODEL, c)
    assert 1 < iters < c.picard_max
    residual = heat_flux_div(g, face_kappa(g, MODEL, theta), theta) + phi
    fl, fr = heat_flux_coeffs(g, face_kappa(g, MODEL, theta))
    scale = float(((fl + fr) * theta).max())
    assert np.abs(residual[vac]).max() <= c.picard_tol * scale
    assert np.abs(residual[~vac]).max() > 1e-6 * scale


def test_temperature_sweeps_converge_quadratically():
    # ideal family (Q' = 1), so each sweep is a full Newton step: the
    # relative updates e_k of the iterates at picard_max = 1 ... 4 shrink
    # as e_{k+1} <= C*e_k^2 with C = 10 fixed in advance, or reach
    # rounding; one CFL step of the vacuum bump, m = 2, n = 64
    g = make_grid(1, 2, 64, 2)
    s = preset("vacuum_bump", g)
    c = StepControls()
    dt = cfl_dt(s, c, MODEL)
    rho, _ = step_continuity(s, dt)
    mid = State(grid=g, t=s.t + dt, rho=rho, u=s.u, v=s.v, w=s.w,
                theta=s.theta)
    mid.u, mid.v, mid.w = step_momentum(mid, dt, MODEL)
    iterates = [s.theta]
    for picard_max in range(1, 5):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "temperature Picard hit",
                                    RuntimeWarning)
            theta, _, _ = step_temperature(
                mid, dt, MODEL, StepControls(picard_max=picard_max))
        iterates.append(theta)
    e = [float(np.abs(new - old).max() / np.abs(new).max())
         for old, new in zip(iterates, iterates[1:])]
    assert e[0] > 0.1    # the step moves theta, so the rate is visible
    for prev, nxt in zip(e, e[1:]):
        assert nxt <= 10.0 * prev ** 2 or nxt < 1e-13


def _cold_wind_state(n):
    """Wind u = 10 from cold cells (theta = 0) into hot ones (theta = 3,
    kappa ten times larger) across x = 1.5; rho = 1, m = 2, ideal gas."""
    g = make_grid(1, 2, n, 2)
    z = np.zeros(n)
    return State(g, 0.0, np.ones(n), np.full(n, 10.0), z, z,
                 np.where(g.centers < 1.5, 0.0, 3.0))


def test_temperature_wind_into_a_larger_kappa_keeps_the_implicit_solution():
    # the first hot cell's upwind coupling, scaled by the cold column's
    # 1/kappa, outweighs its diagonal: kappa_i/kappa_up exceeds
    # 1 + (1/dt + div u)*dx/u; the step still converges to the solution
    # of its implicit equation, Q' = 1:
    # rho*(theta' - theta)/dt + rho*u*D_up[theta'] + rho*div(u)*theta'
    #   = heat_flux_div(face_kappa(theta'), theta') + phi
    # kappa0 = 0.01 keeps the jump through the step, so that row takes
    # its upwind coupling at the iterate up to the last sweep
    model = GasModel(kappa0=0.01)
    s = _cold_wind_state(32)
    g = s.grid
    c = StepControls()
    dt = cfl_dt(s, c, model)
    rho, _ = step_continuity(s, dt)
    mid = State(grid=g, t=s.t + dt, rho=rho, u=s.u, v=s.v, w=s.w,
                theta=s.theta)
    mid.u, mid.v, mid.w = step_momentum(mid, dt, model)
    u, divu = mid.u, radial_div(g, mid.u)
    kappa = conductivity(model, mid.theta)
    outweighed = (u[1:] > 0.0) & (kappa[1:] / kappa[:-1]
                                  > 1.0 + (1.0 / dt + divu[1:]) * g.dx / u[1:])
    assert outweighed.any()
    theta, _, iters = step_temperature(mid, dt, model, c)
    assert iters < c.picard_max
    assert (conductivity(model, theta)[1:] / conductivity(model, theta)[:-1]
            > 1.0 + (1.0 / dt + divu[1:]) * g.dx / u[1:])[outweighed].all()
    kappa_face = face_kappa(g, model, theta)
    residual = (rho * (theta - mid.theta) / dt
                + rho * u * upwind_derivative(g, theta, u, "neumann0")
                + rho * divu * theta - heat_flux_div(g, kappa_face, theta)
                - dissipation(g, u, mid.v, mid.w, model))
    fl, fr = heat_flux_coeffs(g, kappa_face)
    scale = float(((fl + fr) * theta).max())
    assert np.abs(residual).max() <= c.picard_tol * scale


def test_run_completes_with_wind_into_a_larger_kappa(tmp_path):
    # kappa rises tenfold downwind of the jump, more than 1 + 1/cfl = 3.5
    path = tmp_path / "cold_wind.csv"
    write_snapshot(path, _cold_wind_state(32))
    cfg = parse_config(f"""
[grid]
a = 1.0
b = 2.0
n = 32
m = 2
[model]
family = "ideal"
q = 2.0
[init]
file = "{path}"
[controls]
t_end = 0.02
""")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = run(cfg)
    assert traj.reason == "completed"
    assert not [w for w in caught if "picard_max" in str(w.message)]


def test_spherical_momentum_solves_radial_only(monkeypatch):
    g = make_grid(1, 2, 64, 2)
    s = preset("vacuum_bump", g)
    s.u = 0.01 * np.sin(np.pi * (g.centers - 1.0))
    contexts = []

    def counting(*args, context):
        contexts.append(context)
        return solve_tridiagonal(*args, context=context)

    monkeypatch.setattr(symns.stepper, "solve_tridiagonal", counting)
    u, v, w = step_momentum(s, 1e-4, MODEL)
    assert len(contexts) == 1 and "radial momentum" in contexts[0]
    assert v is s.v and w is s.w
    assert u.any()


def test_cylindrical_momentum_is_one_solve(monkeypatch):
    # the three m = 1 systems are one block solve; its context stays a str
    # that names the momentum phase, which is how the solves are told apart
    s = preset("swirl_cylinder", make_grid(1, 2, 64, 1))
    contexts = []

    def counting(*args, context, **kwargs):
        contexts.append(context)
        return solve_tridiagonal(*args, context=context, **kwargs)

    monkeypatch.setattr(symns.stepper, "solve_tridiagonal", counting)
    u, v, w = step_momentum(s, 1e-4, MODEL)
    assert len(contexts) == 1
    assert isinstance(contexts[0], str) and "momentum" in contexts[0]
    assert u.any() and v.any()


def test_temperature_constant_fixed_point():
    g = make_grid(1, 2, 64, 2)
    s = preset("equilibrium", g, theta_bar=2.5)
    theta, clip, iters = step_temperature(s, 1e-3, MODEL, StepControls())
    assert np.array_equal(theta, s.theta)
    assert clip == 0.0


def test_temperature_maximum_principle(rng):
    g = make_grid(1, 2, 64, 2)
    theta0 = 1.0 + np.abs(rng.standard_normal(64))
    z = np.zeros(64)
    s = State(g, 0.0, np.ones(64), z, z, z, theta0)
    theta, _, _ = step_temperature(s, 5e-4, MODEL, StepControls())
    assert theta.min() >= theta0.min() - 1e-12
    assert theta.max() <= theta0.max() + 1e-12


def test_temperature_maximum_principle_with_exact_zeros(rng):
    # theta0 >= 0 with genuine zeros: pure conduction keeps the range
    g = make_grid(1, 2, 64, 2)
    theta0 = np.abs(rng.standard_normal(64))
    theta0[::7] = 0.0
    z = np.zeros(64)
    s = State(g, 0.0, np.ones(64), z, z, z, theta0)
    theta, clip, _ = step_temperature(s, 5e-4, MODEL, StepControls())
    assert theta.min() >= -1e-15
    assert theta.max() <= theta0.max() + 1e-12
    assert clip <= 1e-12


def test_temperature_conduction_flattens():
    g = make_grid(1, 2, 64, 2)
    z = np.zeros(64)
    theta0 = 1.0 + 0.5 * np.cos(np.pi * (g.centers - 1.0))
    s = State(g, 0.0, np.ones(64), z, z, z, theta0)
    theta = theta0
    for j in range(50):
        s = State(g, 0.0, np.ones(64), z, z, z, theta)
        theta, _, _ = step_temperature(s, 1e-3, MODEL, StepControls())
    assert theta.max() - theta.min() < theta0.max() - theta0.min()


def test_step_equilibrium_fixed_point_composition():
    g = make_grid(1, 2, 32, 2)
    s0 = preset("equilibrium", g)
    s, _ = step_detailed(s0, StepControls(), MODEL)
    assert s.t > 0.0
    for name in ("rho", "u", "v", "w", "theta"):
        assert np.array_equal(getattr(s, name), getattr(s0, name))


@pytest.mark.parametrize("name, m", [("swirl_cylinder", 1),
                                     ("vacuum_bump", 2)])
def test_step_checks_each_field_once(monkeypatch, name, m):
    # the step fills one State, whose build checks the five fields; the
    # phases and the later assignments check nothing again
    s = preset(name, make_grid(1, 2, 32, m))
    calls = []
    require_field = Grid.require_field

    def counting(self, f):
        calls.append(f)
        return require_field(self, f)

    monkeypatch.setattr(Grid, "require_field", counting)
    step_detailed(s, StepControls(), MODEL, dt=1e-3)
    assert len(calls) == 5


def test_run_constant_state_is_bitwise_fixed_through_the_predictor(
        monkeypatch):
    # from the second step on, run seeds the temperature solve with its
    # extrapolation in time, which must reproduce a constant exactly
    guesses = []

    def recording(*args, theta_guess=None, **kwargs):
        guesses.append(theta_guess)
        return step_temperature(*args, theta_guess=theta_guess, **kwargs)

    monkeypatch.setattr(symns.stepper, "step_temperature", recording)
    traj = run(parse_config("""
[grid]
n = 32
[init]
preset = "equilibrium"
theta_bar = 2.5
[controls]
t_end = 0.05
"""))
    assert traj.reason == "completed" and traj.steps >= 3
    s0, s = traj.states[0], traj.final_state
    for name in ("rho", "u", "v", "w", "theta"):
        assert np.array_equal(getattr(s, name), getattr(s0, name))
    assert guesses[0] is None
    for guess in guesses[1:]:
        assert np.array_equal(guess, s0.theta)


# uneven step sizes for the predictor's histories
_STEPS = (0.1, 0.05, 0.12, 0.08, 0.15, 0.06, 0.11, 0.09, 0.13, 0.07)


def _polynomial_in_time(rng, degree, n=32):
    # theta(t) a polynomial of the given degree in t, its own coefficients
    # in every cell
    coef = rng.uniform(-1.0, 1.0, (degree + 1, n))

    def theta(t):
        out = coef[-1]
        for c in coef[-2::-1]:
            out = c + t * out
        return out
    return theta


def _feed(predictor, theta, t, steps):
    # guess and accept as run calls them; returns the time reached and the
    # last guess with the value it aimed at
    for dt in steps:
        got, want = predictor.guess(theta(t), dt), theta(t + dt)
        predictor.accept(theta(t), want, dt)
        t += dt
    return t, got, want


def _order(predictor):
    return len(predictor.bary) - 1


def test_theta_predictor_guesses_nothing_before_the_first_step():
    assert _ThetaPredictor(32).guess(np.ones(32), 0.1) is None


def test_theta_predictor_climbs_one_order_per_step_to_its_max(rng):
    # linear after the first step, then one order up per step from the
    # third on until MAX_ORDER, where it stays
    theta = _polynomial_in_time(rng, 3)
    predictor = _ThetaPredictor(32)
    t, orders = 0.0, []
    for dt in _STEPS:
        t, _, _ = _feed(predictor, theta, t, [dt])
        orders.append(_order(predictor))
    top = _ThetaPredictor.MAX_ORDER
    assert orders == [1] + list(range(1, top + 1)) + [top] * 3


def test_theta_predictor_keeps_its_order_after_one_sweep_steps(rng):
    # accept sees no sweep count: once at MAX_ORDER the order stays there
    # whatever the history does, here a jump to a much steeper line
    theta = _polynomial_in_time(rng, 3)
    predictor = _ThetaPredictor(32)
    t, _, _ = _feed(predictor, theta, 0.0, _STEPS)
    top = _ThetaPredictor.MAX_ORDER
    assert _order(predictor) == top
    start, t0 = theta(t), t
    orders = []
    for dt in _STEPS:
        t, _, _ = _feed(predictor, lambda s: start + 5.0 * (s - t0), t, [dt])
        orders.append(_order(predictor))
    assert orders == [top] * len(_STEPS)


def test_theta_predictor_is_exact_on_a_polynomial_of_its_max_order(rng):
    # once the order has climbed to MAX_ORDER, the next value is predicted
    # exactly
    top = _ThetaPredictor.MAX_ORDER
    theta = _polynomial_in_time(rng, top)
    predictor = _ThetaPredictor(32)
    t, _, _ = _feed(predictor, theta, 0.0, _STEPS[:top + 1])
    assert _order(predictor) == top
    _, got, want = _feed(predictor, theta, t, _STEPS[top + 1:])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_theta_predictor_keeps_a_constant_history_bitwise(rng):
    theta = rng.uniform(0.5, 2.0, 32)
    predictor = _ThetaPredictor(32)
    for dt in (0.1, 0.03, 0.2, 0.07, 0.15, 0.05, 0.12, 0.09):
        predictor.accept(theta, theta.copy(), dt)
        assert np.array_equal(predictor.guess(theta, 0.05), theta)


def _accumulated_ring_row(predictor, dt):
    # the ring row as the sums of itertools.accumulate, turned to the ring
    # by a rotation copy: the reference for _row's one loop
    top = _ThetaPredictor.MAX_ORDER
    bary = predictor.bary
    nodes = predictor.nodes[:len(bary)]
    ell = math.prod([dt - t_j for t_j in nodes])
    neg_lag = [ell * w / (t_j - dt) for w, t_j in zip(bary, nodes)]
    row = [0.0] * (top + 2 - len(bary)) + list(accumulate(neg_lag[:0:-1]))
    cut = top - predictor.head
    return row[cut:] + row[:cut]


def test_theta_predictor_row_is_the_accumulated_ring_row(rng):
    # the predictor's own weights at every order it climbs through and at
    # every head position, bit for bit
    theta = _polynomial_in_time(rng, 3)
    predictor = _ThetaPredictor(32)
    t, orders = 0.0, set()
    for dt in _STEPS + _STEPS:
        t, _, _ = _feed(predictor, theta, t, [dt])
        orders.add(_order(predictor))
        got = predictor._row(0.07)
        want = _accumulated_ring_row(predictor, 0.07)
        assert np.array(got).tobytes() == np.array(want).tobytes()
    assert orders == set(range(1, _ThetaPredictor.MAX_ORDER + 1))


def _heated_state():
    # nonuniform density, velocity and temperature with vacuum cells
    g = make_grid(1, 2, 64, 2)
    d = preset("vacuum_bump", g)
    u = 0.3 * np.sin(np.pi * (g.centers - 1.0))
    z = np.zeros(64)
    return State(g, 0.0, d.rho, u, z, z, d.theta)


def test_temperature_guess_at_the_solution_takes_one_sweep():
    s = _heated_state()
    c = StepControls()
    theta, _, iters = step_temperature(s, 2e-3, MODEL, c)
    assert iters > 1
    again, _, iters = step_temperature(s, 2e-3, MODEL, c, theta_guess=theta)
    assert iters == 1
    assert np.abs(again - theta).max() <= c.picard_tol * np.abs(theta).max()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_temperature_nonfinite_guess_is_ignored(bad):
    s = _heated_state()
    c = StepControls()
    want = step_temperature(s, 2e-3, MODEL, c)
    guess = 1.5 * s.theta
    guess[10] = bad
    got = step_temperature(s, 2e-3, MODEL, c, theta_guess=guess)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


_BUMP_128 = """
[grid]
n = 128
m = 2
[model]
%s
[init]
preset = "vacuum_bump"
[controls]
t_end = 0.1
"""


def test_run_agrees_with_unseeded_steps():
    # each run, stepped again without any guess: the swirl pin config of
    # test_bitwise and a spherical bump of each gas family
    for text in ("""
[grid]
n = 64
m = 1
[init]
preset = "swirl_cylinder"
swirl = 0.2
[controls]
t_end = 1.0
""", _BUMP_128 % 'family = "ideal"',
                 _BUMP_128 % 'family = "power"\nr = 0.5\nq = 3.5'):
        cfg = parse_config(text)
        traj = run(cfg)
        c, model = cfg.controls, cfg.model
        s = traj.states[0]
        steps = 0
        while s.t < c.t_end - 1e-14 * max(1.0, c.t_end):
            dt = min(cfl_dt(s, c, model), c.t_end - s.t)
            s, _ = step_detailed(s, c, model, dt=dt)
            steps += 1
        assert steps == traj.steps
        for name in ("rho", "u", "v", "w", "theta"):
            want = getattr(s, name)
            diff = np.abs(getattr(traj.final_state, name) - want).max()
            assert diff <= 1e-10 * np.abs(want).max(), (text, name)


def _counting_sweeps(monkeypatch):
    # the sweep count of every step_temperature call that run makes
    sweeps = []

    def counting(*args, **kwargs):
        out = step_temperature(*args, **kwargs)
        sweeps.append(out[2])
        return out

    monkeypatch.setattr(symns.stepper, "step_temperature", counting)
    return sweeps


def test_predictor_saves_sweeps_on_the_shipped_vacuum_bump(monkeypatch):
    # configs/vacuum_bump.toml's settings.  A step takes one sweep only
    # when its guess lies within picard_tol of the result: the predictor
    # reaches that on 25 of the 59 steps (1.966 sweeps per step), a fixed
    # cubic on none (2.373)
    sweeps = _counting_sweeps(monkeypatch)
    traj = run(parse_config("""
[grid]
n = 256
m = 2
[model]
family = "ideal"
mu = 1.0
lam = 0.0
q = 2.0
[init]
preset = "vacuum_bump"
[controls]
t_end = 0.1
"""))
    assert traj.reason == "completed" and len(sweeps) == traj.steps
    assert sum(sweeps) / traj.steps <= 2.1
    assert sweeps.count(1) >= 20


def test_run_zero_time():
    cfg = parse_config("[controls]\nt_end = 0.0\n")
    traj = run(cfg)
    assert traj.reason == "completed"
    assert traj.steps == 0
    assert len(traj.states) == 1
    assert len(traj.series) == 1


def test_parse_refuses_inadmissible():
    # 2*mu + (m+1)*lam > 0 fails at m = 2, so no config reaches run
    with pytest.raises(ConfigError, match="inadmissible model/grid"):
        parse_config("[model]\nlam = -0.7\n[controls]\nt_end = 0.001\n")


def test_run_vacuum_bump_short():
    cfg = parse_config("""
[grid]
n = 96
[init]
preset = "vacuum_bump"
[controls]
t_end = 0.02
""")
    traj = run(cfg)
    assert traj.reason == "completed"
    s = traj.final_state
    assert s.rho.min() >= 0.0
    assert s.theta.min() >= 0.0
    m = traj.series.column("mass")
    assert np.max(np.abs(m - m[0])) <= 1e-12 * m[0]


def test_large_vacuum_bump_converges_at_default_picard_max(monkeypatch):
    # ROADMAP's large-data case.  Its first temperature step needs 13
    # sweeps (22 with the frozen-kappa Picard sweeps); at picard_max = 10 it
    # still completes, with a relative update of 1.1e-8 left against
    # picard_tol = 1e-10.  Seeded by the predictor it takes 2.238 sweeps
    # per step (4.06 unseeded), and no step more than 13
    sweeps = _counting_sweeps(monkeypatch)
    cfg = parse_config("""
[grid]
n = 128
m = 2
[model]
family = "power"
r = 0.5
q = 3.5
[init]
preset = "vacuum_bump"
rho_max = 20.0
theta_bar = 5.0
[controls]
t_end = 0.2
""")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = run(cfg)
    assert traj.reason == "completed"
    assert not [w for w in caught if "picard_max" in str(w.message)]
    assert len(sweeps) == traj.steps
    assert sum(sweeps) / traj.steps <= 2.30
    assert max(sweeps) <= 13


def test_run_swirl_cylinder():
    cfg = parse_config("""
[grid]
n = 64
m = 1
[init]
preset = "swirl_cylinder"
[controls]
t_end = 0.01
""")
    traj = run(cfg)
    assert traj.reason == "completed"
    assert traj.final_state.v.any()       # swirl persists
    assert not traj.final_state.w.any()   # axial stays zero bitwise


def test_run_dt_clamps_to_t_end():
    cfg = parse_config("[controls]\nt_end = 0.004\n[grid]\nn = 32\n")
    traj = run(cfg)
    assert traj.final_state.t == pytest.approx(0.004, abs=1e-15)


def test_run_snapshot_cadence():
    cfg = parse_config("""
[grid]
n = 32
[init]
preset = "manufactured"
[controls]
t_end = 0.05
[output]
snapshot_every = 2
""")
    traj = run(cfg)
    assert traj.snapshot_steps[0] == 0
    assert traj.snapshot_steps[-1] == traj.steps
    assert all(b > a for a, b in zip(traj.snapshot_steps,
                                     traj.snapshot_steps[1:]))


def test_run_max_steps_guard():
    cfg = parse_config("[controls]\nt_end = 1.0\nmax_steps = 3\n"
                       "[init]\npreset = \"manufactured\"\n[grid]\nn = 32\n")
    traj = run(cfg)
    assert traj.reason == "solver_failure"
    assert "max_steps" in traj.error


def test_solver_failure_names_cell():
    # force a non-dominant temperature row: huge dt with strong compression
    g = make_grid(1, 2, 64, 2)
    z = np.zeros(64)
    u = -2.0 * (g.centers - 1.5)
    s = State(g, 0.0, np.ones(64), u, z, z, np.ones(64))
    with pytest.raises(SolverFailure):
        step_temperature(s, 50.0, MODEL, StepControls())


def _swirl_text(n, controls):
    return f"""
[grid]
n = {n}
m = 1
[init]
preset = "swirl_cylinder"
swirl = 0.2
[controls]
{controls}
[output]
snapshot_every = 1
"""


_BUMP_1024 = """
[grid]
n = 1024
m = 2
[init]
preset = "vacuum_bump"
[controls]
t_end = 0.012
[output]
snapshot_every = 1
"""


@pytest.mark.parametrize("text", [
    pytest.param(_swirl_text(64, "t_end = 1.0"), id="64"),
    pytest.param(_swirl_text(45, "t_end = 2.0"), id="45"),
    # m = 2, where the stacks leave out v and w; blocks of 4 states
    pytest.param(_BUMP_1024, id="1024"),
])
def test_run_records_blocks_as_it_would_record_each_state(text):
    # run records the accepted steps in blocks of _RECORD_CELLS // n or so;
    # every row must be bitwise the row of its state recorded alone
    cfg = parse_config(text)
    traj = run(cfg)
    block = -(-_RECORD_CELLS // cfg.grid.n)
    assert traj.steps > 2 * block and traj.steps % block
    rows = traj.series.rows
    alone = DiagnosticsSeries()
    for i, s in enumerate(traj.states):
        record_step(alone, s, cfg.model, step=i, dt=rows["dt"][i],
                    alpha=traj.diag_alpha,
                    clip_cum=rows["clip_mass_cumulative"][i])
    for name in SERIES_COLUMNS:
        got, want = traj.series.column(name), alone.column(name)
        assert got.tobytes() == want.tobytes(), name


def test_run_stopped_inside_a_block_records_every_step():
    # n = 64 records blocks of 64; max_steps stops the run at step 20
    traj = run(parse_config(_swirl_text(64, "t_end = 1.0\nmax_steps = 20")))
    assert traj.reason == "solver_failure" and traj.steps == 20
    assert traj.series.rows["step"] == list(range(21))
    assert traj.series.rows["t"][-1] == traj.final_state.t


def test_run_ending_nan_detected_inside_a_block_records_every_finite_step(
        monkeypatch):
    real = symns.stepper.step_detailed
    made = []

    def poisoned(*args, **kwargs):
        out, info = real(*args, **kwargs)
        made.append(out.t)
        if len(made) == 20:
            out.theta = out.theta.copy()
            out.theta[5] = math.nan
        return out, info

    monkeypatch.setattr(symns.stepper, "step_detailed", poisoned)
    traj = run(parse_config(_swirl_text(64, "t_end = 1.0")))
    assert traj.reason == "nan_detected" and traj.steps == 20
    # the non-finite state of step 20 gets no row, every step before it one
    assert traj.series.rows["step"] == list(range(20))
    assert traj.series.rows["t"][1:] == made[:19]


@pytest.mark.parametrize("text", [
    pytest.param(_swirl_text(64, "t_end = 0.5"), id="swirl"),
    pytest.param(_BUMP_128 % 'family = "ideal"', id="bump"),
])
def test_run_checks_each_state_once(monkeypatch, text):
    # the cfl_dt call that sizes the step from a state is its one check:
    # the initial state's and one after each step
    calls = []
    is_finite = State.is_finite

    def counting(self):
        calls.append(self.t)
        return is_finite(self)

    monkeypatch.setattr(State, "is_finite", counting)
    traj = run(parse_config(text))
    assert traj.reason == "completed"
    assert len(calls) == traj.steps + 1
    assert calls == sorted(set(calls))


@pytest.mark.parametrize("field", ["rho", "u", "theta"])
def test_run_of_a_nonfinite_initial_state_is_nan_detected(field):
    # a field of cfg.initial replaced after parsing (its arrays are
    # read-only): run still raises nothing
    cfg = parse_config("[grid]\nn = 16\n[init]\npreset = \"manufactured\"\n"
                       "[controls]\nt_end = 0.01\n")
    bad = getattr(cfg.initial, field).copy()
    bad[3] = math.nan
    setattr(cfg.initial, field, bad)
    traj = run(cfg)
    assert traj.reason == "nan_detected" and traj.steps == 0
    assert "non-finite" in traj.error
    assert traj.series.rows["step"] == [0] and len(traj.states) == 1


def _cfl_dt_failing(monkeypatch, fails):
    # cfl_dt that raises DtUnderflow for the states fails(s, call) picks
    calls = []

    def failing(s, c, model):
        calls.append(s.t)
        if fails(s, c, len(calls)):
            raise DtUnderflow("cfl_dt: forced underflow")
        return cfl_dt(s, c, model)

    monkeypatch.setattr(symns.stepper, "cfl_dt", failing)
    return calls


def test_run_completes_when_its_final_state_has_no_cfl_step(monkeypatch):
    text = _swirl_text(64, "t_end = 0.5")
    want = run(parse_config(text))
    calls = _cfl_dt_failing(
        monkeypatch, lambda s, c, call: s.t >= c.t_end - 1e-14)
    traj = run(parse_config(text))
    assert traj.reason == "completed" and traj.error is None
    assert traj.steps == want.steps and len(calls) == traj.steps + 1
    for name in FIELDS:
        assert np.array_equal(getattr(traj.final_state, name),
                              getattr(want.final_state, name))


def test_run_dt_underflow_mid_run_ends_where_it_did(monkeypatch):
    # the state after step 10 has no CFL step: the run stops there, with
    # a row for each of steps 0 to 10, as when cfl_dt ran first in a step
    _cfl_dt_failing(monkeypatch, lambda s, c, call: call == 11)
    traj = run(parse_config(_swirl_text(64, "t_end = 0.5")))
    assert traj.reason == "dt_underflow"
    assert traj.error == "cfl_dt: forced underflow"
    assert traj.steps == 10
    assert traj.series.rows["step"] == list(range(11))
    assert traj.snapshot_steps == list(range(11))


_BUMP_64 = """
[grid]
n = 64
m = 2
[init]
preset = "vacuum_bump"
[controls]
t_end = 0.01
[output]
snapshot_every = 1
"""


def _assert_snapshots_are_the_run_states(cfg, traj, shared):
    # snapshot 0 is cfg.initial; no two snapshots share a field array but
    # the ``shared`` fields, which are cfg.initial's read-only ones; every
    # other field after step 0 is the run's own, writeable array
    assert traj.states[0] is cfg.initial
    own = []
    for name in FIELDS:
        arrays = [getattr(s, name) for s in traj.states]
        if name in shared:
            initial = getattr(cfg.initial, name)
            assert all(f is initial for f in arrays), name
            with pytest.raises(ValueError):
                initial[0] = 1.0
        else:
            own += arrays
            assert all(f.flags.writeable for f in arrays[1:]), name
    assert len({id(f) for f in own}) == len(own)


def test_spherical_snapshots_share_one_read_only_v_and_w():
    cfg = parse_config(_BUMP_64)
    traj = run(cfg)
    assert traj.reason == "completed"
    assert len(traj.states) == traj.steps + 1 > 2
    _assert_snapshots_are_the_run_states(cfg, traj, shared=("v", "w"))
    again = run(cfg)
    assert again.snapshot_steps == traj.snapshot_steps
    for a, b in zip(traj.states, again.states, strict=True):
        assert a.t == b.t
        for name in FIELDS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    for name in SERIES_COLUMNS:
        assert (again.series.column(name).tobytes()
                == traj.series.column(name).tobytes()), name


def test_spherical_restart_keeps_a_negative_zero_v_in_every_snapshot(
        tmp_path):
    g = make_grid(1, 2, 64, 2)
    s = preset("vacuum_bump", g)
    s.v = np.full(g.n, -0.0)
    path = tmp_path / "restart.csv"
    write_snapshot(path, s)
    cfg = parse_config(_BUMP_64.replace('preset = "vacuum_bump"',
                                        f'file = "{path}"'))
    traj = run(cfg)
    assert traj.reason == "completed" and len(traj.states) == traj.steps + 1
    assert traj.steps >= 2
    write_trajectory(tmp_path / "out", traj)
    column = SNAPSHOT_COLUMNS.index("v")
    for step in traj.snapshot_steps:
        lines = (tmp_path / "out" / snapshot_filename(step)).read_text()
        rows = lines.splitlines()[1:]
        assert len(rows) == g.n
        assert {row.split(",")[column] for row in rows} == {"-0"}, step


def test_cylindrical_snapshots_keep_their_own_v_and_w():
    cfg = parse_config(_swirl_text(64, "t_end = 0.03"))
    traj = run(cfg)
    assert traj.reason == "completed" and len(traj.states) > 3
    _assert_snapshots_are_the_run_states(cfg, traj, shared=())


@pytest.mark.parametrize("text", [_BUMP_64, _swirl_text(64, "t_end = 0.03")],
                         ids=["spherical", "swirl"])
def test_snapshots_keep_no_memory_beyond_their_fields(text):
    # a field that is a view of a larger buffer (a solve's work rows) would
    # keep that whole buffer alive in the trajectory
    traj = run(parse_config(text))
    assert len(traj.states) == traj.steps + 1 > 2
    arrays = {id(f): f for f in (getattr(s, name) for s in traj.states
                                 for name in FIELDS)}
    buffers = {}
    for f in arrays.values():
        base = f if f.base is None else f.base
        buffers[id(base)] = base
    assert (sum(b.nbytes for b in buffers.values())
            == sum(f.nbytes for f in arrays.values()))
