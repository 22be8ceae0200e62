import math
import warnings

import numpy as np
import pytest

import symns.stepper
from symns.config import parse_config
from symns.constitutive import GasModel, ideal_gas
from symns.errors import ConfigError, DtUnderflow, SolverFailure
from symns.grid import make_grid, weighted_integral
from symns.initdata import preset
from symns.state import State
from symns.stepper import (StepControls, cfl_dt, run, step_continuity,
                           step_detailed, step_momentum, step_temperature)
from symns.tridiag import solve_tridiagonal

MODEL = ideal_gas()


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
    u, v, w = step_momentum(s, 1e-3, MODEL, StepControls())
    assert not u.any() and not v.any() and not w.any()


def test_momentum_zero_swirl_preserved_bitwise(rng):
    # cylindrical (m = 1), where v and w are solved
    g = make_grid(1, 2, 64, 1)
    s = preset("manufactured", g)
    assert not s.v.any() and not s.w.any()
    u, v, w = step_momentum(s, 1e-3, MODEL, StepControls())
    assert not v.any() and not w.any()
    assert u.any()  # pressure gradient accelerates the radial component


def test_momentum_vacuum_rows_frozen():
    # cylindrical (m = 1), where all three components are solved
    g = make_grid(1, 2, 64, 1)
    s = preset("vacuum_bump", g)
    s.u = 0.01 * np.sin(np.pi * (g.centers - 1.0))
    s.v = 0.02 * np.cos(np.pi * (g.centers - 1.0))
    s.w = 0.03 + 0.01 * g.centers
    c = StepControls()
    vac = s.rho < c.rho_vac_tol
    assert vac.any()
    new = step_momentum(s, 1e-4, MODEL, c)
    for name, f in zip("uvw", new):
        assert np.array_equal(f[vac], getattr(s, name)[vac]), name


def test_spherical_momentum_solves_radial_only(monkeypatch):
    g = make_grid(1, 2, 64, 2)
    s = preset("vacuum_bump", g)
    s.u = 0.01 * np.sin(np.pi * (g.centers - 1.0))
    contexts = []

    def counting(*args, context):
        contexts.append(context)
        return solve_tridiagonal(*args, context=context)

    monkeypatch.setattr(symns.stepper, "solve_tridiagonal", counting)
    u, v, w = step_momentum(s, 1e-4, MODEL, StepControls())
    assert len(contexts) == 1 and "radial momentum" in contexts[0]
    assert v is s.v and w is s.w
    assert u.any()


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


def test_run_constant_state_is_bitwise_fixed_through_the_predictor(
        monkeypatch):
    # from the third step on, run seeds the temperature solve with the
    # quadratic extrapolation, which must reproduce a constant exactly
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


def test_run_agrees_with_unseeded_steps():
    # the swirl pin config of test_bitwise, stepped without any guess
    cfg = parse_config("""
[grid]
n = 64
m = 1
[init]
preset = "swirl_cylinder"
swirl = 0.2
[controls]
t_end = 1.0
""")
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
        assert diff <= 1e-10 * np.abs(want).max(), name


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


def test_large_vacuum_bump_converges_at_default_picard_max():
    # two temperature steps of this run need 11 or more Picard sweeps; at
    # picard_max = 10 it still completes, with relative updates 3.2e-5 and
    # 1.1e-9 left against picard_tol = 1e-10
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
