import math

import numpy as np
import pytest

from symns.constitutive import GasModel, internal_energy
from symns.diagnostics import (DiagnosticsSeries, Trajectory, alt_criteria,
                               blowup_indicator, blowup_indicator_series,
                               entropy_dissipation, kinetic_energy, mass,
                               record_step, sup_theta_time_integral,
                               total_energy, SERIES_COLUMNS)
from symns.grid import make_grid, weighted_integral
from symns.initdata import preset
from symns.state import State

MODEL = GasModel()


def _frozen_trajectory(g, rho, theta, times, model=MODEL, alpha=0.5):
    """Trajectory whose fields are constant in time (diagnostics-only)."""
    z = np.zeros(g.n)
    ser = DiagnosticsSeries()
    states = []
    for i, t in enumerate(times):
        s = State(g, t, rho, z, z, z, theta)
        record_step(ser, s, model, step=i, dt=0.0 if i == 0 else
                    times[i] - times[i - 1], alpha=alpha, clip_cum=0.0)
        states.append(s)
    return Trajectory(states=states, snapshot_steps=list(range(len(times))),
                      series=ser, reason="completed", steps=len(times) - 1,
                      diag_alpha=alpha)


def test_mass_constant_field():
    g = make_grid(1, 2, 40, 2)
    s = State(g, 0.0, np.ones(40), *(np.zeros(40),) * 3, np.ones(40))
    assert mass(s) == pytest.approx(7 / 3, rel=1e-15)


def test_mass_vacuum_bump_quadrature_oracle():
    # closed-form-free check: against Simpson at 16x resolution, O(dx^2)
    def bump(x):
        xi = (x - 1.5) / 0.25
        out = np.zeros_like(x)
        inside = np.abs(xi) < 1
        out[inside] = ((1 + np.cos(np.pi * xi[inside])) / 2) ** 2
        return out

    errs = []
    for n in (64, 128):
        g = make_grid(1, 2, n, 2)
        nn = 16 * n
        xs = np.linspace(1, 2, nn + 1)
        y = xs ** 2 * bump(xs)
        simpson = (1.0 / nn / 3) * (y[0] + y[-1] + 4 * y[1:-1:2].sum()
                                    + 2 * y[2:-1:2].sum())
        s = State(g, 0.0, bump(g.centers), *(np.zeros(n),) * 3, np.ones(n))
        errs.append(abs(mass(s) - simpson))
    assert errs[0] / errs[1] > 3.0


def test_total_energy_examples(rng):
    g = make_grid(1, 2, 40, 2)
    z = np.zeros(40)
    s = State(g, 0.0, np.ones(40), z, z, z, np.ones(40))
    assert total_energy(s, MODEL) == pytest.approx(7 / 3, rel=1e-15)
    # random state: matches split kinetic + internal recomputation
    rho = np.abs(rng.standard_normal(40))
    u, v, w = rng.standard_normal((3, 40))
    theta = np.abs(rng.standard_normal(40))
    s = State(g, 0.0, rho, u, v, w, theta)
    split = kinetic_energy(s) + weighted_integral(
        g, rho * internal_energy(MODEL, rho, theta))
    tot = total_energy(s, MODEL)
    assert abs(tot - split) <= 2 * np.spacing(abs(tot)) + 1e-15


def test_entropy_dissipation_zero_for_flat_theta():
    g = make_grid(1, 2, 32, 2)
    traj = _frozen_trajectory(g, np.ones(32), np.full(32, 2.0),
                              [0.0, 0.5, 1.0])
    assert entropy_dissipation(traj) == 0.0


def test_entropy_dissipation_alpha_interval():
    # the integrand is recorded at one alpha, so record_step checks it
    g = make_grid(1, 2, 32, 2)
    s = State(g, 0.0, np.ones(32), *(np.zeros(32),) * 3, np.ones(32))

    def record(model, alpha):
        record_step(DiagnosticsSeries(), s, model, step=0, dt=0.0,
                    alpha=alpha, clip_cum=0.0)

    # q = 2, r = 0: open interval (0, 1)
    with pytest.raises(ValueError):
        record(MODEL, 1.0)
    with pytest.raises(ValueError):
        record(MODEL, 0.0)
    with pytest.raises(ValueError):
        record(GasModel(q=0.5), 0.5)  # alpha = q - r excluded


def test_record_block_rejects_unequal_columns():
    # a scalar step next to a block of two states is one row of step and
    # two of everything else; nothing is recorded
    g = make_grid(1, 2, 32, 2)
    s = State(g, 0.0, np.ones(32), *(np.zeros(32),) * 3, np.ones(32))
    ser = DiagnosticsSeries()
    with pytest.raises(ValueError, match=r"unequal length.*'step': 1, 't': 2"):
        record_step(ser, [s, s], MODEL, step=5, dt=[0.0, 0.0], alpha=0.5,
                    clip_cum=[0.0, 0.0])
    assert len(ser) == 0 and not any(ser.rows.values())


def test_sup_theta_time_integral():
    g = make_grid(1, 2, 32, 2)
    traj = _frozen_trajectory(g, np.ones(32), np.ones(32), [0.0, 0.7, 2.0])
    assert sup_theta_time_integral(traj, 3.0) == pytest.approx(2.0)
    assert sup_theta_time_integral(traj, 0.0) == pytest.approx(2.0)  # = T
    # power monotonicity when max theta >= 1 throughout
    traj2 = _frozen_trajectory(g, np.ones(32), np.full(32, 1.5),
                               [0.0, 1.0, 2.0])
    q, r, alpha = MODEL.q, MODEL.r, 0.5
    lo = sup_theta_time_integral(traj2, q - alpha + 1)
    hi = sup_theta_time_integral(traj2, 2 * q + 2)
    assert lo <= hi


def test_blowup_indicator_closed_form():
    g = make_grid(1, 2, 64, 2)
    traj = _frozen_trajectory(g, np.ones(64), np.ones(64), [0.0, 0.5, 1.0])
    expected = 1.0 + (4 * math.pi * 7 / 3) ** (5 / 3)
    assert blowup_indicator(traj) == pytest.approx(expected, rel=1e-10)


def test_blowup_indicator_t0_is_max_rho():
    g = make_grid(1, 2, 64, 2)
    rho = np.linspace(0.5, 2.0, 64)
    traj = _frozen_trajectory(g, rho, np.ones(64), [0.0])
    assert blowup_indicator(traj) == pytest.approx(2.0)


def _series_trajectory(t, **columns):
    """Trajectory whose series has the given columns (others zero) at the
    times t; its one state is never read."""
    ser = DiagnosticsSeries()
    rows = {k: [0.0] * len(t) for k in SERIES_COLUMNS}
    rows.update(t=list(t), **{k: list(v) for k, v in columns.items()})
    ser.extend(**rows)
    return Trajectory(states=[None], snapshot_steps=[0], series=ser,
                      reason="completed", steps=len(t) - 1, diag_alpha=0.5)


@pytest.mark.filterwarnings("error")
def test_time_functionals_do_not_overflow_on_finite_data():
    # the integrands 1e320 and 1e312 pass the float range; the integrals do not
    traj = _series_trajectory([0.0, 1e-100], max_rho=[1.0, 1.0],
                              rho_theta_norm_12_5=[1e80, 1e80],
                              max_theta=[1e52, 1e52])
    assert blowup_indicator(traj) == pytest.approx(1e220, rel=1e-13)
    assert sup_theta_time_integral(traj, 6) == pytest.approx(1e212, rel=1e-13)


@pytest.mark.filterwarnings("error")
def test_time_functionals_are_inf_only_past_the_float_range():
    past = _series_trajectory([0.0, 1.0], rho_theta_norm_12_5=[1e80, 1e80],
                              max_theta=[1e52, 1e52])
    assert blowup_indicator(past) == math.inf
    assert sup_theta_time_integral(past, 6) == math.inf
    recorded = _series_trajectory([0.0, 1e-300],
                                  rho_theta_norm_12_5=[1.0, math.inf],
                                  max_theta=[1.0, math.inf])
    assert blowup_indicator(recorded) == math.inf
    assert sup_theta_time_integral(recorded, 6) == math.inf


def test_blowup_series_monotone_on_run():
    from symns.config import parse_config
    from symns.stepper import run
    cfg = parse_config("""
[grid]
n = 48
[init]
preset = "vacuum_bump"
[controls]
t_end = 0.02
""")
    traj = run(cfg)
    series = blowup_indicator_series(traj)
    assert np.all(np.diff(series) >= -1e-12 * np.abs(series[:-1]))


def test_entropy_dissipation_refinement_stable():
    # pure-conduction runs at n and 2n agree within 5%
    from symns.stepper import StepControls, step_temperature
    model = GasModel(q=2.0)
    alpha = 0.5

    def conduction_value(n, dt, nsteps):
        g = make_grid(1, 2, n, 2)
        c = StepControls()
        rho = np.ones(n)
        z = np.zeros(n)
        th = 1.0 + 0.5 * np.cos(np.pi * (g.centers - 1.0))
        ser = DiagnosticsSeries()
        s = State(g, 0.0, rho, z, z, z, th)
        record_step(ser, s, model, step=0, dt=0.0, alpha=alpha, clip_cum=0.0)
        for j in range(nsteps):
            th, _, _ = step_temperature(s, dt, model, c)
            s = State(g, (j + 1) * dt, rho, z, z, z, th)
            record_step(ser, s, model, step=j + 1, dt=dt, alpha=alpha,
                        clip_cum=0.0)
        traj = Trajectory(states=[s], snapshot_steps=[nsteps], series=ser,
                          reason="completed", steps=nsteps, diag_alpha=alpha)
        return entropy_dissipation(traj)

    e1 = conduction_value(64, 4e-5, 250)
    e2 = conduction_value(128, 2e-5, 500)
    assert abs(e1 - e2) / e2 <= 0.05


def _jump_case_entropy_dissipation(n, tmp_path):
    """entropy_dissipation of the jump case (ideal gas, q = 2, m = 2): rho
    2 / 0.5 split at x = 1.5, theta 1.5 / 1 split at x = 1.25, both on
    cell faces, at rest, to t = 0.05 in steps of dt_max = 2e-5."""
    from symns.config import parse_config
    from symns.io import write_snapshot
    from symns.stepper import run
    g = make_grid(1, 2, n, 2)
    x, z = g.centers, np.zeros(n)
    path = tmp_path / f"jump_{n}.csv"
    write_snapshot(path, State(g, 0.0, np.where(x < 1.5, 2.0, 0.5), z, z, z,
                               np.where(x < 1.25, 1.5, 1.0)))
    traj = run(parse_config(f"""
[grid]
a = 1.0
b = 2.0
n = {n}
m = 2
[model]
family = "ideal"
mu = 1.0
lam = 0.0
q = 2.0
[init]
file = "{path}"
[controls]
t_end = 0.05
dt_max = 2e-5
"""))
    assert traj.reason == "completed"
    return entropy_dissipation(traj)


def test_entropy_dissipation_converges_on_a_temperature_jump(tmp_path):
    # the t = 0 integrand grows like 1/dx on a theta jump; the
    # right-endpoint rule leaves it out, so the value settles under
    # refinement (the trapezoid rule moved 2.4% here)
    e1 = _jump_case_entropy_dissipation(256, tmp_path)
    e2 = _jump_case_entropy_dissipation(512, tmp_path)
    assert abs(e1 - e2) / e2 < 0.005


def test_alt_criteria_vacuum_flag():
    g = make_grid(1, 2, 64, 2)
    d = preset("vacuum_bump", g)
    traj = _frozen_trajectory(g, d.rho, d.theta, [0.0, 0.5])
    crit = alt_criteria(traj)
    assert math.isinf(crit.sun_wang_zhang)
    assert math.isinf(crit.inv_rho_sup)


def test_alt_criteria_zero_velocity_reduces_to_sup_theta():
    g = make_grid(1, 2, 64, 2)
    traj = _frozen_trajectory(g, np.ones(64), np.full(64, 3.0), [0.0, 1.0])
    crit = alt_criteria(traj)
    assert crit.fan_jiang_ou == pytest.approx(3.0)
    assert crit.grad_u_l1t == 0.0


def test_alt_criteria_constant_fields_closed_form():
    g = make_grid(1, 2, 64, 2)
    traj = _frozen_trajectory(g, np.full(64, 2.0), np.full(64, 3.0),
                              [0.0, 1.0])
    crit = alt_criteria(traj)
    assert crit.fang_zi_zhang == pytest.approx(5.0)
    assert crit.sun_wang_zhang == pytest.approx(5.5)


def test_record_step_m3_ambient_norm_is_nan():
    g = make_grid(1, 2, 16, 3)
    z = np.zeros(16)
    s = State(g, 0.0, np.ones(16), z, z, z, np.ones(16))
    ser = DiagnosticsSeries()
    record_step(ser, s, MODEL, step=0, dt=0.0, alpha=0.5, clip_cum=0.0)
    assert math.isnan(ser.rows["rho_theta_norm_12_5"][0])
    assert ser.rows["mass"][0] == pytest.approx(weighted_integral(g, s.rho))
