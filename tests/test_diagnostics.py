import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from symns.constitutive import ideal_gas, internal_energy
from symns.diagnostics import (DiagnosticsSeries, Trajectory, alt_criteria,
                               blowup_indicator, blowup_indicator_series,
                               entropy_dissipation, kinetic_energy, mass,
                               record_step, sup_theta_time_integral,
                               total_energy, weighted_supnorm_check,
                               SERIES_COLUMNS)
from symns.grid import make_grid, weighted_integral
from symns.initdata import preset
from symns.state import State

MODEL = ideal_gas()


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
        record(ideal_gas(q=0.5), 0.5)  # alpha = q - r excluded


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
    for i, ti in enumerate(t):
        row = dict.fromkeys(SERIES_COLUMNS, 0.0)
        row.update(t=ti, **{k: v[i] for k, v in columns.items()})
        ser.append(**row)
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
    model = ideal_gas(q=2.0)
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


def test_supnorm_check_constant_v():
    g = make_grid(1, 2, 32, 2)
    rho = np.abs(np.sin(g.centers)) + 0.2
    chk = weighted_supnorm_check(g, rho, np.full(32, -4.0))
    assert chk.passed
    assert chk.lhs == pytest.approx(4.0)
    assert chk.rhs >= 4.0


def test_supnorm_check_zero_mass_errors():
    g = make_grid(1, 2, 32, 2)
    with pytest.raises(ValueError):
        weighted_supnorm_check(g, np.zeros(32), np.ones(32))
    with pytest.raises(ValueError):
        weighted_supnorm_check(g, -np.ones(32), np.ones(32))


# magnitudes capped away from the denormal range: products like rho*v/M
# must stay representable for the discrete inequality to be meaningful
_rho_elems = st.one_of(st.just(0.0), st.floats(1e-120, 100))
_v_elems = st.one_of(st.just(0.0), st.floats(1e-120, 1e6),
                     st.floats(-1e6, -1e-120))


@given(hnp.arrays(np.float64, 32, elements=_rho_elems),
       hnp.arrays(np.float64, 32, elements=_v_elems))
def test_supnorm_check_random(rho, v):
    g = make_grid(1, 2, 32, 2)
    if not np.sum(rho) > 0:
        return
    assert weighted_supnorm_check(g, rho, v).passed


def test_record_step_m3_ambient_norm_is_nan():
    g = make_grid(1, 2, 16, 3)
    z = np.zeros(16)
    s = State(g, 0.0, np.ones(16), z, z, z, np.ones(16))
    ser = DiagnosticsSeries()
    record_step(ser, s, MODEL, step=0, dt=0.0, alpha=0.5, clip_cum=0.0)
    assert math.isnan(ser.rows["rho_theta_norm_12_5"][0])
    assert ser.rows["mass"][0] == pytest.approx(weighted_integral(g, s.rho))
