"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (written straight to the terminal so the report shows
under pytest's capture)."""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from symns.config import parse_config
from symns.constitutive import heat_capacity, ideal_gas, pressure
from symns.diagnostics import (DiagnosticsSeries, Trajectory,
                               blowup_indicator, blowup_indicator_series,
                               record_step)
from symns.grid import make_grid, weighted_lp_norm
from symns.initdata import (compatibility_residuals, preset, regularize,
                            solve_initial_velocity)
from symns.operators import (dissipation, face_kappa, heat_flux_div,
                             lame_operator, lame_stencil, radial_div)
from symns.state import State
from symns.stepper import (StepControls, run, step_detailed, step_momentum,
                           step_temperature)

MODEL = ideal_gas()           # mu=1, lam=0, kappa = 1 + theta^2

_REPORTER = None


@pytest.fixture(autouse=True)
def _grab_terminal_reporter(request):
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    line = f"[criterion {num:2d}] {tag}: {desc}{extra}"
    if _REPORTER is not None:
        _REPORTER.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {desc}{extra}"


@pytest.fixture(scope="module")
def vacuum_run():
    cfg = parse_config("""
[grid]
n = 256
[init]
preset = "vacuum_bump"
[controls]
t_end = 0.1
""")
    t0 = time.perf_counter()
    traj = run(cfg)
    return traj, time.perf_counter() - t0


def test_criterion_01_mass_conservation(vacuum_run):
    traj, elapsed = vacuum_run
    m = traj.series.column("mass")
    drift = float(np.max(np.abs(m - m[0])) / m[0])
    ok = (traj.reason == "completed" and drift <= 1e-12 and elapsed < 10.0)
    _report(1, "mass conservation on the vacuum-bump run (n=256, t=0.1)",
            ok, f"max relative drift {drift:.2e}, {traj.steps} steps, "
                f"{elapsed:.2f}s")


def test_criterion_02_energy_drift_refinement():
    t0 = time.perf_counter()

    def max_drift(n, dt, t_end=0.1):
        g = make_grid(1, 2, n, 2)
        s = preset("manufactured", g, amplitude=0.05)
        c = StepControls(dt_max=dt)
        from symns.diagnostics import total_energy
        e0 = total_energy(s, MODEL)
        worst = 0.0
        for _ in range(int(round(t_end / dt))):
            s, _ = step_detailed(s, c, MODEL, dt=dt)
            worst = max(worst, abs(total_energy(s, MODEL) - e0) / e0)
        return worst

    d1 = max_drift(64, 2e-3)
    d2 = max_drift(128, 1e-3)
    ratio = d1 / d2
    elapsed = time.perf_counter() - t0
    ok = 1.6 <= ratio <= 2.6 and elapsed < 60.0
    _report(2, "energy drift shrinks first-order under (2n, dt/2) refinement",
            ok, f"drift {d1:.3e} -> {d2:.3e}, ratio {ratio:.2f}, "
                f"{elapsed:.1f}s")


def test_criterion_03_equilibrium_fixed_point():
    g = make_grid(1, 2, 64, 2)
    s0 = preset("equilibrium", g)
    s = s0.copy()
    c = StepControls()
    for _ in range(1000):
        s, _ = step_detailed(s, c, MODEL)
    worst = max(float(np.max(np.abs(getattr(s, f) - getattr(s0, f))))
                for f in ("rho", "u", "v", "w", "theta"))
    _report(3, "equilibrium is a fixed point over 1000 steps",
            worst <= 1e-12, f"max pointwise change {worst:.2e}")


def test_criterion_04_zero_swirl_invariance():
    g = make_grid(1, 2, 64, 2)
    s = preset("manufactured", g, amplitude=0.02)  # spherical: v = w = 0
    c = StepControls()
    ok = True
    for _ in range(1000):
        s, _ = step_detailed(s, c, MODEL)
        if s.v.any() or s.w.any():
            ok = False
            break
    _report(4, "v and w remain exactly zero for 1000 spherical steps", ok)


def test_criterion_05_operator_null_cases():
    worst_rel = 0.0
    ok = True
    for m in (1, 2, 3):
        g = make_grid(1, 2, 8, m)
        x = g.centers
        lam_null = lame_operator(g, x.copy())[1:-1]
        lame_scale = 4 * np.spacing(m / x[1:-1])
        ok &= bool(np.all(np.abs(lam_null) <= lame_scale))

        u = x ** (-float(m))
        div_null = radial_div(g, u, form="flux")[1:-1]
        term = (x ** m * u) / (2 * g.dx * x ** m)
        div_scale = 4 * np.spacing(term[1:-1])
        ok &= bool(np.all(np.abs(div_null) <= div_scale))
        worst_rel = max(worst_rel,
                        float(np.max(np.abs(lam_null) / lame_scale)),
                        float(np.max(np.abs(div_null) / div_scale)))
    _report(5, "lame(x) = 0 and radial_div(x^-m) = 0 within 4 ulps, "
               "m in {1,2,3}", ok, f"worst fraction of budget {worst_rel:.2f}")


def test_criterion_06_dissipation_positivity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        m = int(rng.integers(1, 4))
        mu = float(rng.uniform(0.1, 10.0))
        lam = -float(rng.uniform(0.01, 0.99)) * 2.0 * mu / (m + 1)
        model = ideal_gas(mu=mu, lam=lam)
        g = make_grid(1, 2, 16, m)
        u, v, w = rng.standard_normal((3, 16))
        worst = min(worst, float(dissipation(g, u, v, w, model).min()))
    _report(6, "dissipation >= -1e-12 over 1e4 random admissible "
               "states with lam < 0", worst >= -1e-12,
            f"pointwise min {worst:.2e}")


def test_criterion_07_auxiliary_elliptic_problem():
    rng = np.random.default_rng(11)
    # (a) manufactured RHS against a dense solve of the same matrix
    n = 128
    g = make_grid(1, 2, n, 2)
    d = regularize(preset("vacuum_bump", g), 1e-6)
    g1 = np.sin(3.0 * g.centers) + 0.5 * rng.standard_normal(n)
    u = solve_initial_velocity(MODEL, d.rho, d.theta, g1, g)
    sub, diag, sup = lame_stencil(g)
    beta = MODEL.beta
    A = (np.diag(-beta * diag) + np.diag(-beta * sub[1:], -1)
         + np.diag(-beta * sup[:-1], 1))
    from symns.operators import ddx
    rhs = ddx(g, pressure(MODEL, d.rho, d.theta), "neumann0") \
        + np.sqrt(d.rho) * g1
    dense_err = float(np.max(np.abs(u - np.linalg.solve(A, -rhs))))

    # (b) g1 round-trip through the compatibility residuals
    rt_err = 0.0
    for n in (64, 128, 256):
        g = make_grid(1, 2, n, 2)
        d = regularize(preset("vacuum_bump", g), 1e-6)
        g1 = np.sin(2.0 * g.centers) + 0.3 * rng.standard_normal(n)
        u = solve_initial_velocity(MODEL, d.rho, d.theta, g1, g)
        res = compatibility_residuals(replace(d, u=u), MODEL)
        mask = d.rho >= 1e-6
        rt_err = max(rt_err, float(np.max(np.abs(res.g1[mask] - g1[mask]))))
    ok = dense_err <= 1e-10 and rt_err <= 1e-8
    _report(7, "initial-velocity solve: dense oracle and g1 round-trip",
            ok, f"dense err {dense_err:.2e} <= 1e-10, "
                f"round-trip err {rt_err:.2e} <= 1e-8")


def _mms_momentum(n, dt, nsteps, m=2):
    g = make_grid(1, 2, n, m)
    x = g.centers
    k = math.pi / (g.b - g.a)
    amp = 0.01
    beta = MODEL.beta
    c = StepControls()
    rho = np.ones(n)
    zero = np.zeros(n)
    u = amp * np.sin(k * (x - g.a))
    for j in range(nsteps):
        t = j * dt
        s_ = np.sin(k * (x - g.a))
        c_ = np.cos(k * (x - g.a))
        e = math.exp(-t)
        force = (-amp * s_ * e + amp * amp * k * s_ * c_ * e * e
                 - beta * amp * e * (-k * k * s_ + m * k * c_ / x
                                     - m * s_ / x ** 2))
        st = State(g, t, rho, u, zero, zero, zero)
        u, _, _ = step_momentum(st, dt, MODEL, c, force_u=force)
    return g, u, nsteps * dt, amp, k


def test_criterion_08_mms_convergence_orders():
    t0 = time.perf_counter()
    # spatial: fixed tiny dt, error against the exact manufactured solution
    errs, dxs = [], []
    for n in (16, 32, 64):
        g, u, t, amp, k = _mms_momentum(n, 2e-5, 2400)
        exact = amp * np.sin(k * (g.centers - g.a)) * math.exp(-t)
        errs.append(weighted_lp_norm(g, u - exact, 2))
        dxs.append(g.dx)
    sp_order = float(np.polyfit(np.log(dxs), np.log(errs), 1)[0])

    # temporal: fixed grid, self-convergence against a small-dt reference
    g, uref, _, _, _ = _mms_momentum(64, 1e-4, 480)
    terrs, dts = [], []
    for dt, ns in ((4e-3, 12), (2e-3, 24), (1e-3, 48)):
        _, u, _, _, _ = _mms_momentum(64, dt, ns)
        terrs.append(weighted_lp_norm(g, u - uref, 2))
        dts.append(dt)
    t_order = float(np.polyfit(np.log(dts), np.log(terrs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = sp_order >= 1.8 and t_order >= 0.9 and elapsed < 120.0
    _report(8, "manufactured momentum test: spatial order >= 1.8, "
               "temporal order >= 0.9", ok,
            f"spatial {sp_order:.2f}, temporal {t_order:.2f}, {elapsed:.0f}s")


def test_criterion_09_weighted_supnorm_inequality():
    rng = np.random.default_rng(101)
    violations = 0
    total = 0
    while total < 100_000:
        batch = 2000
        n = int(rng.integers(8, 65))
        dx = 1.0 / n
        rho = rng.exponential(1.0, (batch, n))
        rho *= rng.random((batch, n)) > 0.3       # sprinkle vacuum
        seg = rho.sum(axis=1) * dx
        keep = seg > 0.0
        v = rng.standard_normal((batch, n)) \
            * rng.lognormal(0.0, 2.0, (batch, 1))
        lhs = np.abs(v).max(axis=1)
        tv = np.abs(np.diff(v, axis=1)).sum(axis=1)
        rho_v = (rho * v).sum(axis=1) * dx
        rhs = tv + np.abs(rho_v[keep]) / seg[keep]
        violations += int(np.sum(lhs[keep] > rhs * (1.0 + 1e-8)))
        total += int(keep.sum())
    _report(9, "discrete mass-weighted sup-norm inequality, 1e5 instances",
            violations == 0, f"{total} instances, {violations} violations")


def test_criterion_10_blowup_indicator(vacuum_run):
    # closed form on frozen constant fields
    g = make_grid(1, 2, 64, 2)
    zero = np.zeros(64)
    ser = DiagnosticsSeries()
    for i, t in enumerate((0.0, 0.5, 1.0)):
        s = State(g, t, np.ones(64), zero, zero, zero, np.ones(64))
        record_step(ser, s, MODEL, step=i, dt=0.5 if i else 0.0, alpha=0.5,
                    clip_cum=0.0)
    frozen = Trajectory(states=[], snapshot_steps=[], series=ser,
                        reason="completed", steps=2, diag_alpha=0.5)
    expected = 1.0 + (4 * math.pi * 7 / 3) ** (5 / 3)
    closed_err = abs(blowup_indicator(frozen) - expected) / expected

    # monotone along real runs
    traj, _ = vacuum_run
    mono = True
    for tr in (traj,):
        series = blowup_indicator_series(tr)
        mono &= bool(np.all(np.diff(series) >= -1e-12 * np.abs(series[:-1])))

    # refinement-pair drift on the smooth regression scenario
    def smooth_indicator(n):
        cfg = parse_config(f"""
[grid]
n = {n}
[init]
preset = "manufactured"
[controls]
t_end = 0.05
""")
        return blowup_indicator(run(cfg))

    b1, b2 = smooth_indicator(64), smooth_indicator(128)
    drift = abs(b1 - b2) / b2
    ok = closed_err <= 1e-10 and mono and drift <= 0.02
    _report(10, "blow-up indicator: closed form, monotonicity, refinement",
            ok, f"closed-form rel err {closed_err:.2e}, refinement drift "
                f"{drift:.2e}")


def test_criterion_11_vacuum_robustness(vacuum_run):
    traj, _ = vacuum_run
    s = traj.final_state
    m0 = traj.series.column("mass")[0]
    clip = float(traj.series.column("clip_mass_cumulative")[-1])
    ok = (traj.reason == "completed"
          and bool(np.all(traj.series.column("min_rho") >= 0.0))
          and float(s.rho.min()) >= 0.0
          and float(s.theta.min()) >= 0.0
          and clip <= 1e-10 * m0
          and s.is_finite()
          and all(np.isfinite(traj.series.column(c)).all()
                  for c in ("mass", "total_energy", "max_theta")))
    _report(11, "vacuum-bump run: nonnegative fields, bounded clips, no NaN",
            ok, f"reason {traj.reason}, cumulative clip {clip:.2e}")


def test_criterion_12_nonlinear_conduction_oracle():
    t0 = time.perf_counter()
    model = ideal_gas(q=2.0)                     # kappa = 1 + theta^2
    n, t_end = 64, 0.01

    g = make_grid(1, 2, n, 2)
    theta = 1.0 + 0.5 * np.cos(np.pi * (g.centers - 1.0))
    zero = np.zeros(n)
    rho = np.ones(n)
    c = StepControls()
    dt = 1e-5
    for j in range(int(round(t_end / dt))):
        s = State(g, j * dt, rho, zero, zero, zero, theta)
        theta, _, _ = step_temperature(s, dt, model, c)

    gf = make_grid(1, 2, 8 * n, 2)
    thf = 1.0 + 0.5 * np.cos(np.pi * (gf.centers - 1.0))
    rhof = np.ones(8 * n)
    kmax = float(np.max(model.kappa0 * (1.0 + thf ** 2)))
    dte = 0.2 * gf.dx ** 2 / kmax
    nst = int(np.ceil(t_end / dte))
    dte = t_end / nst
    for _ in range(nst):
        qp = heat_capacity(model, thf)
        kf = face_kappa(gf, model, thf)
        thf = thf + dte * heat_flux_div(gf, kf, thf) / (rhof * qp)
    oracle = thf.reshape(n, 8).mean(axis=1)

    rel = weighted_lp_norm(g, theta - oracle, 2) / weighted_lp_norm(g, oracle, 2)
    elapsed = time.perf_counter() - t0
    _report(12, "kappa = 1 + theta^2 conduction vs 8x explicit oracle",
            rel <= 1e-3, f"L2 relative diff {rel:.2e}, {elapsed:.1f}s")
