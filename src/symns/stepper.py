"""Time integration: sequential splitting continuity -> momentum -> temperature.

Each step advances the density with an explicit conservative upwind flux
(exact mass telescoping, zero wall flux), then the velocity with explicit
advection/sources and an implicit tridiagonal viscous solve per component
(u, v and w when m = 1; u alone otherwise, since a spherically symmetric
velocity is radial), then the temperature with a Picard-linearized implicit
solve of the Q-form energy equation (frozen face conductivity and heat
capacity per sweep, insulated walls).

Vacuum cells (rho below ``rho_vac_tol``) degenerate: velocity rows are
replaced by identity (frozen velocities keep the advective CFL
meaningful), temperature rows solve the stationary conduction balance
0 = heat_flux_div + dissipation.

The temperature system is solved for the increment theta' - theta, with
the right-hand side evaluated through the same difference operators that
build the matrix; constant states are then exact fixed points bitwise.
``run`` starts each step's Picard loop from theta extrapolated in time
through the last accepted steps (second-order Newton form, linear on the
second step, theta_old on the first); the guess moves the result only
within ``picard_tol`` and reproduces a constant state exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constitutive import GasModel, heat_capacity, pressure, sound_speed
from .diagnostics import DiagnosticsSeries, Trajectory, record_step
from .errors import DtUnderflow, PicardDivergence, SolverFailure
from .grid import Grid, weighted_integral
from .operators import (apply_heat_flux, axial_stencil, ddx, dissipation,
                        face_kappa, heat_flux_coeffs, lame_stencil,
                        radial_div, upwind_derivative)
from .state import State
from .tridiag import solve_tridiagonal

__all__ = [
    "StepControls",
    "StepInfo",
    "cfl_dt",
    "step_continuity",
    "step_momentum",
    "step_temperature",
    "step_detailed",
    "run",
]

_CLIP_WINDOW = 1e-10   # anything more negative is a scheme failure


@dataclass
class StepControls:
    """Time-stepping controls; the ``[controls]`` section of a run config."""
    cfl: float = 0.4
    picard_max: int = 30
    picard_tol: float = 1e-10
    rho_vac_tol: float = 1e-12
    dt_max: float = math.inf
    dt_min: float = 1e-12
    max_steps: int = 1_000_000
    t_end: float = 0.1

    def __post_init__(self):
        """Raise ValueError naming the first out-of-range field."""
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"need 0 < cfl < 1, got {self.cfl}")
        # comparisons are written so that NaN fails them
        for name in ("picard_tol", "rho_vac_tol", "dt_min", "dt_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("picard_max", "max_steps"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.t_end >= 0.0:
            raise ValueError("t_end must be >= 0")


@dataclass
class StepInfo:
    """Per-step bookkeeping returned alongside the new state."""
    dt: float
    clip_rho: float = 0.0      # weighted mass added by flooring rho at 0
    clip_theta: float = 0.0    # weighted amount added by flooring theta at 0
    picard_iters: int = 0


def cfl_dt(s: State, c: StepControls, model: GasModel) -> float:
    """Advective-acoustic CFL step, capped by dt_max, erroring below dt_min."""
    if not s.is_finite():
        raise ValueError("cfl_dt: state contains non-finite values")
    wave = float((np.abs(s.u) + sound_speed(model, s.rho, s.theta)).max())
    if wave < 1e-30:
        if math.isinf(c.dt_max):
            raise SolverFailure("cfl_dt: zero wave speed and no dt_max cap")
        return c.dt_max
    dt = min(c.dt_max, c.cfl * s.grid.dx / wave)
    if dt < c.dt_min:
        raise DtUnderflow(f"cfl_dt: dt = {dt:.3e} fell below dt_min = "
                          f"{c.dt_min:.3e}")
    return dt


def _floor_field(g: Grid, values: np.ndarray, what: str):
    """Clip tiny negatives to zero; report the weighted amount added.
    Negatives beyond the clip window abort the step."""
    worst = float(values.min(initial=0.0))
    if worst >= 0.0:    # False for NaN, which goes on to the full scan
        return values, 0.0
    if worst < -_CLIP_WINDOW:
        cell = int(np.argmin(values))
        raise SolverFailure(f"{what} fell to {worst:.3e} at cell {cell}: "
                            "scheme failure", cell=cell)
    neg = values < 0.0
    if not neg.any():
        return values, 0.0
    clipped = float(np.sum(g.weights[neg] * (-values[neg])))
    values = values.copy()
    values[neg] = 0.0
    return values, clipped


def step_continuity(s: State, dt: float) -> tuple[np.ndarray, float]:
    """Explicit conservative upwind continuity update.

    Face flux x_f^m * rho_upwind * u_face with u_face the neighbor mean and
    zero wall flux; the weight-normalized differences telescope, so total
    weighted mass is conserved to rounding.  Returns (rho', clipped mass).
    """
    g = s.grid
    uf = 0.5 * (s.u[:-1] + s.u[1:])
    rho_up = np.where(uf > 0.0, s.rho[:-1], s.rho[1:])
    flux = np.zeros(g.n + 1)
    flux[1:-1] = g.face_powers[1:-1] * rho_up * uf
    rho_new = s.rho - dt * np.diff(flux) / g.weights
    return _floor_field(g, rho_new, "density")


def step_momentum(s: State, dt: float, model: GasModel, c: StepControls,
                  force_u=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance (u, v, w): explicit upwind advection and geometric/pressure
    sources, then an implicit viscous tridiagonal solve per component.

    Only the cylindrical case (m = 1) carries the angular ``v`` and axial
    ``w``; for m != 1 the velocity is radial, ``u`` alone is advanced and
    ``s.v``, ``s.w`` are returned as they are.  ``s.rho`` must already hold
    the continuity-updated density.  Vacuum rows are frozen at the old
    value.  ``force_u`` is an optional external momentum source density
    (rho*f) for the radial component.
    """
    g = s.grid
    x = g.centers
    rho, u = s.rho, s.u
    vac = rho < c.rho_vac_tol
    has_vac = vac.any()
    P = pressure(model, rho, s.theta)
    Px = ddx(g, P, "neumann0")
    safe_rho = np.where(vac, 1.0, rho) if has_vac else rho
    lame = lame_stencil(g)
    dt_u = dt * u

    # explicit sources of each component, added after the advection in
    # list order (the order fixes the rounding)
    radial = [dt * (s.v ** 2 / x - Px / safe_rho)]
    if force_u is not None:
        radial.append(dt * np.asarray(force_u, dtype=float) / safe_rho)
    components = [("radial", u, model.beta, lame, radial)]
    if g.m == 1:
        components += [
            ("angular", s.v, model.mu, lame, [-(dt_u * s.v / x)]),
            ("axial", s.w, model.mu, axial_stencil(g), []),
        ]
    new = []
    for name, f, coeff, (sub_l, diag_l, sup_l), sources in components:
        star = f - dt_u * upwind_derivative(g, f, u)
        for source in sources:
            star = star + source
        a = -dt * coeff * sub_l
        b = rho - dt * coeff * diag_l
        cc = -dt * coeff * sup_l
        d = rho * star
        if has_vac:
            a[vac] = 0.0
            cc[vac] = 0.0
            b[vac] = 1.0
            d[vac] = f[vac]
        new.append(solve_tridiagonal(a, b, cc, d,
                                     context=f"{name} momentum solve"))
    if g.m != 1:
        new += [s.v, s.w]
    return tuple(new)


def _advection_rows(g, coef, pos, neg):
    """Row contributions of the implicit upwind advection coef * theta_x,
    with the wind masks pos = u > 0 and neg = u < 0.

    Returns (sub, diag, sup); the wall-outward one-sided stencil hits the
    even-extension ghost and cancels, matching upwind_derivative."""
    w = coef / g.dx
    sub = np.where(pos, -w, 0.0)
    diag = np.where(pos, w, np.where(neg, -w, 0.0))
    sup = np.where(neg, w, 0.0)
    if pos[0]:
        sub[0] = 0.0
        diag[0] = 0.0
    if neg[-1]:
        sup[-1] = 0.0
        diag[-1] = 0.0
    return sub, diag, sup


def step_temperature(s: State, dt: float, model: GasModel,
                     c: StepControls, theta_guess=None
                     ) -> tuple[np.ndarray, float, int]:
    """Implicit Picard-linearized temperature update (Q-form).

    ``s`` carries the updated density and velocities and the old
    temperature.  Each sweep freezes kappa at faces and Q' from the
    current iterate and solves the linear tridiagonal system for the
    temperature increment; insulated walls.  Vacuum rows solve
    0 = heat_flux_div + dissipation.  The first iterate is
    ``theta_guess`` when it is given and finite, the old temperature
    otherwise; the guess changes only how many sweeps reach
    ``picard_tol``.  Returns (theta', clipped amount, sweeps used).
    """
    g = s.grid
    rho, u = s.rho, s.u
    vac = rho < c.rho_vac_tol
    has_vac = vac.any()
    theta_old = s.theta
    divu = radial_div(g, u)
    phi = dissipation(g, u, s.v, s.w, model)
    # terms of theta_old and the wind, the same in every sweep
    rho_u = rho * u
    pos = u > 0.0
    neg = u < 0.0
    adv_old = upwind_derivative(g, theta_old, u, "neumann0")
    jump_old = theta_old[1:] - theta_old[:-1]

    theta_k = theta_old
    if theta_guess is not None and np.isfinite(theta_guess).all():
        theta_k = g.require_field(theta_guess)
    delta_prev = math.inf
    grew = 0
    iters = 0
    for iters in range(1, c.picard_max + 1):
        theta_eval = np.maximum(theta_k, 0.0)
        qp = heat_capacity(model, theta_eval)
        kf = face_kappa(g, model, theta_eval)
        cl, cr = heat_flux_coeffs(g, kf)

        rho_qp = rho * qp
        mass = rho_qp / dt
        adv_coef = rho_u * qp
        a_sub, a_diag, a_sup = _advection_rows(g, adv_coef, pos, neg)
        comp = rho_qp * divu

        sub = a_sub - cl
        diag = mass + a_diag + comp + cl + cr
        sup = a_sup - cr
        # increment form: rhs = phi - (advection + compression - conduction)
        # applied to theta_old, all in difference form so constants cancel
        conduction = apply_heat_flux(cl, cr, jump_old)
        rhs = phi - adv_coef * adv_old - comp * theta_old + conduction
        if has_vac:
            sub[vac] = -cl[vac]
            diag[vac] = cl[vac] + cr[vac]
            sup[vac] = -cr[vac]
            rhs[vac] = phi[vac] + conduction[vac]

        delta = solve_tridiagonal(sub, diag, sup, rhs,
                                  context="temperature solve")
        theta_next = theta_old + delta
        change = float(np.abs(theta_next - theta_k).max())
        scale = max(float(np.abs(theta_next).max()), 1e-300)
        rel = change / scale
        theta_k = theta_next
        if rel < c.picard_tol:
            break
        if rel > delta_prev:
            grew += 1
            if grew >= 2:
                raise PicardDivergence(
                    f"temperature Picard update grew to {rel:.3e} over two "
                    "consecutive sweeps")
        else:
            grew = 0
        delta_prev = rel
    else:
        warnings.warn(f"temperature Picard hit picard_max={c.picard_max} "
                      f"with relative update {rel:.3e}", RuntimeWarning)

    theta_new, clipped = _floor_field(g, theta_k, "temperature")
    return theta_new, clipped, iters


def step_detailed(s: State, c: StepControls, model: GasModel, dt=None,
                  force_u=None, theta_guess=None) -> tuple[State, StepInfo]:
    """One full split step; dt chosen by :func:`cfl_dt` unless given.
    ``theta_guess`` seeds the temperature solve (see
    :func:`step_temperature`)."""
    if dt is None:
        dt = cfl_dt(s, c, model)
    rho_new, clip_rho = step_continuity(s, dt)
    s_mom = State(grid=s.grid, t=s.t, rho=rho_new, u=s.u, v=s.v, w=s.w,
                  theta=s.theta)
    u_new, v_new, w_new = step_momentum(s_mom, dt, model, c, force_u=force_u)
    s_tem = State(grid=s.grid, t=s.t, rho=rho_new, u=u_new, v=v_new, w=w_new,
                  theta=s.theta)
    theta_new, clip_theta, iters = step_temperature(
        s_tem, dt, model, c, theta_guess=theta_guess)
    out = State(grid=s.grid, t=s.t + dt, rho=rho_new, u=u_new, v=v_new,
                w=w_new, theta=theta_new)
    return out, StepInfo(dt=dt, clip_rho=clip_rho, clip_theta=clip_theta,
                         picard_iters=iters)


def run(cfg):
    """Run a parsed config from its initial state to t_end; every failure
    becomes a termination reason on the returned trajectory."""
    g = cfg.grid
    model = cfg.model
    state = cfg.initial
    c = cfg.controls
    alpha = cfg.output.diag_alpha
    t_end = c.t_end

    series = DiagnosticsSeries()
    record_step(series, state, model, step=0, dt=0.0, alpha=alpha,
                clip_cum=0.0)
    states = [state.copy()]
    snapshot_steps = [0]
    mass0 = weighted_integral(g, state.rho)

    reason = "completed"
    error_msg = None
    clip_cum = 0.0
    nstep = 0
    # Newton divided differences of theta over the last two accepted steps
    # (d1 the newest slope, d2 its change) and the newest dt; they
    # extrapolate each step's temperature to seed its Picard loop
    d1 = d2 = None
    h_last = 0.0

    # parsing validated the initial state; every later one is checked
    # right after the step that made it (before it reaches record_step);
    # cfl_dt keeps its own check for its other callers
    while state.t < t_end - 1e-14 * max(1.0, t_end):
        if nstep >= c.max_steps:
            reason = "solver_failure"
            error_msg = f"exceeded max_steps = {c.max_steps}"
            break
        try:
            dt = cfl_dt(state, c, model)
            dt = min(dt, t_end - state.t)
            guess = None
            if d1 is not None:
                slope = d1 if d2 is None else d1 + (dt + h_last) * d2
                guess = state.theta + dt * slope
            theta_prev = state.theta
            state, info = step_detailed(state, c, model, dt=dt,
                                        theta_guess=guess)
        except DtUnderflow as exc:
            reason = "dt_underflow"
            error_msg = str(exc)
            break
        except SolverFailure as exc:
            reason = "solver_failure"
            error_msg = f"step {nstep}: {exc}"
            break
        nstep += 1
        clip_cum += info.clip_rho + info.clip_theta
        if clip_cum > 1e-10 * mass0:
            reason = "solver_failure"
            error_msg = (f"cumulative clip mass {clip_cum:.3e} exceeded "
                         f"1e-10 relative to initial mass {mass0:.6e}")
            break
        if not state.is_finite():
            reason = "nan_detected"
            break
        slope = (state.theta - theta_prev) / dt
        if d1 is not None:
            d2 = (slope - d1) / (dt + h_last)
        d1, h_last = slope, dt
        record_step(series, state, model, step=nstep, dt=info.dt, alpha=alpha,
                    clip_cum=clip_cum)
        if (cfg.output.snapshot_every > 0
                and nstep % cfg.output.snapshot_every == 0):
            states.append(state.copy())
            snapshot_steps.append(nstep)

    if snapshot_steps[-1] != nstep:
        states.append(state.copy())
        snapshot_steps.append(nstep)
    return Trajectory(states=states, snapshot_steps=snapshot_steps,
                      series=series, reason=reason, steps=nstep,
                      diag_alpha=alpha, error=error_msg)
