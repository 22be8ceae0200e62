"""Time integration: sequential splitting continuity -> momentum -> temperature.

Each step advances the density with an explicit conservative upwind flux
(exact mass telescoping, zero wall flux), then the velocity with explicit
advection/sources and an implicit tridiagonal viscous system per component
(u, v and w when m = 1, stacked as one (3, n) array and solved in one call;
u alone otherwise, since a spherically symmetric velocity is radial), then
the temperature with an implicit solve of the Q-form energy equation
(insulated walls).  Its heat flux is written in Kirchhoff form,
F_f*(Phi(theta_{i+1}) - Phi(theta_i)) with Phi(theta) =
kappa0*(theta + theta^(q+1)/(q+1)) and F_f the geometric face
coefficients of kappa = 1, which is the exact integral mean of kappa over
each face; each sweep is a Newton step on that flux with Q' frozen at the
current iterate.  ``run`` records the diagnostics rows of the accepted
steps in blocks, one ``record_step`` call per block, and checks each
state's finiteness once, in the ``cfl_dt`` call that sizes the step from
it.

Vacuum cells (rho below ``RHO_VAC_TOL``) weigh as rho = 0 in all three
phases, so every row keeps its one formula: a vacuum donor carries no
continuity flux, and the rho-weighted terms of the momentum and temperature
rows vanish there.  Those rows then solve the rho -> 0 limit of their
equations, beta*L[u] = P_x - f, mu*L[v] = 0, mu*L_axial[w] = 0 and
0 = L_F[Phi(theta)] + dissipation, the limit that eps-lifted data approach.

The temperature system is solved for kappa times the increment
theta' - theta, with the right-hand side evaluated through the same
difference operators that build the matrix; constant states are then
exact fixed points bitwise.  A row whose upwind coupling, scaled by the
upwind cell's 1/kappa, would outweigh its diagonal takes that coupling at
the current iterate instead, so every row stays diagonally dominant.
``run`` starts each step's sweeps from theta extrapolated in time through
the last p + 1 accepted steps (theta_old on the first), the order p
climbing by one per accepted step to 6; the guess moves the result only
within ``picard_tol`` and reproduces a constant state exactly.  The sweeps
stop once an update is below ``picard_tol``, or once Theta/(1 - Theta)
times the update, Theta the sweeps' contraction rate (carried from step to
step, so that a first sweep may stop too), puts the iterate's estimated
error below a hundredth of ``picard_tol``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constitutive import GasModel, _kappa, _Qprime, pressure, sound_speed
from .diagnostics import DiagnosticsSeries, Trajectory, record_step
from .errors import DtUnderflow, PicardDivergence, SolverFailure
from .grid import Grid, _integer
from .operators import (_dissipation_and_div, apply_heat_flux, axial_stencil,
                        ddx, heat_flux_coeffs, lame_stencil,
                        upwind_derivative)
from .state import RHO_VAC_TOL, State
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

# the sweeps stop once the estimated error of the iterate, rate/(1 - rate)
# times its update, is below this fraction of picard_tol (Hairer & Wanner,
# Solving ODEs II, IV.8, the low end of their range); at 0.1 and at 1 the
# power-gas bump of test_run_agrees_with_unseeded_steps ends with u more
# than 1e-10 of its max away from the unseeded steps
_NEWTON_KAPPA = 0.01

# run records the accepted states in blocks of at least this many cells
# (states times n), one record_step call per block, because its numpy calls
# carry a fixed overhead: at n = 64 a row took 80 us recorded alone and
# 9 us in a block of 64, at n = 1024 115 us alone and 63 us in a block of 4
# (best of interleaved runs, shared 2-vCPU x86-64, Python 3.11, numpy 2.4).
# Larger blocks were no faster, and a pending state stays alive until its
# block is recorded, so peak memory grows with the block.
_RECORD_CELLS = 4096


@dataclass(frozen=True)
class StepControls:
    """Time-stepping controls; the ``[controls]`` section of a run config.
    A step's temperature sweeps stop on a relative update below
    ``picard_tol`` or on an estimated error below ``_NEWTON_KAPPA`` times
    it, and warn after ``picard_max`` sweeps (see ``step_temperature``)."""
    cfl: float = 0.4
    picard_max: int = 30
    picard_tol: float = 1e-10
    dt_max: float = math.inf
    dt_min: float = 1e-12
    max_steps: int = 1_000_000
    t_end: float = 0.1

    def __post_init__(self):
        """Raise ValueError naming the first out-of-range field."""
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"need 0 < cfl < 1, got {self.cfl}")
        # comparisons are written so that NaN fails them
        for name in ("picard_tol", "dt_min", "dt_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("picard_max", "max_steps"):
            count = _integer(name, getattr(self, name), 1)
            object.__setattr__(self, name, count)
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and >= 0")


@dataclass
class StepInfo:
    """Per-step bookkeeping returned alongside the new state."""
    dt: float
    clip_rho: float = 0.0      # weighted mass added by flooring rho at 0
    clip_theta: float = 0.0    # weighted amount added by flooring theta at 0
    picard_iters: int = 0
    picard_rate: float | None = None   # contraction carried to the next step


class _NonFiniteState(ValueError):
    """cfl_dt's error for a state with a non-finite value."""


def cfl_dt(s: State, c: StepControls, model: GasModel) -> float:
    """Advective-acoustic CFL step, capped by dt_max, erroring below dt_min;
    a ValueError for a state with a non-finite value."""
    if not s.is_finite():
        raise _NonFiniteState("cfl_dt: state contains non-finite values")
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


def _vacuum_as_zero(rho: np.ndarray) -> np.ndarray:
    """The split step's one vacuum rule: rho read as 0 on the cells below
    ``RHO_VAC_TOL``; ``rho`` itself when no cell is vacuum."""
    vac = rho < RHO_VAC_TOL
    return np.where(vac, 0.0, rho) if vac.any() else rho


def step_continuity(s: State, dt: float) -> tuple[np.ndarray, float]:
    """Explicit conservative upwind continuity update.

    Face flux x_f^m * rho_upwind * u_face with u_face the neighbor mean and
    zero wall flux; a vacuum donor carries no flux.  The weight-normalized
    differences telescope, so total weighted mass is conserved to rounding.
    Returns (rho', clipped mass).
    """
    g = s.grid
    uf = 0.5 * (s.u[:-1] + s.u[1:])
    donor = _vacuum_as_zero(s.rho)
    rho_up = np.where(uf > 0.0, donor[:-1], donor[1:])
    flux = np.zeros(g.n + 1)
    flux[1:-1] = g.face_powers[1:-1] * rho_up * uf
    rho_new = s.rho - dt * np.diff(flux) / g.weights
    return _floor_field(g, rho_new, "density")


def _momentum_stencils(g: Grid):
    """Viscous rows (sub, diag, sup) of the advanced velocity components:
    the Lame rows of u alone when m != 1; when m = 1, (3, n) stacks of the
    Lame rows (u, v) and the axial rows (w), built once per grid."""
    if g.m != 1:
        return lame_stencil(g)
    return g.cached("momentum_stencils", lambda g: tuple(
        np.stack(rows) for rows in zip(lame_stencil(g), lame_stencil(g),
                                       axial_stencil(g))))


def step_momentum(s: State, dt: float, model: GasModel,
                  force_u=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance (u, v, w): explicit upwind advection and geometric/pressure
    sources, then an implicit viscous tridiagonal solve of each component.

    Only the cylindrical case (m = 1) carries the angular ``v`` and axial
    ``w``; its three components are advanced as one (3, n) stack, so that
    each step of the update is one numpy call and the three systems are one
    solve.  For m != 1 the velocity is radial, ``u`` alone is advanced and
    ``s.v``, ``s.w`` are returned as they are.  ``s.rho`` must already hold
    the continuity-updated density; vacuum cells weigh as rho = 0, so their
    rows solve beta*L[u] = P_x - f and mu*L[v] = mu*L_axial[w] = 0.
    ``force_u`` is an optional external momentum source density (rho*f)
    for the radial component.
    """
    g = s.grid
    x = g.centers
    rho, u = _vacuum_as_zero(s.rho), s.u
    Px = ddx(g, pressure(model, s.rho, s.theta), "neumann0")
    sub_l, diag_l, sup_l = _momentum_stencils(g)
    cylindrical = g.m == 1
    if cylindrical:   # one row and one viscosity per component
        f = np.array((u, s.v, s.w))
        coeff = np.array([[model.beta], [model.mu], [model.mu]])
    else:
        f, coeff = u, model.beta
    dt_u = dt * u

    star = f - dt_u * upwind_derivative(g, f, u)
    # explicit sources of each component, added after the advection in
    # this order (the order fixes the rounding); the pressure and force
    # sources stand outside the rho factor, so they remain where rho is 0
    if cylindrical:
        star[0] += dt * s.v ** 2 / x
        star[1] -= dt_u * s.v / x
    a = -dt * coeff * sub_l
    b = rho - dt * coeff * diag_l
    cc = -dt * coeff * sup_l
    d = rho * star
    radial = d[0] if cylindrical else d   # a view of d
    radial -= dt * Px
    if force_u is not None:
        radial += dt * np.asarray(force_u, dtype=float)
    if cylindrical:
        return tuple(solve_tridiagonal(a, b, cc, d, context="momentum solve",
                                       names=("radial", "angular", "axial")))
    return (solve_tridiagonal(a, b, cc, d, context="radial momentum solve"),
            s.v, s.w)


def _advection_rows(u):
    """Upwind pattern (sub, diag, sup) of theta_x in units of 1/dx, entries
    -1, 0 or 1, for the wind u; the wind is fixed for a step, so the
    pattern is built once per step.  At the walls the even-extension ghost
    equals the edge cell, as in upwind_derivative."""
    sub = np.where(u > 0.0, -1.0, 0.0)
    sup = np.where(u < 0.0, 1.0, 0.0)
    sub[0] = sup[-1] = 0.0     # the ghost's entry folds into the diagonal
    return sub, -(sub + sup), sup   # the derivative of a constant is 0


def _unit_heat_flux(g: Grid):
    """Face conduction coefficients (left, right) of kappa = 1 and their
    sum: the geometric Laplacian L_F of the Kirchhoff flux, built once per
    grid."""
    def build(g):
        fl, fr = heat_flux_coeffs(g, np.ones(g.n + 1))
        return fl, fr, fl + fr
    return g.cached("unit_heat_flux", build)


def step_temperature(s: State, dt: float, model: GasModel,
                     c: StepControls, theta_guess=None, rate=None
                     ) -> tuple[np.ndarray, float, int, float | None]:
    """Implicit temperature update (Q-form), Newton sweeps on conduction.

    ``s`` carries the updated density and velocities and the old
    temperature.  The heat flux is the Kirchhoff flux L_F[Phi(theta')]:
    L_F the conservative Laplacian of kappa = 1 (insulated walls) and
    Phi(theta) = kappa0*(theta + theta^(q+1)/(q+1)), which is
    ``heat_flux_div(face_kappa(theta'), theta')``.  Each sweep takes one
    Newton step on it, Phi(theta') ~ Phi(theta_k) + kappa(theta_k) *
    (theta' - theta_k) at the current iterate, with Q' frozen at theta_k
    (no Q'' term), and solves for y = kappa(theta_k)*(theta' - theta_old):
    the columns scaled by 1/kappa leave L_F itself as the conduction
    block.  Where wind blows from a cell of much smaller kappa, the
    scaled upwind entry can outweigh its row's diagonal (once
    kappa_i/kappa_up > 1 + (1/dt + div u)*dx/|u|); that row takes the
    coupling at the iterate, on the right-hand side, which keeps every
    row dominant and leaves the converged theta' as it is.  The terms that Q' weights (mass, advection, compression) are
    rebuilt only when Q' changed (once per step for the ideal family).
    Vacuum cells count as rho = 0 (``s.rho`` is kept), so every row has
    one formula and theirs solve 0 = L_F[Phi(theta')] + dissipation.
    The first iterate is ``theta_guess`` when it is given and finite
    (``run`` passes its extrapolation in time), the old
    temperature otherwise; the guess changes only how many sweeps reach
    ``picard_tol``.  The sweeps stop once the relative update is below
    ``picard_tol``, or once the contraction rate Theta (the ratio of the
    last two updates; on the first sweep ``rate``, the rate carried from
    the last step) is below 1 and Theta/(1 - Theta) times the update, the
    estimated error of the iterate, is at most ``_NEWTON_KAPPA*picard_tol``.
    Returns (theta', clipped amount, sweeps used, rate to carry): the last
    rate measured on a sweep whose update was at least ``picard_tol``,
    ``rate`` itself when no sweep measured one.
    """
    g = s.grid
    rho, u = _vacuum_as_zero(s.rho), s.u
    theta_old = s.theta
    phi, divu = _dissipation_and_div(g, u, s.v, s.w, model)
    # terms of theta_old and the wind, the same in every sweep
    rho_u = rho * u
    adv_sub, adv_diag, adv_sup = _advection_rows(u)
    adv_old = upwind_derivative(g, theta_old, u, "neumann0")
    fl, fr, f_sum = _unit_heat_flux(g)
    q_frac = model.q / (model.q + 1.0)
    # 1/kappa of the iterate with one pad per wall, where sub0[0] and
    # sup0[-1] are 0, so that each diagonal scales by one slice
    inv_kappa = np.zeros(g.n + 2)

    theta_k = theta_old
    if theta_guess is not None and np.isfinite(theta_guess).all():
        theta_k = g.require_field(theta_guess)
    delta_prev = math.inf
    grew = 0
    iters = 0
    qp_built = None
    for iters in range(1, c.picard_max + 1):
        # heat_capacity and conductivity unchecked: no value is negative
        theta_eval = np.maximum(theta_k, 0.0)
        qp = _Qprime(model, theta_eval)
        kappa = _kappa(model, theta_eval)
        np.divide(1.0, kappa, out=inv_kappa[1:-1])

        # the terms Q' weights (mass, advection, compression) are rebuilt
        # only when Q' moved; a sweep then adds the conduction terms
        if qp_built is None or not np.array_equal(qp, qp_built):
            qp_built = qp
            rho_qp = rho * qp
            mass = rho_qp / dt
            adv_coef = rho_u * qp
            adv_w = adv_coef / g.dx
            comp = rho_qp * divu
            sub0 = adv_w * adv_sub
            diag0 = mass + adv_w * adv_diag + comp
            sup0 = adv_w * adv_sup
            # increment form: rhs = phi - (advection + compression)
            # applied to theta_old, in difference form so constants cancel
            rhs0 = phi - adv_coef * adv_old - comp * theta_old

        sub = sub0 * inv_kappa[:-2]
        diag = diag0 * inv_kappa[1:-1]
        sup = sup0 * inv_kappa[2:]
        # Phi(theta_eval) - kappa*(theta_eval - theta_old), whose L_F the
        # Newton step keeps on the right; kappa - kappa0 = kappa0*theta^q
        line = kappa * theta_old - q_frac * (kappa - model.kappa0) * theta_eval
        rhs = rhs0 + apply_heat_flux(fl, fr, line[1:] - line[:-1])
        # the advection entries (<= 0) are scaled by their own column's
        # 1/kappa, so wind from a cell of much smaller kappa can outweigh
        # the diagonal; such a row moves that coupling, applied to the
        # iterate's increment, to the right and keeps diag0/kappa_i >= 0
        # next to the conduction block, which is weakly dominant itself
        margin = diag + sub
        margin += sup
        if margin.min() < 0.0:
            lag = margin < 0.0
            rise = np.zeros(g.n + 2)
            rise[1:-1] = theta_k - theta_old
            rhs -= np.where(lag, sub0 * rise[:-2] + sup0 * rise[2:], 0.0)
            sub[lag] = sup[lag] = 0.0
        sub -= fl
        diag += f_sum
        sup -= fr

        y = solve_tridiagonal(sub, diag, sup, rhs,
                              context="temperature solve")
        theta_next = theta_old + y / kappa
        change = float(np.abs(theta_next - theta_k).max())
        scale = max(float(np.abs(theta_next).max()), 1e-300)
        rel = change / scale
        theta_k = theta_next
        if rel < c.picard_tol:
            break
        if iters > 1:
            rate = rel / delta_prev
        if (rate is not None and rate < 1.0
                and rate / (1.0 - rate) * rel <= _NEWTON_KAPPA * c.picard_tol):
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
    return theta_new, clipped, iters, rate


def step_detailed(s: State, c: StepControls, model: GasModel, dt=None,
                  theta_guess=None, rate=None) -> tuple[State, StepInfo]:
    """One full split step; dt chosen by :func:`cfl_dt` unless given.
    The phases fill one ``State`` in turn: continuity builds it with the new
    density, then momentum sets its velocities and temperature its
    temperature, seeded by ``theta_guess`` and ``rate`` (see
    :func:`step_temperature`), whose carried rate lands in
    ``StepInfo.picard_rate``."""
    if dt is None:
        dt = cfl_dt(s, c, model)
    rho_new, clip_rho = step_continuity(s, dt)
    out = State(grid=s.grid, t=s.t + dt, rho=rho_new, u=s.u, v=s.v, w=s.w,
                theta=s.theta)
    out.u, out.v, out.w = step_momentum(out, dt, model)
    out.theta, clip_theta, iters, rate = step_temperature(
        out, dt, model, c, theta_guess=theta_guess, rate=rate)
    return out, StepInfo(dt=dt, clip_rho=clip_rho, clip_theta=clip_theta,
                         picard_iters=iters, picard_rate=rate)


class _ThetaPredictor:
    """theta + sum_k c_k*D_k over the last p increments D_k (a constant
    history gives theta bitwise), c_k the Lagrange weights at dt of the
    last p + 1 temperatures summed onto the increments; the order p climbs
    by one per accepted step to MAX_ORDER and stays there."""

    MAX_ORDER = 6

    def __init__(self, n):
        # ring of increments with one row more than an order reads, which
        # takes in the next one
        self.incs = np.zeros((self.MAX_ORDER + 1, n))
        self.head = -1       # its newest row
        self.nodes = [0.0]   # times of the stored states, newest (0) first
        self.bary = []       # weights of nodes[:p + 1], O(p) a step

    def _row(self, dt):
        """Ring-row weights of the extrapolation by dt."""
        nodes, bary, head = self.nodes, self.bary, self.head
        ell = math.prod([dt - t_j for t_j in nodes[:len(bary)]])
        row = [0.0] * len(self.incs)
        # c_k = -(L_k + ... + L_p), summed oldest first, weighs the
        # increment from node k to node k - 1, which sits k - 1 rows behind
        # the head (a negative index wraps the ring); -0.0 + x is x bitwise
        c_k = -0.0
        for k in range(len(bary) - 1, 0, -1):
            c_k += ell * bary[k] / (nodes[k] - dt)
            row[head + 1 - k] = c_k
        return row

    def guess(self, theta, dt):
        """theta extrapolated by dt, or None before the first step."""
        if not self.bary:
            return None
        step = np.dot(self._row(dt), self.incs)
        return np.add(step, theta, out=step)

    def accept(self, theta_old, theta_new, dt):
        """Take in a step of size dt from theta_old to theta_new."""
        new = (self.head + 1) % len(self.incs)
        np.subtract(theta_new, theta_old, out=self.incs[new])
        t, w = self.nodes, self.bary
        p = len(w) - 1
        if w and p < len(t) - 1:   # one order up, to at most MAX_ORDER
            w = [w_j / (t_j - t[p + 1]) for w_j, t_j in zip(w, t)] + [
                1.0 / math.prod([t[p + 1] - t_i for t_i in t[:p + 1]])]
            p += 1
        if w:   # drop node p, put the new one in front
            self.bary = [1.0 / math.prod([dt - t_j for t_j in t[:p]])] + [
                w_j * (t_j - t[p]) / (t_j - dt) for w_j, t_j in zip(w, t[:p])]
        else:   # the line through the first step's two states
            self.bary = [1.0 / dt, -1.0 / dt]
        self.nodes = [0.0] + [t_j - dt for t_j in t[:self.MAX_ORDER]]
        self.head = new


def run(cfg):
    """Run a parsed config from its initial state to t_end; every failure
    becomes a termination reason on the returned trajectory.  The snapshots
    are the run's own states, from ``cfg.initial`` on, and no array is
    written after the State that holds it is built: a spherical run's
    radial velocity keeps ``cfg.initial``'s v and w in every state."""
    model = cfg.model
    state = cfg.initial
    c = cfg.controls
    alpha = cfg.output.diag_alpha
    t_end = c.t_end

    series = DiagnosticsSeries()
    record_step(series, state, model, step=0, dt=0.0, alpha=alpha,
                clip_cum=0.0)
    states = [state]
    snapshot_steps = [0]
    mass0 = series.rows["mass"][0]
    # (state, step, dt, cumulative clip) of the accepted steps not yet
    # recorded, in step order
    pending = []

    def record_pending():
        block, steps, dts, clips = map(list, zip(*pending))
        record_step(series, block, model, step=steps, dt=dts, alpha=alpha,
                    clip_cum=clips)
        pending.clear()

    def next_dt(s):
        """cfl_dt of s, or the _NonFiniteState or SolverFailure it raised."""
        try:
            return cfl_dt(s, c, model)
        except (_NonFiniteState, SolverFailure) as exc:
            return exc

    reason = "completed"
    error_msg = None
    clip_cum = 0.0
    nstep = 0
    predictor = _ThetaPredictor(state.grid.n)
    rate = None   # the Newton contraction carried from step to step

    # Each state's finiteness is checked once, by the cfl_dt call that sizes
    # the step from it: the initial state's here (a field of cfg.initial
    # may have been replaced since parsing), every later one's right after
    # the step that made it, before it reaches record_step or the
    # predictor.  A DtUnderflow or SolverFailure of that call is raised by
    # the next step, so a run never fails on its final state's dt and
    # max_steps comes first.
    dt_cfl = next_dt(state)
    while (not isinstance(dt_cfl, _NonFiniteState)
           and state.t < t_end - 1e-14 * max(1.0, t_end)):
        if nstep >= c.max_steps:
            reason = "solver_failure"
            error_msg = f"exceeded max_steps = {c.max_steps}"
            break
        try:
            if isinstance(dt_cfl, SolverFailure):
                raise dt_cfl
            dt = min(dt_cfl, t_end - state.t)
            theta_prev = state.theta
            state, info = step_detailed(
                state, c, model, dt=dt,
                theta_guess=predictor.guess(state.theta, dt), rate=rate)
        except DtUnderflow as exc:
            reason = "dt_underflow"
            error_msg = str(exc)
            break
        except SolverFailure as exc:
            reason = "solver_failure"
            error_msg = f"step {nstep}: {exc}"
            break
        nstep += 1
        rate = info.picard_rate
        clip_cum += info.clip_rho + info.clip_theta
        if clip_cum > 1e-10 * mass0:
            reason = "solver_failure"
            error_msg = (f"cumulative clip mass {clip_cum:.3e} exceeded "
                         f"1e-10 relative to initial mass {mass0:.6e}")
            break
        dt_cfl = next_dt(state)
        if isinstance(dt_cfl, _NonFiniteState):
            break
        predictor.accept(theta_prev, state.theta, dt)
        pending.append((state, nstep, info.dt, clip_cum))
        if len(pending) * state.grid.n >= _RECORD_CELLS:
            record_pending()
        if (cfg.output.snapshot_every > 0
                and nstep % cfg.output.snapshot_every == 0):
            states.append(state)
            snapshot_steps.append(nstep)

    if isinstance(dt_cfl, _NonFiniteState):
        reason = "nan_detected"
        error_msg = f"step {nstep}: {dt_cfl}"
    if pending:
        record_pending()
    if snapshot_steps[-1] != nstep:
        states.append(state)
        snapshot_steps.append(nstep)
    return Trajectory(states=states, snapshot_steps=snapshot_steps,
                      series=series, reason=reason, steps=nstep,
                      diag_alpha=alpha, error=error_msg)
