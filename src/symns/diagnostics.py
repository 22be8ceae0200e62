"""Monitored functionals: conserved quantities, a-priori integrals, and
blow-up indicators, evaluated on trajectories of the symmetric solver.

Quantities needing every time step (entropy-weighted dissipation, the
ambient-norm integrand of the blow-up indicator, running extrema) are
recorded per step by :func:`record_step` while the run advances, one row
per step, computed a block of steps at a time.  The functionals below
reduce those series on the variable step grid: the entropy-weighted
dissipation by the right-endpoint rule of the implicit temperature step,
the time integrals of the blow-up indicator, of sup theta and of
||grad u||_inf by the trapezoid rule.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .constitutive import GasModel, internal_energy, pressure
from .grid import Grid, radial_to_ambient_norm, weighted_integral
from .operators import ddx
from .state import FIELDS, RHO_VAC_TOL, State

__all__ = [
    "DiagnosticsSeries",
    "Trajectory",
    "record_step",
    "mass",
    "total_energy",
    "kinetic_energy",
    "entropy_dissipation",
    "entropy_dissipation_integrand",
    "sup_theta_time_integral",
    "blowup_indicator",
    "blowup_indicator_series",
    "alt_criteria",
    "AltCriteria",
]

_THETA_FLOOR = 1e-30  # regularizes the entropy integrand where theta = 0

SERIES_COLUMNS = (
    "step", "t", "dt", "mass", "total_energy", "kinetic_energy",
    "max_rho", "min_rho", "max_theta", "max_abs_u", "grad_u_max",
    "rho_theta_norm_12_5", "G_max", "entropy_integrand",
    "clip_mass_cumulative",
)
_COLUMN_SET = frozenset(SERIES_COLUMNS)


@dataclass
class DiagnosticsSeries:
    """Per-step scalar records; one row per completed step plus the t=0 row."""

    rows: dict = field(default_factory=lambda: {k: [] for k in SERIES_COLUMNS})

    def extend(self, **kw):
        """Append a block of rows: one equally long list per column."""
        if kw.keys() != _COLUMN_SET:
            missing = _COLUMN_SET ^ kw.keys()
            raise ValueError(f"diagnostics row mismatch: {sorted(missing)}")
        if len({len(v) for v in kw.values()}) > 1:
            raise ValueError("diagnostics columns of unequal length: "
                             f"{ {k: len(v) for k, v in kw.items()} }")
        for k, v in kw.items():
            self.rows[k].extend(v)

    def __len__(self):
        return len(self.rows["t"])

    def column(self, name) -> np.ndarray:
        return np.asarray(self.rows[name], dtype=float)

    @property
    def t(self) -> np.ndarray:
        return self.column("t")


@dataclass
class Trajectory:
    """Snapshots plus the per-step diagnostics of one run.  The snapshots
    are the run's own states, the first being the config's read-only
    initial state; a spherical run's (m != 1) states all hold its ``v`` and
    ``w``."""

    states: list
    snapshot_steps: list
    series: DiagnosticsSeries
    reason: str          # completed | dt_underflow | solver_failure | nan_detected
    steps: int
    diag_alpha: float
    error: str | None = None

    @property
    def final_state(self) -> State:
        return self.states[-1]


def mass(s: State) -> float:
    """Total weighted mass int x^m rho dx."""
    return weighted_integral(s.grid, s.rho)


def _speed_sq(s: State) -> np.ndarray:
    """|u|^2 of the symmetric velocity.  Only the cylinder (m = 1) carries
    ``v`` and ``w``; a spherically symmetric velocity is radial, so for
    m != 1 they are ignored (they are zero there, and adding +0.0 changes
    no bit)."""
    if s.grid.m != 1:
        return s.u ** 2
    return s.u ** 2 + s.v ** 2 + s.w ** 2


def _kinetic_energy(s: State, speed_sq) -> float:
    return weighted_integral(s.grid, 0.5 * s.rho * speed_sq)


def _total_energy(s: State, model: GasModel, speed_sq) -> float:
    e = internal_energy(model, s.rho, s.theta)
    return weighted_integral(s.grid, s.rho * (e + 0.5 * speed_sq))


def kinetic_energy(s: State) -> float:
    return _kinetic_energy(s, _speed_sq(s))


def total_energy(s: State, model: GasModel) -> float:
    """int x^m rho (e + |u|^2/2) dx, the conserved energy of insulated walls."""
    return _total_energy(s, model, _speed_sq(s))


def entropy_dissipation_integrand(s: State, model: GasModel,
                                  alpha: float) -> float:
    """Spatial integral int x^m (1 + theta^q) theta_x^2 / theta^(1+alpha) dx
    at one instant, with theta floored at 1e-30 in the denominator only."""
    g = s.grid
    tx = ddx(g, s.theta, "neumann0")
    denom = np.maximum(s.theta, _THETA_FLOOR) ** (1.0 + alpha)
    return weighted_integral(g, (1.0 + s.theta ** model.q) * tx ** 2 / denom)


def _check_alpha(model: GasModel, alpha: float):
    hi = min(1.0, model.q - model.r)
    if not 0.0 < alpha < hi:
        raise ValueError(f"alpha must lie in the open interval (0, "
                         f"min(1, q-r)) = (0, {hi}), got {alpha}")


# k states' fields as (k, n) stacks, read by the helpers above as a State;
# v and w stay None off the cylinder, where nothing reads them
_Stack = namedtuple("_Stack", ("grid",) + FIELDS,
                    defaults=(None,) * len(FIELDS))


def record_step(series: DiagnosticsSeries, s, model: GasModel, *,
                step, dt, alpha: float, clip_cum):
    """Append one diagnostics row per state.

    ``s`` is one State with scalar ``step``, ``dt`` and ``clip_cum``, or a
    list of States on one grid with a list of each, one entry per state.
    A list is computed as (k, n) stacks, one numpy call for all its rows;
    each row's integrals are still the pairwise sums of that row alone.
    The ambient 12/5-norm of rho*theta is recorded as NaN for symmetry
    exponents without an ambient lift (m >= 3).
    """
    if isinstance(s, State):
        s, step, dt, clip_cum = [s], [step], [dt], [clip_cum]
    g = s[0].grid
    _check_alpha(model, alpha)
    # one state's own fields, or (k, n) stacks: each value below is then
    # one number, or a list (or array) of k numbers
    names = FIELDS if g.m == 1 else ("rho", "u", "theta")
    b = s[0] if len(s) == 1 else _Stack(g, **{
        name: np.array([getattr(state, name) for state in s])
        for name in names})
    ux = ddx(g, b.u, "dirichlet0")
    abs_u = np.abs(b.u)
    grad_u = np.maximum(np.abs(ux).max(axis=-1),
                        (g.m * abs_u / g.centers).max(axis=-1))
    try:
        rt_norm = radial_to_ambient_norm(g, b.rho * b.theta, 12.0 / 5.0)
    except ValueError:
        rt_norm = [math.nan] * len(s)
    # effective viscous flux G = beta*div(u) - P, on the u_x already in hand
    G = model.beta * (ux + g.m * b.u / g.centers) \
        - pressure(model, b.rho, b.theta)
    speed_sq = _speed_sq(b)
    columns = dict(
        step=step, t=[state.t for state in s], dt=dt,
        mass=mass(b),
        total_energy=_total_energy(b, model, speed_sq),
        kinetic_energy=_kinetic_energy(b, speed_sq),
        max_rho=b.rho.max(axis=-1).tolist(),
        min_rho=b.rho.min(axis=-1).tolist(),
        max_theta=b.theta.max(axis=-1).tolist(),
        max_abs_u=abs_u.max(axis=-1).tolist(),
        grad_u_max=grad_u.tolist(),
        rho_theta_norm_12_5=rt_norm,
        G_max=np.abs(G).max(axis=-1).tolist(),
        entropy_integrand=entropy_dissipation_integrand(b, model, alpha),
        clip_mass_cumulative=clip_cum,
    )
    series.extend(**{k: v if isinstance(v, list) else [v]
                     for k, v in columns.items()})


def _trapz_terms(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 0.5 * (y[1:] + y[:-1]) * np.diff(t)


def _trapz(y: np.ndarray, t: np.ndarray) -> float:
    return float(np.sum(_trapz_terms(y, t)))


def _power_trapz(x: np.ndarray, p: float, t: np.ndarray, reduce=np.sum):
    """reduce (np.sum or np.cumsum) of the trapezoid terms of x**p on t, for
    x >= 0.  Where a plain term is not finite but every recorded x is, x is
    scaled by its maximum, as in grid.weighted_lp_norm, so that the result
    is inf only past the float range."""
    with np.errstate(over="ignore"):
        terms = _trapz_terms(x ** p, t)
    scale = float(np.max(x)) if len(x) else 0.0
    if np.all(np.isfinite(terms)) or not (0.0 < scale < math.inf and p > 0.0):
        return reduce(terms)
    scaled = reduce(_trapz_terms((x / scale) ** p, t))
    with np.errstate(over="ignore"):
        return (scaled ** (1.0 / p) * scale) ** p


def entropy_dissipation(traj: Trajectory) -> float:
    """Time-cumulative entropy-weighted dissipation
    int_0^T int x^m (1+theta^q) theta_x^2 / theta^(1+alpha) dx dt at the
    trajectory's diag_alpha, the alpha its integrand was recorded with
    (the full fields are not kept at every step).

    The rule is the right endpoint, sum_k dt_k y_k over the steps k >= 1:
    the temperature step is backward Euler, so its energy identity pairs
    each step with the theta that step produced.  The t = 0 integrand does
    not enter; on data whose theta jumps it grows like 1/dx, and a
    trapezoid weight dt_1/2 on it would give the functional a wrong limit
    under refinement."""
    y = traj.series.column("entropy_integrand")
    return float(np.sum(y[1:] * np.diff(traj.series.t)))


def sup_theta_time_integral(traj: Trajectory, p: float) -> float:
    """int_0^T (max_x theta)^p dt by trapezoid on the step grid."""
    return float(_power_trapz(traj.series.column("max_theta"), float(p),
                              traj.series.t))


def blowup_indicator_series(traj: Trajectory) -> np.ndarray:
    """Running value of sup_s<=t ||rho||_inf + int_0^t ||rho theta||_{12/5}^4,
    nondecreasing along the trajectory."""
    t = traj.series.t
    sup_rho = np.maximum.accumulate(traj.series.column("max_rho"))
    cum = np.zeros_like(t)
    cum[1:] = _power_trapz(traj.series.column("rho_theta_norm_12_5"), 4, t,
                           np.cumsum)
    return sup_rho + cum


def blowup_indicator(traj: Trajectory) -> float:
    """The running blow-up quantity at termination (no extrapolation)."""
    return float(blowup_indicator_series(traj)[-1])


@dataclass
class AltCriteria:
    """The competing blow-up quantities, on the symmetric fields.

    fan_jiang_ou:   sup theta + int ||grad u||_inf dt
    fang_zi_zhang:  sup theta + sup rho (also the Wen-Zhu quantity)
    sun_wang_zhang: adds sup 1/rho; infinite when vacuum was present.
    """
    fan_jiang_ou: float
    fang_zi_zhang: float
    sun_wang_zhang: float
    sup_theta: float
    sup_rho: float
    grad_u_l1t: float
    inv_rho_sup: float


def alt_criteria(traj: Trajectory) -> AltCriteria:
    """Evaluate the alternative blow-up criteria along the trajectory.

    ||grad u||_inf of the symmetric field is max(|u_x|, m|u|/x); 1/rho is
    reported infinite as soon as any cell dips below ``RHO_VAC_TOL``."""
    ser = traj.series
    sup_theta = float(np.max(ser.column("max_theta")))
    sup_rho = float(np.max(ser.column("max_rho")))
    grad_l1t = _trapz(ser.column("grad_u_max"), ser.t)
    min_rho = float(np.min(ser.column("min_rho")))
    inv_rho = math.inf if min_rho < RHO_VAC_TOL else 1.0 / min_rho
    return AltCriteria(
        fan_jiang_ou=sup_theta + grad_l1t,
        fang_zi_zhang=sup_theta + sup_rho,
        sun_wang_zhang=sup_theta + sup_rho + inv_rho,
        sup_theta=sup_theta, sup_rho=sup_rho, grad_u_l1t=grad_l1t,
        inv_rho_sup=inv_rho)
