"""Monitored functionals: conserved quantities, a-priori integrals, and
blow-up indicators, evaluated on trajectories of the symmetric solver.

Quantities needing every time step (entropy-weighted dissipation, the
ambient-norm integrand of the blow-up indicator, running extrema) are
recorded per step by :func:`record_step` while the run advances; the
functionals below reduce those series with trapezoid rules on the
variable step grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import GasModel, internal_energy, pressure
from .grid import Grid, radial_to_ambient_norm, weighted_integral
from .operators import ddx
from .state import State

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
    "weighted_supnorm_check",
    "SupnormCheck",
]

_THETA_FLOOR = 1e-30  # regularizes the entropy integrand where theta = 0

SERIES_COLUMNS = (
    "step", "t", "dt", "mass", "total_energy", "kinetic_energy",
    "max_rho", "min_rho", "max_theta", "max_abs_u", "grad_u_max",
    "rho_theta_norm_12_5", "G_max", "entropy_integrand",
    "clip_mass_cumulative",
)


@dataclass
class DiagnosticsSeries:
    """Per-step scalar records; one row per completed step plus the t=0 row."""

    rows: dict = field(default_factory=lambda: {k: [] for k in SERIES_COLUMNS})

    def append(self, **kw):
        if set(kw) != set(SERIES_COLUMNS):
            missing = set(SERIES_COLUMNS) ^ set(kw)
            raise ValueError(f"diagnostics row mismatch: {sorted(missing)}")
        for k, v in kw.items():
            self.rows[k].append(v)

    def __len__(self):
        return len(self.rows["t"])

    def column(self, name) -> np.ndarray:
        return np.asarray(self.rows[name], dtype=float)

    @property
    def t(self) -> np.ndarray:
        return self.column("t")


@dataclass
class Trajectory:
    """Snapshots plus the per-step diagnostics of one run."""

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


def record_step(series: DiagnosticsSeries, s: State, model: GasModel, *,
                step: int, dt: float, alpha: float, clip_cum: float):
    """Append one diagnostics row computed from the state.

    The ambient 12/5-norm of rho*theta is recorded as NaN for symmetry
    exponents without an ambient lift (m >= 3).
    """
    g = s.grid
    _check_alpha(model, alpha)
    ux = ddx(g, s.u, "dirichlet0")
    abs_u = np.abs(s.u)
    grad_u = max(float(np.abs(ux).max()),
                 float((g.m * abs_u / g.centers).max()))
    try:
        rt_norm = radial_to_ambient_norm(g, s.rho * s.theta, 12.0 / 5.0)
    except ValueError:
        rt_norm = math.nan
    # operators.effective_viscous_flux, on the u_x already in hand
    G = model.beta * (ux + g.m * s.u / g.centers) \
        - pressure(model, s.rho, s.theta)
    speed_sq = _speed_sq(s)
    series.append(
        step=step, t=s.t, dt=dt,
        mass=mass(s),
        total_energy=_total_energy(s, model, speed_sq),
        kinetic_energy=_kinetic_energy(s, speed_sq),
        max_rho=float(s.rho.max()),
        min_rho=float(s.rho.min()),
        max_theta=float(s.theta.max()),
        max_abs_u=float(abs_u.max()),
        grad_u_max=grad_u,
        rho_theta_norm_12_5=rt_norm,
        G_max=float(np.abs(G).max()),
        entropy_integrand=entropy_dissipation_integrand(s, model, alpha),
        clip_mass_cumulative=clip_cum,
    )


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
    (the full fields are not kept at every step)."""
    return _trapz(traj.series.column("entropy_integrand"), traj.series.t)


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


def alt_criteria(traj: Trajectory, rho_vac_tol: float = 1e-12) -> AltCriteria:
    """Evaluate the alternative blow-up criteria along the trajectory.

    ||grad u||_inf of the symmetric field is max(|u_x|, m|u|/x); 1/rho is
    reported infinite as soon as any cell dips below rho_vac_tol."""
    ser = traj.series
    sup_theta = float(np.max(ser.column("max_theta")))
    sup_rho = float(np.max(ser.column("max_rho")))
    grad_l1t = _trapz(ser.column("grad_u_max"), ser.t)
    min_rho = float(np.min(ser.column("min_rho")))
    inv_rho = math.inf if min_rho < rho_vac_tol else 1.0 / min_rho
    return AltCriteria(
        fan_jiang_ou=sup_theta + grad_l1t,
        fang_zi_zhang=sup_theta + sup_rho,
        sun_wang_zhang=sup_theta + sup_rho + inv_rho,
        sup_theta=sup_theta, sup_rho=sup_rho, grad_u_l1t=grad_l1t,
        inv_rho_sup=inv_rho)


@dataclass
class SupnormCheck:
    lhs: float
    rhs: float
    passed: bool
    mass: float


def weighted_supnorm_check(g: Grid, rho, v) -> SupnormCheck:
    """Discrete mass-weighted sup-norm inequality on the plain interval
    measure: ||v||_inf <= (K/M) ||v_x||_L1 + (1/M) |int rho v| with
    M = K = int rho dx > 0.

    ||v_x||_L1 is the total variation of the cell values (the integral of
    |v'| of the piecewise-linear interpolant); the discrete inequality is
    exact, so the pass flag allows only rounding slack.
    """
    rho = g.require_field(rho)
    v = g.require_field(v)
    if np.any(rho < 0.0):
        raise ValueError("density must be nonnegative")
    M = math.fsum(memoryview(rho * g.dx))
    if not M > 0.0:
        raise ValueError("density must carry positive total mass")
    lhs = float(np.max(np.abs(v)))
    tv = float(np.sum(np.abs(np.diff(v))))
    # normalize the density weights before touching v: rho*v can underflow
    # at extreme magnitudes even though the average of v cannot
    avg_v = math.fsum(memoryview(rho * (g.dx / M) * v))
    rhs = tv + abs(avg_v)
    return SupnormCheck(lhs=lhs, rhs=rhs,
                        passed=lhs <= rhs * (1.0 + 1e-8), mass=M)
