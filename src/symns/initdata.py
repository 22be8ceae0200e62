"""Initial states: presets, epsilon-regularization, and compatibility residuals.

Initial data is the :class:`State` at t = 0.  The regularization lifts
rho and theta by eps and re-solves the initial radial velocity from the
elliptic balance ``beta * (u_xx + m u_x/x - m u/x^2) - P_x = sqrt(rho) * g1``
with wall-pinned u; the swirl components are reused unchanged.  The
compatibility residuals g1..g4 divide the four elliptic expressions by
sqrt(rho) on non-vacuum cells; on vacuum cells the raw expressions are
reported instead (they must themselves be small for compatible data, since
the right-hand side vanishes with rho).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace

import numpy as np

from .constitutive import GasModel, pressure
from .errors import SolverFailure
from .grid import Grid, weighted_integral
from .io import SNAPSHOT_COLUMNS
from .operators import (axial_laplacian, ddx, dissipation, face_kappa,
                        heat_flux_div, lame_operator, lame_stencil)
from .state import State
from .tridiag import solve_tridiagonal, tridiagonal_matvec

__all__ = [
    "validate_initial",
    "CompatibilityResiduals",
    "regularize",
    "solve_initial_velocity",
    "compatibility_residuals",
    "radial_residual",
    "preset",
    "load_initial_csv",
    "PRESETS",
    "PRESET_PARAMS",
]


def validate_initial(s: State):
    """Reject initial data that is non-finite, negative in rho or theta, or
    massless or of infinite total mass, or that has swirl or axial velocity
    off the cylindrical case (m != 1 is spherical: the velocity is radial);
    each check guards outside input."""
    for name in ("rho", "u", "v", "w", "theta"):
        if not np.isfinite(getattr(s, name)).all():
            raise ValueError(f"initial field {name} has non-finite values")
    m = s.grid.m
    if m != 1:
        for name in ("v", "w"):
            if getattr(s, name).any():
                raise ValueError(f"initial field {name} must be zero when "
                                 f"m = {m} != 1")
    if np.any(s.rho < 0.0):
        raise ValueError("initial density must be nonnegative")
    if np.any(s.theta < 0.0):
        raise ValueError("initial temperature must be nonnegative")
    mass = weighted_integral(s.grid, s.rho)   # inf where the sum overflows
    if not 0.0 < mass < np.inf:
        raise ValueError("initial total mass must be positive and finite, "
                         f"got {mass}")


def regularize(s: State, eps: float) -> State:
    """Lift rho and theta by eps > 0; velocities are untouched here and
    the radial one is meant to be re-solved afterwards."""
    if not eps > 0.0:
        raise ValueError(f"regularization parameter must be positive, got {eps}")
    return replace(s, rho=s.rho + eps, theta=s.theta + eps)


def solve_initial_velocity(model: GasModel, rho0e, theta0e, g1, g: Grid):
    """Solve beta*L[u] = P_x(rho0e, theta0e) + sqrt(rho0e)*g1 with u=0 walls.

    L is the wall-pinned tridiagonal Lame stencil.  The residual check
    below trips only if the system is near-singular, which beta > 0
    excludes.
    """
    rho0e = g.require_field(rho0e)
    theta0e = g.require_field(theta0e)
    g1 = g.require_field(g1)
    if not np.all(rho0e > 0.0):
        raise ValueError("solve_initial_velocity needs strictly positive "
                         "density (regularize first)")
    beta = model.beta
    if not beta > 0.0:
        raise ValueError(f"need beta = 2*mu + lam > 0, got {beta}")

    P = pressure(model, rho0e, theta0e)
    rhs = ddx(g, P, "neumann0") + np.sqrt(rho0e) * g1
    sub, diag, sup = lame_stencil(g)
    # solve (-beta*L) u = -rhs so the matrix is positive and dominant
    a = -beta * sub
    b = -beta * diag
    c = -beta * sup
    u = solve_tridiagonal(a, b, c, -rhs, context="initial velocity solve")

    check = tridiagonal_matvec(a, b, c, u) + rhs
    scale = np.max(np.abs(rhs)) + np.max(np.abs(b) * np.abs(u)) + 1e-300
    rel = float(np.max(np.abs(check))) / scale
    if rel > 1e-10:
        raise SolverFailure(f"initial velocity solve residual {rel:.3e} "
                            "exceeds 1e-10: solve assumed singular")
    return u


@dataclass
class CompatibilityResiduals:
    """g1..g4 on non-vacuum cells (NaN elsewhere); vacuum cells report the
    raw elliptic expressions in vacuum_raw, one row per vacuum cell."""

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    g4: np.ndarray
    vacuum_indices: np.ndarray
    vacuum_raw: np.ndarray  # shape (len(vacuum_indices), 4)

    def max_abs(self):
        out = []
        for gi in (self.g1, self.g2, self.g3, self.g4):
            defined = gi[np.isfinite(gi)]
            out.append(float(np.max(np.abs(defined))) if defined.size else 0.0)
        return out


def _per_sqrt_rho(s: State, expr, vac):
    """expr / sqrt(rho) on non-vacuum cells, NaN on vacuum cells."""
    gi = expr / np.sqrt(np.where(vac, 1.0, s.rho))
    gi[vac] = np.nan
    return gi


def _radial_balance(s: State, model: GasModel):
    """beta*L[u] - P_x, the elliptic expression behind g1."""
    P = pressure(model, s.rho, s.theta)
    return model.beta * lame_operator(s.grid, s.u) - ddx(s.grid, P, "neumann0")


def radial_residual(s: State, model: GasModel,
                    rho_vac_tol: float = 1e-12) -> np.ndarray:
    """g1 alone (NaN on vacuum cells): the source the epsilon re-solve of
    the initial radial velocity keeps."""
    return _per_sqrt_rho(s, _radial_balance(s, model), s.rho < rho_vac_tol)


def compatibility_residuals(s: State, model: GasModel,
                            rho_vac_tol: float = 1e-12) -> CompatibilityResiduals:
    validate_initial(s)
    g = s.grid
    expr1 = _radial_balance(s, model)
    expr2 = model.mu * lame_operator(g, s.v)
    expr3 = model.mu * axial_laplacian(g, s.w)
    kf = face_kappa(g, model, s.theta)
    expr4 = heat_flux_div(g, kf, s.theta) + dissipation(g, s.u, s.v, s.w, model)

    vac = s.rho < rho_vac_tol
    gs = [_per_sqrt_rho(s, expr, vac) for expr in (expr1, expr2, expr3, expr4)]
    idx = np.nonzero(vac)[0]
    raw = np.column_stack([expr1[idx], expr2[idx], expr3[idx], expr4[idx]]) \
        if idx.size else np.empty((0, 4))
    return CompatibilityResiduals(*gs, vacuum_indices=idx, vacuum_raw=raw)


def _equilibrium(g: Grid, rho_bar=1.0, theta_bar=1.0):
    """rho_bar, theta_bar constants, zero velocities."""
    return dict(rho=np.full(g.n, rho_bar), theta=np.full(g.n, theta_bar))


def _vacuum_bump(g: Grid, rho_max=1.0, center=None, halfwidth=None,
                 theta_bar=1.0, floor_frac=0.05):
    """rho_max times a C^2 raised-cosine-squared bump about center (default
    the middle of (a, b)) of halfwidth (default (b - a)/4), vacuum outside;
    theta = theta_bar*(floor_frac + bump), zero velocities."""
    center = 0.5 * (g.a + g.b) if center is None else center
    halfwidth = 0.25 * (g.b - g.a) if halfwidth is None else halfwidth
    if rho_max <= 0.0 or halfwidth <= 0.0 or floor_frac <= 0.0:
        raise ValueError("vacuum_bump needs positive rho_max, halfwidth, "
                         "floor_frac")
    if center - halfwidth <= g.a or center + halfwidth >= g.b:
        raise ValueError("bump support must lie strictly inside (a, b)")
    xi = (g.centers - center) / halfwidth
    inside = np.abs(xi) < 1.0
    shape = np.zeros(g.n)
    shape[inside] = ((1.0 + np.cos(np.pi * xi[inside])) / 2.0) ** 2
    return dict(rho=rho_max * shape, theta=theta_bar * (floor_frac + shape))


def _swirl_cylinder(g: Grid, rho_bar=1.0, theta_bar=1.0, swirl=0.1):
    """Constant rho/theta plus v = swirl*sin(pi*(x-a)/(b-a)); cylindrical
    mode only (m = 1)."""
    if g.m != 1:
        raise ValueError("swirl_cylinder requires the cylindrical mode "
                         f"(m = 1), grid has m = {g.m}")
    return dict(rho=np.full(g.n, rho_bar), theta=np.full(g.n, theta_bar),
                v=swirl * np.sin(np.pi * (g.centers - g.a) / (g.b - g.a)))


def _manufactured(g: Grid, rho_bar=1.0, theta_bar=1.0, amplitude=0.05):
    """Smooth closed forms for convergence studies, with k = pi/(b-a):
    rho = rho_bar + amplitude*cos(k(x-a)), u = amplitude*sin(k(x-a)),
    theta = theta_bar + amplitude*cos(k(x-a))."""
    if not (abs(amplitude) < rho_bar and abs(amplitude) < theta_bar):
        raise ValueError("manufactured amplitude must stay below the "
                         "background values")
    k = np.pi / (g.b - g.a)
    c = np.cos(k * (g.centers - g.a))
    return dict(rho=rho_bar + amplitude * c,
                u=amplitude * np.sin(k * (g.centers - g.a)),
                theta=theta_bar + amplitude * c)


_BUILDERS = {"equilibrium": _equilibrium, "vacuum_bump": _vacuum_bump,
             "swirl_cylinder": _swirl_cylinder, "manufactured": _manufactured}
PRESETS = tuple(_BUILDERS)
# preset -> the names of its parameters, read from its builder's signature
PRESET_PARAMS = {name: tuple(inspect.signature(build).parameters)[1:]
                 for name, build in _BUILDERS.items()}


def preset(name: str, g: Grid, **params) -> State:
    """The named initial profile: params (read as floats) set parameters of
    its builder above, whose keyword defaults are the preset's defaults;
    the fields the builder leaves out are zero."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")
    unknown = sorted(set(params) - set(PRESET_PARAMS[name]))
    if unknown:
        raise ValueError(f"preset {name!r} got unknown parameters {unknown}")
    fields = _BUILDERS[name](g, **{k: float(v) for k, v in params.items()})
    s = State(grid=g, t=0.0, **{f: fields.get(f, np.zeros(g.n))
                                for f in ("rho", "u", "v", "w", "theta")})
    validate_initial(s)
    return s


def load_initial_csv(path, g: Grid) -> State:
    """Read initial fields from CSV with columns x,rho,u,v,w,theta
    (the snapshot format).

    The x column must match the grid centers exactly -- this is a loader,
    not an interpolator.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty file")
        names = tuple(h.strip() for h in first.split(","))
        if names != SNAPSHOT_COLUMNS:
            raise ValueError(f"{path}: expected columns "
                             f"{','.join(SNAPSHOT_COLUMNS)}, "
                             f"got {','.join(names)}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (g.n, 6):
        raise ValueError(f"{path}: expected {g.n} data rows x 6 columns, "
                         f"got {data.shape}")
    if not np.array_equal(data[:, 0], g.centers):
        raise ValueError(f"{path}: x column does not match the grid centers "
                         "exactly (no interpolation is performed)")
    _, rho, u, v, w, theta = data.T
    s = State(grid=g, t=0.0, rho=rho, u=u, v=v, w=w, theta=theta)
    validate_initial(s)
    return s
