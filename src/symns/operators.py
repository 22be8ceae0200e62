"""Spatial discretization of the radial differential operators.

Fields are plain float arrays of length n at cell centers; ``ddx`` and
``upwind_derivative`` also take a (k, n) stack of k fields, one per row,
so that a caller with several fields makes one call.  The operators
trust their callers and do not check them: fields are checked where they
enter, by :class:`~symns.state.State`, the public grid integrals and
:func:`~symns.initdata.solve_initial_velocity`.  Boundary closures use one
ghost cell per wall: odd extension (ghost = -first) for fields that vanish
at the walls (velocities), even extension (ghost = first) for fields with
zero wall slope (temperature).  The singular coefficients m/x and m/x^2
are evaluated at cell centers and are bounded because a > 0.

``radial_div`` comes in two forms.  The pointwise form u_x + m*u/x is
exact on linear fields; the flux form x^{-m} * d/dx(x^m * u) differences
the cell product x^m*u and annihilates the divergence-free field x^{-m}
to rounding.  The conservative face-flux update used by the continuity
step lives in :mod:`symns.stepper`.
"""

from __future__ import annotations

import numpy as np

from .constitutive import GasModel, conductivity
from .grid import Grid

__all__ = [
    "ddx",
    "radial_div",
    "lame_operator",
    "axial_laplacian",
    "heat_flux_div",
    "heat_flux_coeffs",
    "apply_heat_flux",
    "face_kappa",
    "dissipation",
    "upwind_derivative",
    "lame_stencil",
    "axial_stencil",
]

_BCS = ("dirichlet0", "neumann0")


def _ghost_pad(g: Grid, f: np.ndarray, bc: str) -> np.ndarray:
    """Copy of f with one ghost value per wall: length n+2, or (k, n+2)
    for a (k, n) stack of fields."""
    if bc not in _BCS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    sign = -1.0 if bc == "dirichlet0" else 1.0
    if f.ndim == 2:
        out = np.empty((len(f), g.n + 2))
        out[:, 1:-1] = f
        out[:, 0] = sign * f[:, 0]
        out[:, -1] = sign * f[:, -1]
        return out
    out = np.empty(g.n + 2)
    out[1:-1] = f
    out[0] = sign * f[0]
    out[-1] = sign * f[-1]
    return out


def ddx(g: Grid, f, bc: str) -> np.ndarray:
    """Second-order centered first derivative with ghost-cell closure; a
    (k, n) stack is differentiated row by row."""
    fp = _ghost_pad(g, f, bc)
    return (fp[..., 2:] - fp[..., :-2]) / (2.0 * g.dx)


def _d2dx2(g: Grid, f: np.ndarray, bc: str) -> np.ndarray:
    fp = _ghost_pad(g, f, bc)
    return (fp[2:] - 2.0 * fp[1:-1] + fp[:-2]) / (g.dx * g.dx)


def radial_div(g: Grid, u, form: str = "pointwise") -> np.ndarray:
    """Divergence u_x + m*u/x of the radial vector field u (dirichlet0).

    form="flux" evaluates x^{-m} * centered-difference of the cell product
    x^m * u instead; the two agree to O(dx^2) on smooth fields.
    """
    x = g.centers
    if form == "pointwise":
        return ddx(g, u, "dirichlet0") + g.m * u / x
    if form == "flux":
        s = x ** g.m * u
        sp = np.empty(g.n + 2)
        sp[1:-1] = s
        # odd extension of u through the wall, ghost centers at a-dx/2, b+dx/2
        sp[0] = (g.a - 0.5 * g.dx) ** g.m * (-u[0])
        sp[-1] = (g.b + 0.5 * g.dx) ** g.m * (-u[-1])
        return (sp[2:] - sp[:-2]) / (2.0 * g.dx) / x ** g.m
    raise ValueError(f"unknown radial_div form {form!r}")


def lame_operator(g: Grid, f) -> np.ndarray:
    """Viscous operator f_xx + m*f_x/x - m*f/x^2 for wall-pinned fields.

    Grouped as f_xx + m*(f_x - f/x)/x so the null field f(x) = x cancels
    exactly cellwise.
    """
    x = g.centers
    return _d2dx2(g, f, "dirichlet0") + g.m * (ddx(g, f, "dirichlet0") - f / x) / x


def axial_laplacian(g: Grid, f) -> np.ndarray:
    """f_xx + m*f_x/x, the viscous operator of the axial velocity component."""
    return _d2dx2(g, f, "dirichlet0") + g.m * ddx(g, f, "dirichlet0") / g.centers


def face_kappa(g: Grid, model: GasModel, theta) -> np.ndarray:
    """Conductivity at cell faces: arithmetic mean of adjacent cell kappa.

    Length n+1; the wall entries replicate the edge cells but carry no
    flux (insulated walls).  Averaging kappa(theta) rather than evaluating
    kappa at averaged theta keeps face conductivities trivially positive.
    """
    kc = conductivity(model, theta)
    kf = np.empty(g.n + 1)
    kf[1:-1] = 0.5 * (kc[:-1] + kc[1:])
    kf[0] = kc[0]
    kf[-1] = kc[-1]
    return kf


def heat_flux_coeffs(g: Grid, kappa_face) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell face conduction coefficients (left, right).

    The conservative heat-flux divergence is
    cr_i*(theta_{i+1} - theta_i) - cl_i*(theta_i - theta_{i-1}), with
    cl/cr = x_f^m * kappa_f / (dx * w_i) and zero at the walls.  Shared by
    the explicit evaluation and the implicit temperature matrix so both
    discretize the same operator.
    """
    kappa_face = np.asarray(kappa_face, dtype=float)
    if kappa_face.shape != (g.n + 1,):
        raise ValueError(f"face conductivity has shape {kappa_face.shape}, "
                         f"expected ({g.n + 1},)")
    geo = g.face_powers * kappa_face / g.dx
    cl = geo[:-1] / g.weights
    cr = geo[1:] / g.weights
    cl[0] = 0.0
    cr[-1] = 0.0
    return cl, cr


def heat_flux_div(g: Grid, kappa_face, theta) -> np.ndarray:
    """x^{-m} d/dx(x^m kappa theta_x) in conservative form, insulated walls.

    The weighted integral of the output telescopes to zero exactly: the
    discrete statement that insulated walls conserve heat.
    """
    cl, cr = heat_flux_coeffs(g, kappa_face)
    return apply_heat_flux(cl, cr, theta[1:] - theta[:-1])


def apply_heat_flux(cl, cr, jump) -> np.ndarray:
    """:func:`heat_flux_div` from its coefficients and the face jumps
    ``theta[1:] - theta[:-1]``, for callers that already hold both."""
    out = np.zeros(len(cl))
    out[:-1] += cr[:-1] * jump
    out[1:] -= cl[1:] * jump
    return out


def dissipation(g: Grid, u, v, w, model: GasModel) -> np.ndarray:
    """Viscous dissipation rate, nonnegative whenever 2*mu+(m+1)*lam > 0.

    lam*(u_x + m u/x)^2 + mu*(w_x^2 + 2 u_x^2 + (v_x - m v/x)^2 + 2m u^2/x^2),
    with the symmetry exponent taken from the grid.  The v and w terms are
    evaluated only when m = 1: a spherically symmetric velocity is radial,
    so for m != 1 ``v`` and ``w`` are ignored.
    """
    x = g.centers
    m = g.m
    ux = ddx(g, u, "dirichlet0")
    div_u = ux + m * u / x
    shear = 2.0 * ux ** 2
    if m == 1:
        vx = ddx(g, v, "dirichlet0")
        wx = ddx(g, w, "dirichlet0")
        shear = wx ** 2 + shear + (vx - v / x) ** 2
    shear = shear + 2.0 * m * (u / x) ** 2
    return model.lam * div_u ** 2 + model.mu * shear


def upwind_derivative(g: Grid, f, wind, bc: str = "dirichlet0") -> np.ndarray:
    """First-order one-sided derivative of f, biased against the wind; a
    (k, n) stack of fields is differentiated row by row in the one wind."""
    fp = _ghost_pad(g, f, bc)
    backward = (fp[..., 1:-1] - fp[..., :-2]) / g.dx
    forward = (fp[..., 2:] - fp[..., 1:-1]) / g.dx
    return np.where(wind > 0.0, backward, np.where(wind < 0.0, forward, 0.0))


def lame_stencil(g: Grid):
    """Tridiagonal rows (sub, diag, sup) of :func:`lame_operator` acting on
    dirichlet0 fields, wall ghosts folded into the diagonal.

    Built once per grid; the arrays are shared and read-only."""
    return g.cached("lame_stencil", lambda g: _wall_pinned_rows(g, True))


def axial_stencil(g: Grid):
    """Rows of :func:`axial_laplacian` on dirichlet0 fields; built once per
    grid, shared and read-only."""
    return g.cached("axial_stencil", lambda g: _wall_pinned_rows(g, False))


def _wall_pinned_rows(g: Grid, lame: bool):
    x = g.centers
    m = g.m
    inv2 = 1.0 / (g.dx * g.dx)
    sub = np.full(g.n, inv2)
    diag = np.full(g.n, -2.0 * inv2)
    sup = np.full(g.n, inv2)
    cross = m / (2.0 * g.dx * x)
    sub -= cross
    sup += cross
    if lame:
        diag -= m / x ** 2
    # ghost = -f at each wall: its column folds into the diagonal negated
    diag[0] -= sub[0]
    diag[-1] -= sup[-1]
    sub[0] = 0.0
    sup[-1] = 0.0
    return sub, diag, sup
