"""Constitutive laws for the heat-conducting gas and their admissibility checks.

The model class is split laws: e = Q(theta) + e_c(rho), P = rho*Q(theta)
+ P_c(rho), kappa = kappa0*(1 + theta^q).  Two closed-form Q families and
two P_c families are provided; e_c is derived from P_c through
rho^2 * e_c'(rho) = P_c(rho) so the temperature-linear family satisfies
the thermodynamic consistency identity by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GasModel",
    "pressure",
    "internal_energy",
    "sound_speed",
    "conductivity",
    "heat_capacity",
    "check_admissible",
    "AdmissibilityReport",
]


@dataclass(frozen=True)
class GasModel:
    """Immutable constitutive model; the ``[model]`` section of a run config.

    family selects Q(theta): "ideal" is Q = theta (r = 0);
    "power" is Q = theta + theta^(1+r)/(1+r) with r >= 0.  The cold-pressure
    constant A >= 0 selects the P_c family: A = 0 is "zero"; A > 0 is
    "barotropic" P_c = A rho^gamma (gamma > 1) with derived
    e_c = A rho^(gamma-1)/(gamma-1).  Conductivity is kappa0 * (1 + theta^q)
    with q > r.  Every numeric field must be finite.  The constructor
    enforces all of this; the one condition left, 2*mu + (m+1)*lam > 0,
    depends on the grid (check_admissible).
    """

    family: str = "ideal"
    mu: float = 1.0
    lam: float = 0.0
    r: float = 0.0
    q: float = 2.0
    kappa0: float = 1.0
    A: float = 0.0
    gamma: float = 2.0

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"shear viscosity must be positive, got mu={self.mu}")
        if not self.kappa0 > 0.0:
            raise ValueError(f"kappa0 must be positive, "
                             f"got kappa0={self.kappa0}")
        if self.family not in ("ideal", "power"):
            raise ValueError(f"unknown family {self.family!r}; choose from "
                             f"ideal, power")
        if self.family != "power" and self.r != 0.0:
            raise ValueError(f"r must be 0 for the {self.family} family, "
                             f"got r={self.r}")
        if not self.r >= 0.0:
            raise ValueError(f"r must be >= 0, got r={self.r}")
        if not self.q > self.r:
            raise ValueError(f"conductivity growth must dominate: need q > r, "
                             f"got q={self.q}, r={self.r}")
        if not self.A >= 0.0:
            raise ValueError(f"cold-pressure constant must be >= 0, "
                             f"got A={self.A}")
        if self.A > 0.0 and not self.gamma > 1.0:
            raise ValueError(f"barotropic family needs gamma > 1, "
                             f"got gamma={self.gamma}")
        # last, so that NaN keeps the range messages above; lam and, when
        # A = 0, gamma have no range check to catch it
        for name in ("mu", "lam", "r", "q", "kappa0", "A", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {name}={getattr(self, name)}")

    @property
    def pc_family(self) -> str:
        """Cold-pressure family: "barotropic" when A > 0, else "zero"."""
        return "barotropic" if self.A > 0.0 else "zero"

    @property
    def beta(self) -> float:
        """Viscous coefficient 2*mu + lam of the radial momentum equation."""
        return 2.0 * self.mu + self.lam


def _check_nonneg(name, value):
    arr = np.asarray(value, dtype=float)
    if (arr < 0.0).any():
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _Q(model: GasModel, theta):
    if model.family != "power":
        return theta
    return theta + theta ** (1.0 + model.r) / (1.0 + model.r)


def _Qprime(model: GasModel, theta):
    if model.family != "power":
        return np.ones_like(theta)
    return 1.0 + theta ** model.r


def _kappa(model: GasModel, theta):
    return model.kappa0 * (1.0 + theta ** model.q)


def _Pc(model: GasModel, rho):
    if model.pc_family == "zero":
        return np.zeros_like(rho)
    return model.A * rho ** model.gamma


def _ec(model: GasModel, rho):
    if model.pc_family == "zero":
        return np.zeros_like(rho)
    return model.A * rho ** (model.gamma - 1.0) / (model.gamma - 1.0)


def pressure(model: GasModel, rho, theta):
    """P = rho*Q(theta) + P_c(rho); vacuum has zero pressure."""
    rho = _check_nonneg("density", rho)
    theta = _check_nonneg("temperature", theta)
    out = rho * _Q(model, theta) + _Pc(model, rho)
    return out if out.ndim else float(out)


def internal_energy(model: GasModel, rho, theta):
    """Specific internal energy e = Q(theta) + e_c(rho)."""
    rho = _check_nonneg("density", rho)
    theta = _check_nonneg("temperature", theta)
    out = _Q(model, theta) + _ec(model, rho)
    return out if out.ndim else float(out)


def sound_speed(model: GasModel, rho, theta):
    """sqrt(dP/drho) at fixed theta = sqrt(Q(theta) + A*gamma*rho^(gamma-1))."""
    rho = _check_nonneg("density", rho)
    theta = _check_nonneg("temperature", theta)
    cs2 = _Q(model, theta)
    if model.pc_family == "barotropic":
        cs2 = cs2 + model.A * model.gamma * rho ** (model.gamma - 1.0)
    out = np.sqrt(cs2)
    return out if out.ndim else float(out)


def conductivity(model: GasModel, theta):
    """kappa(theta) = kappa0 * (1 + theta^q) > 0."""
    theta = _check_nonneg("temperature", theta)
    out = _kappa(model, theta)
    return out if out.ndim else float(out)


def heat_capacity(model: GasModel, theta):
    """Q'(theta): 1 for the ideal family, 1 + theta^r for the power family."""
    theta = _check_nonneg("temperature", theta)
    out = _Qprime(model, theta)
    return out if out.ndim else float(out)


@dataclass
class AdmissibilityReport:
    """Outcome of :func:`check_admissible` for a model and symmetry exponent
    m: one (name, passed, detail) row per condition; failures carry the
    witness value.  The rows are formatted only when they are read."""

    model: GasModel
    m: int

    @property
    def lame_combination(self) -> float:
        return 2.0 * self.model.mu + (self.m + 1) * self.model.lam

    @property
    def ok(self) -> bool:
        # the only condition that can fail: GasModel enforces the rest
        return self.lame_combination > 0.0

    @property
    def checks(self) -> list:
        """The rows.  The second carries the exact constants: q > r,
        C1 = gamma - 1 in rho*|e_c'| <= C1*e_c (or e_c = 0), and C4 = C5 in
        C4*(1+theta^r) <= Q' <= C5*(1+theta^r), which is 1/2 for Q = theta
        and 1 for the power family."""
        model, m = self.model, self.m
        c1 = (f"C1 = gamma - 1 = {model.gamma - 1.0}"
              if model.pc_family == "barotropic" else "e_c = 0")
        c45 = 1.0 if model.family == "power" else 0.5
        return [
            (f"2*mu + (m+1)*lam > 0 (m={m})", self.ok,
             f"2*{model.mu} + {m + 1}*{model.lam} = {self.lame_combination}"),
            ("mu > 0, q > r, e_c and Q' bounds (enforced by GasModel)", True,
             f"mu = {model.mu}, q = {model.q} > r = {model.r}, {c1}, "
             f"C4 = C5 = {c45}"),
        ]

    def __str__(self):
        lines = []
        for name, passed, detail in self.checks:
            mark = "pass" if passed else "FAIL"
            lines.append(f"[{mark}] {name}: {detail}")
        return "\n".join(lines)


def check_admissible(model: GasModel, m: int) -> AdmissibilityReport:
    """The admissibility conditions of the model for symmetry exponent m.

    Only 2*mu + (m+1)*lam > 0 can fail: it depends on m, while GasModel's
    constructor has enforced the rest (see :attr:`AdmissibilityReport.checks`
    for the constants its row reports).
    """
    return AdmissibilityReport(model, m)
