"""Solution state: cell-centered fields at one time instant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid

__all__ = ["State"]


@dataclass
class State:
    """Fields (rho, u, v, w, theta) on a shared grid at time t.

    rho and theta are nonnegative (vacuum is permitted); u, v, w vanish at
    the walls in the ghost-cell sense and theta is insulated there.
    """

    grid: Grid
    t: float
    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        g = self.grid
        self.rho = g.require_field(self.rho)
        self.u = g.require_field(self.u)
        self.v = g.require_field(self.v)
        self.w = g.require_field(self.w)
        self.theta = g.require_field(self.theta)

    def fields(self):
        return {"rho": self.rho, "u": self.u, "v": self.v, "w": self.w,
                "theta": self.theta}

    def is_finite(self) -> bool:
        return all(np.isfinite(f).all()
                   for f in (self.rho, self.u, self.v, self.w, self.theta))

    def validate(self):
        """Raise if the state violates its invariants."""
        if not self.is_finite():
            raise ValueError("state contains non-finite values")
        if np.any(self.rho < 0.0):
            raise ValueError(f"negative density (min {self.rho.min():.3e})")
        if np.any(self.theta < 0.0):
            raise ValueError(f"negative temperature (min {self.theta.min():.3e})")

    def copy(self) -> "State":
        return State(grid=self.grid, t=self.t, rho=self.rho.copy(),
                     u=self.u.copy(), v=self.v.copy(), w=self.w.copy(),
                     theta=self.theta.copy())
