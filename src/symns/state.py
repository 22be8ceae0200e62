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

    def is_finite(self) -> bool:
        return all(np.isfinite(f).all()
                   for f in (self.rho, self.u, self.v, self.w, self.theta))

    def copy(self) -> "State":
        return State(grid=self.grid, t=self.t, rho=self.rho.copy(),
                     u=self.u.copy(), v=self.v.copy(), w=self.w.copy(),
                     theta=self.theta.copy())
