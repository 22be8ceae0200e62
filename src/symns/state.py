"""Solution state: cell-centered fields at one time instant.

``FIELDS`` names the fields of :class:`State` in order; every other list of
them is built from it.  Density below ``RHO_VAC_TOL`` is vacuum; every vacuum
test of the solver, the initial data and the diagnostics reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grid import Grid

__all__ = ["State", "FIELDS", "RHO_VAC_TOL"]

RHO_VAC_TOL = 1e-12


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
        for name in FIELDS:
            setattr(self, name, g.require_field(getattr(self, name)))

    def is_finite(self) -> bool:
        return all(np.isfinite(getattr(self, name)).all() for name in FIELDS)

    def copy(self) -> "State":
        return State(self.grid, self.t,
                     *[getattr(self, name).copy() for name in FIELDS])


# the fields after grid and t, in declaration order
FIELDS = tuple(f.name for f in fields(State))[2:]
