#!/usr/bin/env python3
"""Nonlinear-conduction refinement study: the implicit temperature step
against an explicit fine-grid reference, across grids.

Both discretize the same Kirchhoff flux: the implicit step solves
L_F[Phi(theta)] by Newton sweeps, and the explicit reference steps
``heat_flux_div`` with ``face_kappa``, whose face value is the integral
mean of kappa, so that kappa_f*(theta_{i+1} - theta_i) =
Phi(theta_{i+1}) - Phi(theta_i) with Phi(theta) =
kappa0*(theta + theta^(q+1)/(q+1)).  The difference then measures the
time and grid error of the implicit step alone.

Usage: python scripts/conduction_convergence.py [n ...]   (default 32 64 128)

The acceptance suite's criterion 12 imports this file and checks
``relative_difference(64, 1000)``.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from symns.constitutive import GasModel, heat_capacity
from symns.grid import make_grid, weighted_lp_norm
from symns.operators import face_kappa, heat_flux_div
from symns.state import State
from symns.stepper import StepControls, step_temperature


def implicit_theta(g, model, theta0, dt, nsteps):
    c = StepControls()
    rho = np.ones(g.n)
    z = np.zeros(g.n)
    th = theta0.copy()
    for j in range(nsteps):
        s = State(g, j * dt, rho, z, z, z, th)
        th, _, _ = step_temperature(s, dt, model, c)
    return th


def explicit_theta(g, model, theta0, t_end):
    kmax = float(np.max(1.0 + theta0 ** model.q)) * model.kappa0
    dte = 0.2 * g.dx ** 2 / kmax
    nst = int(np.ceil(t_end / dte))
    dte = t_end / nst
    th = theta0.copy()
    rho = np.ones(g.n)
    for _ in range(nst):
        qp = heat_capacity(model, th)
        kf = face_kappa(g, model, th)
        th = th + dte * heat_flux_div(g, kf, th) / (rho * qp)
    return th


T_END = 0.01
MODEL = GasModel(q=2.0)  # kappa = 1 + theta^2


def _theta0(g):
    return 1.0 + 0.5 * np.cos(np.pi * (g.centers - g.a) / (g.b - g.a))


def relative_difference(n, nsteps):
    """L2 relative difference at T_END between nsteps implicit steps on n
    cells and the explicit reference on 8n cells, averaged back to n."""
    g = make_grid(1.0, 2.0, n, 2)
    th_i = implicit_theta(g, MODEL, _theta0(g), T_END / nsteps, nsteps)
    gf = make_grid(1.0, 2.0, 8 * n, 2)
    th_e = explicit_theta(gf, MODEL, _theta0(gf), T_END)
    th_e = th_e.reshape(n, 8).mean(axis=1)
    return weighted_lp_norm(g, th_i - th_e, 2) / weighted_lp_norm(g, th_e, 2)


def main():
    ns = [int(a) for a in sys.argv[1:]] or [32, 64, 128]
    print(" n    L2 relative difference vs 8x explicit reference")
    for n in ns:
        print(f"{n:4d}  {relative_difference(n, max(200, 10 * n)):.3e}")


if __name__ == "__main__":
    main()
