"""The benchmark's workloads: seeded inputs for the public symns API.

Each workload is a config text (plus, for ``bump_restart``, a snapshot CSV
the benchmark writes itself).  The seed only moves preset parameters inside
a band narrow enough that step counts stay within a few percent, so runs
with different seeds measure the same amount of work.  Configs are written
out here rather than read from ``configs/`` so that the workloads stay
fixed when the shipped examples change.  Horizons are short, so that one
``stepper.run`` takes well under a second on a 2-vCPU VM and a benchmark
run holds dozens of reps, each timed between two reference slices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

NAMES = ("bump_fine", "swirl_long", "bump_restart")

# Trace buckets (see tracing.py) every traced run must enter; a bucket that
# stays empty means a wrapper no longer sits where the program looks the
# function up.
_COMMON_SPANS = (
    "stepper.run", "stepper.cfl_dt", "stepper.step_continuity",
    "stepper.step_momentum", "stepper.step_temperature", "tridiag.momentum",
    "tridiag.temperature", "operators", "constitutive",
    "diagnostics.record_step", "grid.weighted_integral",
    "config.build_initial", "config.parse_config", "io.write_trajectory",
    "io.write_snapshot", "io.write_diagnostics_csv",
)
_RESTART_SPANS = ("initdata.load_initial_csv",
                  "initdata.solve_initial_velocity", "tridiag.init")


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    n: int
    zero_w: bool              # initial w is zero, so w must stay exactly zero
    required_spans: tuple


def _bump_params(rng) -> tuple[float, float]:
    """Bump centre and half-width within 1% of the preset defaults."""
    center = 1.5 + 0.01 * rng.uniform(-1.0, 1.0)
    halfwidth = 0.25 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0))
    return center, halfwidth


def _bump_fine(rng, tiny, workdir):
    n, t_end = (32, 0.1) if tiny else (2048, 0.02)
    center, halfwidth = _bump_params(rng)
    text = f"""
[grid]
a = 1.0
b = 2.0
n = {n}
m = 2
[model]
family = "ideal"
mu = 1.0
lam = 0.0
q = 2.0
[init]
preset = "vacuum_bump"
center = {center!r}
halfwidth = {halfwidth!r}
[controls]
t_end = {t_end!r}
[output]
snapshot_every = 20
"""
    return Workload("bump_fine", text, n, False, _COMMON_SPANS)


def _swirl_long(rng, tiny, workdir):
    n, t_end = (16, 0.25) if tiny else (64, 5.0)
    swirl = 0.2 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
    text = f"""
[grid]
a = 1.0
b = 2.0
n = {n}
m = 1
[init]
preset = "swirl_cylinder"
swirl = {swirl!r}
[controls]
t_end = {t_end!r}
"""
    return Workload("swirl_long", text, n, True, _COMMON_SPANS)


def _bump_restart(rng, tiny, workdir):
    """Restart from a perturbed vacuum bump written as a snapshot CSV; the
    eps-regularization re-solves the radial velocity on load."""
    n, t_end = (32, 0.1) if tiny else (1024, 0.04)
    center, halfwidth = _bump_params(rng)
    amp = 0.005 * rng.uniform(0.5, 1.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    # same arithmetic as make_grid, so the x column matches exactly
    dx = 1.0 / n
    x = 1.0 + (np.arange(n) + 0.5) * dx
    xi = (x - center) / halfwidth
    shape = np.where(np.abs(xi) < 1.0, ((1.0 + np.cos(np.pi * xi)) / 2.0) ** 2,
                     0.0)
    wiggle = 1.0 + amp * np.sin(2.0 * np.pi * (x - 1.0) + phase)
    rho = shape * wiggle
    theta = (0.05 + shape) * wiggle
    zeros = np.zeros(n)
    path = os.path.join(workdir, "restart.csv")
    np.savetxt(path, np.column_stack([x, rho, zeros, zeros, zeros, theta]),
               fmt="%.17g", delimiter=",", header="x,rho,u,v,w,theta",
               comments="")
    text = f"""
[grid]
a = 1.0
b = 2.0
n = {n}
m = 2
[model]
family = "ideal"
q = 2.0
[init]
file = "{path}"
eps = 1e-3
[controls]
t_end = {t_end!r}
[output]
snapshot_every = 1
"""
    return Workload("bump_restart", text, n, False,
                    _COMMON_SPANS + _RESTART_SPANS)


_BUILDERS = {"bump_fine": _bump_fine, "swirl_long": _swirl_long,
             "bump_restart": _bump_restart}


def make_workload(name: str, seed: int, workdir: str,
                  tiny: bool = False) -> Workload:
    """Inputs of workload ``name`` for ``seed``; files go under ``workdir``.

    ``tiny`` shrinks the grid and the horizon for the smoke test.
    """
    return _BUILDERS[name](np.random.default_rng(seed), tiny, workdir)
