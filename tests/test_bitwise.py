"""Bitwise regression pins for three small runs and one momentum step.

Each run is reduced to one SHA-256 digest of its step count, termination
reason, final state and full diagnostics series.  A change that alters any
floating-point operation of the stepper or the diagnostics moves a digest;
a change that only removes repeated work must leave all three unchanged.
The momentum pins hash the three velocities of one ``step_momentum`` call
on a state with vacuum cells, all three components nonzero and a radial
force, so every source term and every frozen vacuum row is covered.

The digests were recorded with numpy 2.4.6 on x86-64 Linux (Python 3.11).
Another numpy build or libm may round ``**``, ``sqrt`` or the summation
differently; re-record the digests there only after checking that the
difference is rounding and not a change of arithmetic.
"""

import hashlib

import numpy as np
import pytest

from symns.config import parse_config
from symns.constitutive import power_gas
from symns.diagnostics import SERIES_COLUMNS
from symns.grid import make_grid
from symns.initdata import preset
from symns.state import State
from symns.stepper import StepControls, run, step_momentum

RECORDED_WITH_NUMPY = "2.4.6"


def _digest(traj) -> str:
    h = hashlib.sha256(f"{traj.steps} {traj.reason}".encode())
    s = traj.final_state
    h.update(np.float64(s.t).tobytes())
    for f in (s.rho, s.u, s.v, s.w, s.theta):
        h.update(f.tobytes())
    for name in SERIES_COLUMNS:
        h.update(traj.series.column(name).tobytes())
    return h.hexdigest()


def _bump_config(tmp_path):
    # m=2, n=256: the solves go through cyclic reduction, and the cells
    # outside the bump are vacuum rows; the power family makes Q' vary
    return """
[grid]
n = 256
m = 2
[model]
family = "power"
r = 0.5
[init]
preset = "vacuum_bump"
[controls]
t_end = 0.05
"""


def _swirl_config(tmp_path):
    # m=1, n=64: w starts at zero and must stay exactly zero
    return """
[grid]
n = 64
m = 1
[init]
preset = "swirl_cylinder"
swirl = 0.2
[controls]
t_end = 1.0
"""


def _restart_config(tmp_path):
    # a snapshot CSV with vacuum, lifted by eps > 0: the initial radial
    # velocity is re-solved before the first step
    n = 64
    dx = 1.0 / n
    x = 1.0 + (np.arange(n) + 0.5) * dx
    xi = (x - 1.5) / 0.25
    shape = np.where(np.abs(xi) < 1.0, ((1.0 + np.cos(np.pi * xi)) / 2.0) ** 2,
                     0.0)
    zeros = np.zeros(n)
    path = tmp_path / "restart.csv"
    np.savetxt(path, np.column_stack([x, shape, zeros, 0.1 * shape, zeros,
                                      0.05 + shape]),
               fmt="%.17g", delimiter=",", header="x,rho,u,v,w,theta",
               comments="")
    return f"""
[grid]
n = {n}
m = 2
[model]
family = "power"
r = 0.5
A = 0.5
gamma = 1.4
[init]
file = "{path}"
eps = 1e-3
[controls]
t_end = 0.05
"""


@pytest.mark.parametrize("make_config,expected", [
    (_bump_config,
     "66e23cf7e55dfaa09283ff29324498ed7f809ea13e02184b133b15f6d56772c7"),
    (_swirl_config,
     "6d77311c96c885c0f8eef1e2cd0c7fdb4dc91d2be63d3c653da970586eb7781a"),
    (_restart_config,
     "035e710daa920777213e1cb52ee4fdf8fa2feb17d8518a0850e1eb56f8617e5c"),
], ids=["vacuum_bump_m2_n256", "swirl_m1_n64", "csv_restart_eps"])
def test_run_is_bitwise_pinned(make_config, expected, tmp_path):
    traj = run(parse_config(make_config(tmp_path)))
    assert traj.reason == "completed"
    assert _digest(traj) == expected, (
        f"digest moved (recorded with numpy {RECORDED_WITH_NUMPY}, "
        f"running {np.__version__})")


@pytest.mark.parametrize("n,expected", [
    (64,
     "774af3726ce48d91e2f4f9f40d1472d777a4a9901576cf22790d477983c043a9"),
    (256,
     "f4a0692f1288923b74c5d349170f0ca5244cdb1c8342fb10933454be13270a61"),
], ids=["thomas_n64", "cyclic_reduction_n256"])
def test_step_momentum_is_bitwise_pinned(n, expected):
    g = make_grid(1.0, 2.0, n, 1)
    d = preset("vacuum_bump", g)
    phase = np.pi * (g.centers - 1.0)
    # u, v and w are nonzero on the vacuum cells too, so that a vacuum row
    # which is not frozen moves the digest
    u = 0.3 * np.sin(phase)
    v = 0.2 * np.sin(2.0 * phase) + 0.05
    w = 0.1 * np.cos(phase)
    s = State(g, 0.0, d.rho, u, v, w, d.theta)
    c = StepControls()
    assert (s.rho < c.rho_vac_tol).any()
    model = power_gas(mu=1.0, lam=0.5, r=0.5, q=2.0, A=0.5, gamma=1.4)
    force_u = 0.7 * d.rho * np.cos(3.0 * phase)
    h = hashlib.sha256()
    for f in step_momentum(s, 2e-3, model, c, force_u=force_u):
        h.update(f.tobytes())
    assert h.hexdigest() == expected, (
        f"digest moved (recorded with numpy {RECORDED_WITH_NUMPY}, "
        f"running {np.__version__})")
