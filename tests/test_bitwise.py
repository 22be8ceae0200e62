"""Bitwise regression pins for three small runs.

Each run is reduced to one SHA-256 digest of its step count, termination
reason, final state and full diagnostics series.  A change that alters any
floating-point operation of the stepper or the diagnostics moves a digest;
a change that only removes repeated work must leave all three unchanged.

The digests were recorded with numpy 2.4.6 on x86-64 Linux (Python 3.11).
Another numpy build or libm may round ``**``, ``sqrt`` or the summation
differently; re-record the digests there only after checking that the
difference is rounding and not a change of arithmetic.
"""

import hashlib

import numpy as np
import pytest

from symns.config import parse_config
from symns.diagnostics import SERIES_COLUMNS
from symns.stepper import run

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
