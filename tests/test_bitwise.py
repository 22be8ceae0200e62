"""Bitwise regression pins for three small runs, one momentum step and the
initial-data presets.

Each run is reduced to one SHA-256 digest of its step count, termination
reason, final state and full diagnostics series.  A change that alters any
floating-point operation of the stepper or the diagnostics moves a digest;
a change that only removes repeated work must leave all three unchanged.
The momentum pins hash the three velocities of one ``step_momentum`` call
on a state with vacuum cells and a radial force: at m = 1 with all three
components nonzero, so every source term and every vacuum row (the rho -> 0
limit of its equation) is covered, and at m = 2, where only the radial
component is advanced.  The preset pins hash the five fields of each
initial-data preset, at its defaults and at one set of other parameters.

The digests were recorded with numpy 2.4.6 on x86-64 Linux (Python 3.11),
whose wheel's OpenBLAS supplies the tridiagonal solve (LAPACK ``dgtsv``).
Another numpy build, LAPACK or libm may round ``**``, ``sqrt``, the
summation or the solve differently; re-record the digests there only after
checking that the difference is rounding and not a change of arithmetic.
"""

import hashlib

import numpy as np
import pytest

from symns.config import parse_config
from symns.constitutive import GasModel
from symns.diagnostics import SERIES_COLUMNS
from symns.grid import make_grid
from symns.initdata import preset
from symns.state import RHO_VAC_TOL, State
from symns.stepper import run, step_momentum

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
    # m=2, n=256: the cells outside the bump are vacuum rows; the power
    # family makes Q' vary
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
    # m=2 is spherical: the initial v and w must be zero
    np.savetxt(path, np.column_stack([x, shape, zeros, zeros, zeros,
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
     "6baf3d90fbaf34ddb5b70999c5e7ca84e56b7d1c5ba50708d892ce434c00411d"),
    (_swirl_config,
     "c408881e8c364b72dcaea378abf085f50268b9f97d81c4fa3743b463dd9d391b"),
    (_restart_config,
     "127f7694157b00c3a64e53a8f59db3d1648186c010bd51278807f38f9e858370"),
], ids=["vacuum_bump_m2_n256", "swirl_m1_n64", "csv_restart_eps"])
def test_run_is_bitwise_pinned(make_config, expected, tmp_path):
    traj = run(parse_config(make_config(tmp_path)))
    assert traj.reason == "completed"
    assert _digest(traj) == expected, (
        f"digest moved (recorded with numpy {RECORDED_WITH_NUMPY}, "
        f"running {np.__version__})")


def test_bump_run_conserves_mass_to_rounding(tmp_path):
    # the scheme conserves mass exactly; the pairwise sums of the mass
    # column may drift by their rounding only, far inside criterion 1
    mass = run(parse_config(_bump_config(tmp_path))).series.column("mass")
    assert np.max(np.abs(mass - mass[0])) / mass[0] <= 1e-14


@pytest.mark.parametrize("m,n,expected", [
    (1, 64,
     "106ca148f8046ce00faabfb9c2aac9338a22c8a8e752b7c39ab35c4ee6acc033"),
    (1, 256,
     "e0247c8c77121128c82fd57d619b931ba381b2ae2d50a062dbe60236dba324e9"),
    (2, 256,
     "87b445945cbc1b3b87676a1e915d9983850236b8026162d167d0e97d130f3f55"),
], ids=["cylindrical_n64", "cylindrical_n256", "spherical_n256"])
def test_step_momentum_is_bitwise_pinned(m, n, expected):
    g = make_grid(1.0, 2.0, n, m)
    d = preset("vacuum_bump", g)
    phase = np.pi * (g.centers - 1.0)
    # the velocities are nonzero on the vacuum cells too, so that a change
    # of the vacuum rows, which solve the rho -> 0 limit, moves the digest;
    # a spherical state (m = 2) has only the radial one
    u = 0.3 * np.sin(phase)
    if m == 1:
        v = 0.2 * np.sin(2.0 * phase) + 0.05
        w = 0.1 * np.cos(phase)
    else:
        v = w = np.zeros(n)
    s = State(g, 0.0, d.rho, u, v, w, d.theta)
    assert (s.rho < RHO_VAC_TOL).any()
    model = GasModel(family="power", mu=1.0, lam=0.5, r=0.5, q=2.0, A=0.5,
                     gamma=1.4)
    force_u = 0.7 * d.rho * np.cos(3.0 * phase)
    h = hashlib.sha256()
    for f in step_momentum(s, 2e-3, model, force_u=force_u):
        h.update(f.tobytes())
    assert h.hexdigest() == expected, (
        f"digest moved (recorded with numpy {RECORDED_WITH_NUMPY}, "
        f"running {np.__version__})")


# (preset, parameters, digest): each preset at its defaults and at one set
# of other values (an int among them, which the preset reads as a float)
_PRESET_PINS = [
    ("equilibrium", {},
     "044e55e777963c6589ff0fccd3e4501bfbb3ee5d50d261c47443807c8a5b830f"),
    ("equilibrium", dict(rho_bar=2.5, theta_bar=3),
     "2635d9189bc2263f3e028033fddff6ffe4aab8c3cbfd8096d0c6607e0d0c8c26"),
    ("vacuum_bump", {},
     "84dd55a169da40b24eccfa2945cd404011007c54b85935e29db2076c584b6891"),
    ("vacuum_bump", dict(rho_max=3.0, center=1.9, halfwidth=0.45,
                         theta_bar=2.0, floor_frac=0.1),
     "c6fcb6c4c3a207a51ac880caffe3350564f7fc08575588ba54fd6dde20b52621"),
    ("swirl_cylinder", {},
     "071c6ddc9cd3243f71aa1787862508da3c1b29589970edda799c9cc1ad903a3d"),
    ("swirl_cylinder", dict(rho_bar=1.5, theta_bar=2.0, swirl=0.35),
     "a1d1ba514fb2a3b4d0c1739ec29ea1b8022122d50ce16559ba218d058c7e3d58"),
    ("manufactured", {},
     "bf1522ce55a64798d5d560963a82d182c388d7489aec4a5ea41483cf56c9e586"),
    ("manufactured", dict(rho_bar=1.2, theta_bar=1.3, amplitude=0.1),
     "2a52d7e7325f7d21885f5d2135ca300583daacba9a9218ea1d318c4e541fd931"),
]


@pytest.mark.parametrize("name,params,expected", _PRESET_PINS,
                         ids=[f"{name}_{'set' if params else 'defaults'}"
                              for name, params, _ in _PRESET_PINS])
def test_preset_is_bitwise_pinned(name, params, expected):
    # the five fields on [1, 2.5], so that b - a != 1 enters the
    # manufactured wave number; swirl needs the cylindrical mode
    g = make_grid(1.0, 2.5, 64, 1 if name == "swirl_cylinder" else 2)
    s = preset(name, g, **params)
    h = hashlib.sha256()
    for f in (s.rho, s.u, s.v, s.w, s.theta):
        h.update(f.tobytes())
    assert h.hexdigest() == expected, (
        f"digest moved (recorded with numpy {RECORDED_WITH_NUMPY}, "
        f"running {np.__version__})")
