"""The failure contract, as a property: every config that can be written
either raises ConfigError when it is parsed, or runs to a Trajectory whose
reason is one of the four documented values.  run itself raises nothing:
parsing checks admissibility and builds the initial state.

Configs are drawn at n in [8, 32] with t_end <= 0.01.  Each key is either
omitted or set to a value inside, at the edge of, or just outside its
validated range, NaN or inf included.  Everything runs in this process.
"""

import math
import warnings

from hypothesis import given, settings, strategies as st

from symns.config import parse_config
from symns.errors import ConfigError
from symns.initdata import PRESET_PARAMS
from symns.stepper import run

REASONS = {"completed", "dt_underflow", "solver_failure", "nan_detected"}

NAN, INF = math.nan, math.inf

# key -> (legal values, values at or just outside the edge of the range)
VALUES = {
    "grid.a": ([1.0, 0.5], [1e-3, 0.0, -1.0, NAN, INF]),
    "grid.b": ([2.0, 3.0], [1.0, 0.9, NAN, INF]),
    "grid.n": ([8, 16, 32], [7, 0]),
    "grid.m": ([1, 2, 3], [0]),
    "model.family": (["ideal", "linear", "power"], ["gas"]),
    "model.mu": ([1.0, 0.1], [0.0, -1.0, NAN, INF]),
    "model.lam": ([0.0, 0.5, -0.5], [-5.0, NAN, INF]),
    "model.r": ([0.0, 0.5], [-0.1, 2.0, NAN, INF]),
    "model.q": ([2.0, 1.0], [0.0, -1.0, NAN, INF]),
    "model.kappa0": ([1.0, 0.1], [0.0, -1.0, NAN, INF]),
    "model.A": ([0.0, 0.5], [-0.5, NAN, INF]),
    "model.gamma": ([2.0, 1.4], [1.0, NAN, INF]),
    "controls.cfl": ([0.4, 0.9], [0.0, 1.0, NAN]),
    "controls.picard_max": ([1, 10], [0]),
    "controls.picard_tol": ([1e-10, 1e-3], [0.0, NAN]),
    "controls.rho_vac_tol": ([1e-12, 1e-3], [0.0, NAN]),
    "controls.dt_max": ([INF, 1e-3], [0.0, -1.0, NAN]),
    "controls.dt_min": ([1e-12, 0.5], [0.0, NAN]),
    "controls.max_steps": ([1, 1000], [0]),
    "controls.t_end": ([0.0, 1e-3, 0.01], [-1e-3, NAN]),
    "init.preset": (["equilibrium", "vacuum_bump", "swirl_cylinder",
                     "manufactured"], ["bump"]),
    "init.eps": ([0.0, 1e-3], [-1e-3, NAN, INF]),
    "init.rho_bar": ([1.0, 0.5], [0.0, -1.0, NAN, INF]),
    "init.theta_bar": ([1.0, 0.5], [0.0, -1.0, NAN, INF]),
    "init.rho_max": ([1.0, 2.0], [0.0, -1.0, NAN, INF]),
    "init.center": ([1.5, 1.4], [1.25, 1.0, NAN, INF]),
    "init.halfwidth": ([0.25, 0.1], [0.5, 0.0, NAN, INF]),
    "init.floor_frac": ([0.05, 1.0], [0.0, -0.05, NAN, INF]),
    "init.swirl": ([0.1, 0.0, -0.1], [NAN, INF]),
    "init.amplitude": ([0.05, 0.0], [2.0, NAN, INF]),
    "output.diag_alpha": ([0.5, 0.99], [0.0, 1.0, NAN]),
    "output.snapshot_every": ([0, 1], [-1]),
}

# the preset parameters, as "init.<name>" keys
PARAM_KEYS = {f"init.{name}" for names in PRESET_PARAMS.values()
              for name in names}


def _taken_only(draw: dict) -> dict:
    """draw without the preset parameters its preset does not take (a
    config error), so that most legal draws reach run."""
    taken = PRESET_PARAMS.get(draw["init.preset"] or "equilibrium", ())
    return {key: None if key in PARAM_KEYS and key[5:] not in taken
            else value for key, value in draw.items()}


# every key omitted or legal (preset parameters only where the preset takes
# them), then up to two keys moved to the edge or out
configs = st.tuples(
    st.fixed_dictionaries({key: st.sampled_from([None] + legal)
                           for key, (legal, _) in VALUES.items()}
                          ).map(_taken_only),
    st.lists(st.sampled_from([(key, bad) for key, (_, edge) in VALUES.items()
                              for bad in edge]), max_size=2),
).map(lambda parts: {**parts[0], **dict(parts[1])})


def _text(draw: dict) -> str:
    lines = []
    for key, value in draw.items():
        if value is None:
            continue
        lines.append(f'{key} = "{value}"' if isinstance(value, str)
                     else f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, database=None)
@given(configs)
def test_every_config_ends_in_config_error_or_a_documented_reason(draw):
    text = _text(draw)
    with warnings.catch_warnings():
        # overflow and Picard warnings are allowed; only the outcome is pinned
        warnings.simplefilter("ignore")
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        traj = run(cfg)
    assert traj.reason in REASONS, text
    assert traj.steps <= cfg.controls.max_steps, text
