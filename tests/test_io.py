import math

import numpy as np

from symns.config import parse_config
from symns.diagnostics import SERIES_COLUMNS, DiagnosticsSeries
from symns.grid import make_grid
from symns.io import (SNAPSHOT_COLUMNS, write_diagnostics_csv, write_snapshot,
                      write_trajectory)
from symns.state import State
from symns.stepper import run


def _reference_csv(columns, rows):
    """Row-by-row reference writer: 17 significant digits, '\\n' endings."""
    lines = [",".join(columns)]
    lines += [",".join("%.17g" % v for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def test_writers_match_reference_bytes_with_nan_column(tmp_path):
    # m = 3 has no ambient lift, so rho_theta_norm_12_5 is NaN on every row
    cfg = parse_config("""
[grid]
n = 32
m = 3
[init]
preset = "vacuum_bump"
eps = 1e-3
[controls]
t_end = 0.05
[output]
snapshot_every = 1
""")
    traj = run(cfg)
    assert traj.reason == "completed" and len(traj.states) > 2
    paths = write_trajectory(tmp_path, traj)
    for state, path in zip(traj.states, paths[:-1]):
        rows = zip(state.grid.centers, state.rho, state.u, state.v, state.w,
                   state.theta)
        with open(path, "rb") as fh:
            assert fh.read() == _reference_csv(SNAPSHOT_COLUMNS, rows)
    ser = traj.series
    rows = [[ser.rows[k][i] for k in SERIES_COLUMNS] for i in range(len(ser))]
    assert all(isinstance(r[0], int) for r in rows)
    with open(paths[-1], "rb") as fh:
        written = fh.read()
    assert written == _reference_csv(SERIES_COLUMNS, rows)
    assert b",nan," in written


EDGE_VALUES = [-0.0, math.nan, math.inf, -math.inf, 5e-324,
               1.7976931348623157e308, 1e-300, 0.1]


def test_snapshot_edge_values_match_reference_bytes(tmp_path):
    g = make_grid(1.0, 2.0, len(EDGE_VALUES), 2)
    fields = {name: np.roll(EDGE_VALUES, k)
              for k, name in enumerate(("rho", "u", "v", "w", "theta"))}
    state = State(grid=g, t=0.0, **fields)
    path = tmp_path / "snapshot.csv"
    write_snapshot(path, state)
    rows = zip(g.centers, *fields.values())
    written = path.read_bytes()
    assert written == _reference_csv(SNAPSHOT_COLUMNS, rows)
    assert b",-0," in written and b",nan," in written


def test_diagnostics_one_int_step_row_and_empty_series(tmp_path):
    series = DiagnosticsSeries()
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(path, series)
    assert path.read_bytes() == _reference_csv(SERIES_COLUMNS, [])
    row = dict(zip(SERIES_COLUMNS, [7] + EDGE_VALUES * 2))
    series.append(**row)
    write_diagnostics_csv(path, series)
    assert path.read_bytes() == _reference_csv(SERIES_COLUMNS,
                                               [list(row.values())])
    assert path.read_bytes().split(b"\n")[1].startswith(b"7,-0,nan,")
