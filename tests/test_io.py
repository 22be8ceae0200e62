from symns.config import parse_config
from symns.diagnostics import SERIES_COLUMNS
from symns.io import SNAPSHOT_COLUMNS, write_trajectory
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
