import copy
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symns.io
from symns.config import parse_config
from symns.diagnostics import SERIES_COLUMNS, DiagnosticsSeries
from symns.grid import Grid, make_grid
from symns.io import (SNAPSHOT_COLUMNS, snapshot_filename,
                      write_diagnostics_csv, write_snapshot, write_trajectory)
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


# one column of a drawn table: how its entries are chosen
_COLUMN_KINDS = {
    "finite": st.floats(allow_nan=False, allow_infinity=False),
    "any": st.floats(),
    "+0": st.just(0.0),
    "-0": st.just(-0.0),
    "±0": st.sampled_from([0.0, -0.0]),
    "nan": st.just(math.nan),
    "±inf": st.sampled_from([math.inf, -math.inf]),
}


@st.composite
def _tables(draw):
    """(rows, columns): each column drawn from one kind, rows from 0 up."""
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)),
                          min_size=1, max_size=7))
    columns = [draw(st.lists(_COLUMN_KINDS[kind], min_size=rows,
                             max_size=rows)) for kind in kinds]
    return rows, columns


@settings(max_examples=300, database=None)
@given(_tables(), st.booleans())
def test_write_csv_matches_reference_on_drawn_tables(table, first_as_text):
    rows, columns = table
    header = [f"c{j}" for j in range(len(columns))]
    arrays = [np.array(col, dtype=float) for col in columns]
    if first_as_text:   # a preformatted column, as the snapshot x column
        arrays[0] = np.array(["%.17g" % v for v in columns[0]], dtype=object)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        symns.io._write_csv(path, header, arrays)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == _reference_csv(header, zip(*columns))
    assert written.count(b"\n") == rows + 1


def test_write_snapshot_alone_matches_trajectory_file(tmp_path):
    # m = 2: v and w are all +0.0 and take the literal-zero path
    cfg = parse_config("""
[grid]
n = 24
[init]
preset = "vacuum_bump"
eps = 1e-3
[controls]
t_end = 0.05
[output]
snapshot_every = 1
""")
    traj = run(cfg)
    assert len(traj.states) > 2
    assert not traj.states[-1].v.any() and not traj.states[-1].w.any()
    paths = write_trajectory(tmp_path / "traj", traj)
    for state, step in zip(traj.states, traj.snapshot_steps):
        # a copy's grid is rebuilt, so it formats its x column afresh
        alone = tmp_path / "alone.csv"
        write_snapshot(alone, copy.deepcopy(state))
        from_traj = tmp_path / "traj" / snapshot_filename(step)
        assert str(from_traj) in paths
        assert alone.read_bytes() == from_traj.read_bytes()
    rows = zip(state.grid.centers, state.rho, state.u, state.v, state.w,
               state.theta)
    assert alone.read_bytes() == _reference_csv(SNAPSHOT_COLUMNS, rows)


def test_cached_x_text_is_read_only_and_per_grid():
    # dx = 1/24 and 1.7/24 are not dyadic, so the centers need 17 digits
    grids = [Grid(n=24), Grid(n=48), Grid(a=0.3, n=24), Grid(n=24)]
    texts = [symns.io._x_text(g) for g in grids]
    assert symns.io._x_text(grids[0]) is texts[0]   # formatted once per grid
    with pytest.raises(ValueError, match="read-only"):
        texts[0][0] = "0"
    for g, text in zip(grids, texts):
        assert text.tolist() == ["%.17g" % x for x in g.centers]
    assert texts[0].tolist() != texts[2].tolist()   # same n, other a
    assert len(texts[1]) == 48
    # an equal grid built separately formats its own copy
    assert grids[3] == grids[0] and texts[3] is not texts[0]
