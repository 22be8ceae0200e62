import copy
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from test_bitwise import _bump_config

import symns.io
from symns.config import parse_config
from symns.diagnostics import SERIES_COLUMNS, DiagnosticsSeries
from symns.grid import Grid, make_grid, weighted_integral
from symns.initdata import load_initial_csv
from symns.io import (SNAPSHOT_COLUMNS, snapshot_filename,
                      write_diagnostics_csv, write_snapshot, write_trajectory)
from symns.state import FIELDS, State
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
    series.extend(**{k: [v] for k, v in row.items()})
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
    arrays = [np.array(col, dtype=float) for col in columns]
    if first_as_text:   # a preformatted column, as the snapshot x column,
        # beside the float columns that give the row count; an all-+0
        # column is one row of text that stands for every row
        columns = [columns[0]] + columns
        arrays = [symns.io._format(arrays[0][None])[0]] + arrays
    header = [f"c{j}" for j in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        symns.io._write_csv(path, header, arrays)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == _reference_csv(header, zip(*columns))
    assert written.count(b"\n") == rows + 1


def test_write_csv_counts_rows_past_an_all_zero_text_column(tmp_path):
    # the first column's text is the one row "0" that _format returns for
    # a column of +0.0; the float columns give the row count
    zeros = np.zeros(3)
    rest = [np.array([1.5, -2.0, 1e-300]), np.array([0.1, 0.0, -0.0])]
    text = symns.io._format(zeros[None])[0]
    assert text.shape[0] == 1
    path = tmp_path / "table.csv"
    symns.io._write_csv(path, ["a", "b", "c"], [text] + rest)
    assert path.read_bytes() == _reference_csv(["a", "b", "c"],
                                               zip(zeros, *rest))


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


def _rows(text):
    """The bytes of each row of a NUL-padded text matrix."""
    return [bytes(row[row != 0]) for row in text]


def _kernel_rows(values):
    """The bytes that the writer formats for each of values."""
    return _rows(symns.io._format(np.array([values], dtype=float))[0])


def _percent(values):
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def test_cached_x_bytes_are_read_only_and_per_grid():
    # dx = 1/24 and 1.7/24 are not dyadic, so the centers need 17 digits
    grids = [Grid(n=24), Grid(n=48), Grid(a=0.3, n=24), Grid(n=24)]
    texts = [symns.io._x_text(g) for g in grids]
    assert symns.io._x_text(grids[0]) is texts[0]   # formatted once per grid
    with pytest.raises(ValueError, match="read-only"):
        texts[0][0, 0] = ord("0")
    for g, text in zip(grids, texts):
        # one NUL-padded row of bytes per cell
        assert text.dtype == np.uint8 and text.shape[0] == g.n
        assert _rows(text) == _percent(g.centers)
    assert _rows(texts[0]) != _rows(texts[2])       # same n, other a
    # an equal grid built separately formats its own copy
    assert grids[3] == grids[0] and texts[3] is not texts[0]


def test_kernel_matches_percent_on_every_power_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    for values in (powers, -powers):
        assert _kernel_rows(values) == _percent(values)
    # inside the certified range only 2**-25 = 2.98023223876953125e-08, a
    # tie at 17 digits, falls back
    inside = (powers >= 1e-279) & (powers < 1e279)
    fallback = symns.io._fallback(powers)
    assert powers[inside & fallback].tolist() == [2.0 ** -25]
    assert fallback[~inside].all()


def test_kernel_matches_percent_next_to_powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    steps = [tens]
    for direction in (np.inf, 0.0):
        near = tens
        for _ in range(2):      # one and two ulps away
            near = np.nextafter(near, direction)
            steps.append(near)
    values = np.concatenate(steps)
    values = values[values != 0.0]       # 1e-323 less two ulps
    for signed in (values, -values):
        assert _kernel_rows(signed) == _percent(signed)


def test_fast_path_edges():
    # 1e-279 <= |x| < 1e279 is certified; one ulp outside falls back, as do
    # the subnormals and the extremes
    lo, hi = 1e-279, 1e279
    inside = np.array([lo, np.nextafter(lo, np.inf), 9.99e278,
                       1.0, 10.0, 1e16, 9.9999999999999e16])
    outside = np.array([np.nextafter(lo, 0.0), hi, 2.2250738585072014e-308,
                        5e-324, 1.7976931348623157e308])
    # log10 rounds these up to the next power of ten: the significand
    # comes out short and the value falls back
    misses = np.array([np.nextafter(hi, 0.0), np.nextafter(1e17, 0.0)])
    values = np.concatenate([inside, outside, misses])
    for signed in (values, -values):
        assert _kernel_rows(signed) == _percent(signed)
        fallback = symns.io._fallback(signed)
        assert fallback.tolist() == [False] * len(inside) + [True] * (
            len(outside) + len(misses))


def _ties():
    """Doubles c * 2**-q, c odd, whose exact decimal c * 5**q / 10**q has
    18 significant digits, the last a 5.  q runs over 2 ... 25, so 10**j
    is a double for some (the kernel's product is exact) and not for
    others."""
    ties = []
    for q in range(2, 26):
        first = -(-10 ** 17 // 5 ** q) | 1
        end = min(10 ** 18 // 5 ** q, 2 ** 53)
        step = 2 * max(1, (end - first) // 16)
        ties += [math.ldexp(c, -q) for c in range(first, end, step)]
    return np.array(ties)


def test_near_ties_take_the_fallback():
    ties = _ties()
    assert len(ties) > 200
    for v in ties.tolist():   # each is exactly halfway at 17 digits
        scaled = Fraction(v)
        while scaled < 10 ** 16:
            scaled *= 10
        assert scaled < 10 ** 17
        assert scaled - math.floor(scaled) == Fraction(1, 2), v
    for signed in (ties, -ties):
        assert symns.io._fallback(signed).all()
        assert _kernel_rows(signed) == _percent(signed)


@settings(max_examples=40, database=None)
@given(hnp.arrays(np.float64, st.integers(1, 5000), elements=st.floats()),
       st.integers(0, 2 ** 32 - 1))
def test_write_csv_matches_reference_on_drawn_long_columns(values, seed):
    # several blocks of rows: the drawn array, and as many random bit
    # patterns beside it
    bits = np.random.default_rng(seed).integers(
        0, 2 ** 64, len(values), dtype=np.uint64, endpoint=False)
    arrays = [values, bits.view(np.float64)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "long.csv")
        symns.io._write_csv(path, ["a", "b"], arrays)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == _reference_csv(["a", "b"], zip(*arrays))


def test_pinned_run_values_take_the_fast_path(tmp_path):
    # the vacuum_bump_m2_n256 pin config, with a snapshot every step: a
    # kernel that formats its values right but slowly fails here
    traj = run(parse_config(_bump_config(tmp_path)
                            + "[output]\nsnapshot_every = 1\n"))
    columns = [traj.states[0].grid.centers]
    columns += [getattr(s, name) for s in traj.states for name in FIELDS]
    columns += [traj.series.column(k) for k in SERIES_COLUMNS]
    checked = 0
    for col in columns:
        traffic = np.isfinite(col) & (col != 0.0)
        assert not symns.io._fallback(col)[traffic].any()
        checked += int(traffic.sum())
    assert len(traj.states) > 10 and checked > 10 * 256


_fields = st.integers(8, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    *[st.lists(kind, min_size=n, max_size=n) for kind in (
        st.floats(min_value=0.0, allow_infinity=False),          # rho
        st.one_of(st.just(-0.0), st.floats(allow_nan=False,
                                           allow_infinity=False)),
        st.one_of(st.just(-0.0), st.floats(allow_nan=False,
                                           allow_infinity=False)),
        st.one_of(st.just(-0.0), st.floats(allow_nan=False,
                                           allow_infinity=False)),
        st.floats(min_value=0.0, allow_infinity=False))]))      # theta


@settings(max_examples=100, database=None)
@given(_fields)
def test_snapshot_round_trips_bitwise_through_the_loader(drawn):
    n, *fields = drawn
    g = Grid(n=n, m=1)            # m = 1: v and w may be nonzero
    state = State(g, 0.0, *[np.array(f) for f in fields])
    assume(0.0 < weighted_integral(g, state.rho) < math.inf)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snapshot.csv")
        write_snapshot(path, state)
        loaded = load_initial_csv(path, Grid(n=n, m=1))
    for name in FIELDS:
        assert np.array_equal(getattr(loaded, name).view(np.int64),
                              getattr(state, name).view(np.int64)), name
