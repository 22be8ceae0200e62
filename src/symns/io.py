"""Snapshot and diagnostics files: plain CSV with a header line and '\n'
line endings.  Every value is printf ``%.17g``: 17 significant digits, so
that doubles round-trip bit-exactly, in fixed form or, when the decimal
exponent is below -4 or at least 17, in exponent form (``1e-300``), with
trailing zeros dropped and ``-0``, ``nan``, ``inf``, ``-inf`` spelled that
way.  Each file is formatted in one pass over the whole table and written
with one call.  A snapshot's columns are ``x`` and then the fields of a
``State`` in declaration order (``SNAPSHOT_COLUMNS``).

Two kinds of column skip the per-value format and give the same bytes.
The ``x`` column of a snapshot is formatted once per grid (through
``Grid.cached``) and its text is reused by every snapshot on that grid.
A column whose entries are all ``+0.0`` (``v`` and ``w`` when m != 1) is
the literal ``0`` in the row template; a column holding ``-0.0`` keeps
``%.17g`` and prints ``-0``."""

from __future__ import annotations

import os

import numpy as np

from .diagnostics import SERIES_COLUMNS, DiagnosticsSeries, Trajectory
from .grid import Grid
from .state import FIELDS, State

__all__ = ["SNAPSHOT_COLUMNS", "snapshot_filename", "write_snapshot",
           "write_diagnostics_csv", "write_trajectory"]

SNAPSHOT_COLUMNS = ("x",) + FIELDS


def _x_text(g: Grid) -> np.ndarray:
    """The cell centers as ``%.17g`` strings, built once per grid."""
    return g.cached("csv_x", lambda g: np.array(
        ["%.17g" % x for x in g.centers.tolist()], dtype=object))


def _write_csv(path, header, columns):
    """Write one column per header name.  A float column is formatted
    ``%.17g``, or is the literal ``0`` when every entry is +0.0; an object
    column holds its entries' text already."""
    rows = len(columns[0])
    formats, values = [], []
    for col in columns:
        text = col.dtype == object
        if not text and not col.any() and not np.signbit(col).any():
            formats.append("0")
        else:
            formats.append("%s" if text else "%.17g")
            # tolist() keeps the bytes: %.17g formats a float and an
            # np.float64 identically
            values.append(col.tolist())
    # the row-major value list of the formatted columns, one slice each
    k = len(values)
    flat = [None] * (rows * k)
    for j, col in enumerate(values):
        flat[j::k] = col
    template = (",".join(formats) + "\n") * rows
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n" + template % tuple(flat))


def snapshot_filename(step: int) -> str:
    return f"snapshot_{step:07d}.csv"


def write_snapshot(path, state: State):
    _write_csv(path, SNAPSHOT_COLUMNS, [_x_text(state.grid)] + [
        getattr(state, name) for name in FIELDS])


def write_diagnostics_csv(path, series: DiagnosticsSeries):
    _write_csv(path, SERIES_COLUMNS,
               [series.column(k) for k in SERIES_COLUMNS])


def write_trajectory(out_dir, traj: Trajectory):
    """Write every recorded snapshot plus diagnostics.csv; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for state, step in zip(traj.states, traj.snapshot_steps):
        p = os.path.join(out_dir, snapshot_filename(step))
        write_snapshot(p, state)
        paths.append(p)
    dpath = os.path.join(out_dir, "diagnostics.csv")
    write_diagnostics_csv(dpath, traj.series)
    paths.append(dpath)
    return paths
