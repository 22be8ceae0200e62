"""Snapshot and diagnostics files: plain CSV with a header line and '\n'
line endings.  Every value is printf ``%.17g``: 17 significant digits, so
that doubles round-trip bit-exactly, in fixed form or, when the decimal
exponent is below -4 or at least 17, in exponent form (``1e-300``), with
trailing zeros dropped and ``-0``, ``nan``, ``inf``, ``-inf`` spelled that
way.  Each file is formatted in one pass over the whole table and written
with one call."""

from __future__ import annotations

import os

import numpy as np

from .diagnostics import SERIES_COLUMNS, DiagnosticsSeries, Trajectory
from .state import State

__all__ = ["SNAPSHOT_COLUMNS", "snapshot_filename", "write_snapshot",
           "write_diagnostics_csv", "write_trajectory"]

SNAPSHOT_COLUMNS = ("x", "rho", "u", "v", "w", "theta")


def _write_csv(path, columns, table):
    # one %-format over the whole table, not one per row; tolist() keeps
    # the bytes, since %.17g formats a float and an np.float64 identically
    rows, k = table.shape
    template = (",".join(["%.17g"] * k) + "\n") * rows
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(columns) + "\n"
                 + template % tuple(table.ravel().tolist()))


def snapshot_filename(step: int) -> str:
    return f"snapshot_{step:07d}.csv"


def write_snapshot(path, state: State):
    _write_csv(path, SNAPSHOT_COLUMNS,
               np.column_stack([state.grid.centers, state.rho, state.u,
                                state.v, state.w, state.theta]))


def write_diagnostics_csv(path, series: DiagnosticsSeries):
    _write_csv(path, SERIES_COLUMNS,
               np.column_stack([series.column(k) for k in SERIES_COLUMNS]))


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
