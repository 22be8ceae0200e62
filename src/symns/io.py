"""Snapshot and diagnostics files: plain CSV, 17 significant digits so that
doubles round-trip bit-exactly, C-locale scientific notation."""

from __future__ import annotations

import os

import numpy as np

from .diagnostics import SERIES_COLUMNS, DiagnosticsSeries, Trajectory
from .state import State

__all__ = ["SNAPSHOT_COLUMNS", "snapshot_filename", "write_snapshot",
           "write_diagnostics_csv", "write_trajectory"]

SNAPSHOT_COLUMNS = ("x", "rho", "u", "v", "w", "theta")


def _write_csv(path, columns, table):
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header=",".join(columns), comments="")


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
