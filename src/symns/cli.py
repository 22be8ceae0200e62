"""Command-line driver: run, verify, sweep, and convergence subcommands.

Exit codes: 0 success/completed, 2 solver failure (any of dt_underflow,
solver_failure, nan_detected, or a failed initial-velocity solve while the
config is parsed), 3 configuration error, which includes an inadmissible
model, a missing or bad initial-data file and an output directory that
cannot be made (all found before any run starts), and a usage error of the
command line.  Human-readable diagnostics go to stderr; results to stdout.
SYMNS_OUT_DIR, when set, replaces output.out_dir as where files are written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .config import SimConfig, override_config, parse_config_file
from .constitutive import check_admissible
from .errors import ConfigError, SolverFailure
from .grid import weighted_lp_norm
from .initdata import compatibility_residuals
from .io import write_trajectory
from .stepper import cfl_dt, run

__all__ = ["cli", "main", "convergence_study", "ConvergenceResult"]

_REASON_EXIT = {"completed": 0, "dt_underflow": 2, "solver_failure": 2,
                "nan_detected": 2}


def _out_dir(cfg: SimConfig) -> str:
    """Where run and sweep write: SYMNS_OUT_DIR if set, else out_dir."""
    return os.environ.get("SYMNS_OUT_DIR") or cfg.output.out_dir


def _cmd_run(args) -> int:
    cfg = parse_config_file(args.config)
    out_dir = _out_dir(cfg)
    # an unwritable out_dir is a config error before the run, not after it
    os.makedirs(out_dir, exist_ok=True)
    traj = run(cfg)
    write_trajectory(out_dir, traj)
    if traj.error:
        print(f"terminated: {traj.error}", file=sys.stderr)
    print(f"{traj.reason}: steps={traj.steps} "
          f"t={traj.final_state.t:.6g} snapshots={len(traj.states)} "
          f"out={out_dir}")
    return _REASON_EXIT[traj.reason]


def _cmd_verify(args) -> int:
    cfg = parse_config_file(args.config)   # inadmissible: a ConfigError
    print("admissibility:")
    print(check_admissible(cfg.model, cfg.grid.m))
    res = compatibility_residuals(cfg.initial, cfg.model)
    print("compatibility residuals (max |g_i| on non-vacuum cells):")
    for name, val in zip(("g1", "g2", "g3", "g4"), res.max_abs()):
        print(f"  {name} = {val:.6g}")
    nvac = len(res.vacuum_indices)
    if nvac:
        print(f"vacuum cells: {nvac}; max raw elliptic expression there = "
              f"{np.max(np.abs(res.vacuum_raw)):.6g}")
    else:
        print("vacuum cells: none")
    return 0


_SWEEP_COLS = ("value", "reason", "steps", "t_final", "mass_drift_rel",
               "max_theta", "seconds")


def _cmd_sweep(args) -> int:
    if "=" not in args.vary:
        raise ConfigError("--vary expects key=v1,v2,...")
    key, _, raw_values = args.vary.partition("=")
    key = key.strip()
    if key == "output.out_dir":
        raise ConfigError("--vary output.out_dir: the run does not read "
                          "out_dir, so every value would run the same config")
    values = [v.strip() for v in raw_values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--vary lists no values")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"--vary repeats {', '.join(repeated)}: each value "
                          "names one run directory")
    cfg = parse_config_file(args.config)
    base_out = _out_dir(cfg)
    os.makedirs(base_out, exist_ok=True)
    # every value's config and initial state are built before any run
    runs = [(v, override_config(cfg, key, v),
             os.path.join(base_out, f"{key.replace('.', '_')}_{v}"))
            for v in values]
    rows = []
    for value, cfg_v, out_dir in runs:
        t0 = time.perf_counter()
        traj = run(cfg_v)
        write_trajectory(out_dir, traj)
        if traj.error:
            print(f"terminated: {value}: {traj.error}", file=sys.stderr)
        m = traj.series.column("mass")
        drift = abs(m[-1] - m[0]) / abs(m[0]) if m[0] != 0.0 else 0.0
        rows.append({"key": key, "value": value, "reason": traj.reason,
                     "steps": traj.steps, "t_final": traj.final_state.t,
                     "mass_drift_rel": drift,
                     "max_theta": float(traj.series.column("max_theta").max()),
                     "seconds": time.perf_counter() - t0})

    print(f"sweep over {key}:")
    print("  " + "  ".join(f"{c:>14s}" for c in _SWEEP_COLS))
    for row in rows:
        cells = []
        for c in _SWEEP_COLS:
            v = row[c]
            cells.append(f"{v:>14.6g}" if isinstance(v, float) else f"{v!s:>14s}")
        print("  " + "  ".join(cells))
    with open(os.path.join(base_out, "sweep_summary.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(",".join(("key",) + _SWEEP_COLS) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in
                              (("key",) + _SWEEP_COLS)) + "\n")
    return 0 if all(r["reason"] == "completed" for r in rows) else 2


@dataclass
class ConvergenceResult:
    ns: list
    diffs: list     # one dict per consecutive grid pair: field -> L2 diff
    orders: list    # one dict per consecutive diff pair: field -> fitted order
    reasons: list

    # the state fields compared, then their root sum of squares
    _FIELDS = ("rho", "u", "theta", "combined")


def convergence_study(cfg: SimConfig, levels: int) -> ConvergenceResult:
    """Self-convergence under spatial refinement at a shared fixed dt.

    Runs levels grids n, 2n, 4n, ... to t_end with dt pinned from the
    finest level's initial CFL bound (halved for headroom), restricts each
    finer solution onto the next coarser grid by pair averaging, and fits
    per-pair orders from the weighted L2 differences.  Sharing dt across
    levels cancels the first-order temporal error in the differences, so
    the fitted order reflects the spatial discretization.
    """
    if levels < 2:
        raise ConfigError("convergence needs at least 2 levels")
    ns = [cfg.grid.n * 2 ** i for i in range(levels)]
    fine = override_config(cfg, "grid.n", str(ns[-1]))
    dt_fixed = 0.5 * cfl_dt(fine.initial, fine.controls, fine.model)
    # each level, built before any runs, keeps its initial and final states
    base = replace(cfg, controls=replace(cfg.controls, dt_max=dt_fixed),
                   output=replace(cfg.output, snapshot_every=0))
    cfgs = [base] + [override_config(base, "grid.n", str(n)) for n in ns[1:]]

    finals = []
    reasons = []
    for ci in cfgs:
        traj = run(ci)
        reasons.append(traj.reason)
        finals.append(traj.final_state)

    diffs = []
    for lvl in range(levels - 1):
        coarse, finer = finals[lvl], finals[lvl + 1]
        d = {}
        for name in ConvergenceResult._FIELDS[:-1]:
            ff = getattr(finer, name)
            delta = getattr(coarse, name) - 0.5 * (ff[0::2] + ff[1::2])
            d[name] = weighted_lp_norm(coarse.grid, delta, 2.0)
        d["combined"] = math.sqrt(sum(v ** 2 for v in d.values()))
        diffs.append(d)
    orders = []
    for lvl in range(levels - 2):
        o = {}
        for name in ConvergenceResult._FIELDS:
            hi, lo = diffs[lvl][name], diffs[lvl + 1][name]
            o[name] = math.log2(hi / lo) if lo > 0.0 and hi > 0.0 else math.nan
        orders.append(o)
    return ConvergenceResult(ns=ns, diffs=diffs, orders=orders,
                             reasons=reasons)


def _cmd_convergence(args) -> int:
    cfg = parse_config_file(args.config)
    res = convergence_study(cfg, args.levels)
    names = ConvergenceResult._FIELDS
    print(f"self-convergence, {args.levels} levels, n = {res.ns}")
    print("  " + "  ".join(f"{h:>12s}" for h in
                           ("pair",) + tuple(f"d_{k}" for k in names)))
    for i, d in enumerate(res.diffs):
        print(f"  {res.ns[i]:>5d}/{res.ns[i + 1]:<5d} "
              + "  ".join(f"{d[k]:>12.4e}" for k in names))
    if res.orders:
        print("fitted spatial orders:")
        print("  " + "  ".join(f"{h:>12s}" for h in ("pair",) + names))
        for i, o in enumerate(res.orders):
            print(f"  {i:>12d} " + "  ".join(f"{o[k]:>12.3f}" for k in names))
    if any(r != "completed" for r in res.reasons):
        print(f"warning: some levels did not complete: {res.reasons}",
              file=sys.stderr)
        return 2
    return 0


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="symns",
        description="Symmetric compressible Navier-Stokes solver on an "
                    "annulus, with vacuum support and blow-up diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation to t_end")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="admissibility and compatibility "
                                          "residual report")
    p_ver.add_argument("config")
    p_ver.set_defaults(func=_cmd_verify)

    p_sw = sub.add_parser("sweep", help="runs over one varied key, in sequence")
    p_sw.add_argument("config")
    p_sw.add_argument("--vary", required=True, metavar="key=v1,v2,...")
    p_sw.set_defaults(func=_cmd_sweep)

    p_cv = sub.add_parser("convergence", help="self-convergence table with "
                                              "fitted spatial orders")
    p_cv.add_argument("config")
    p_cv.add_argument("--levels", type=int, default=3)
    p_cv.set_defaults(func=_cmd_convergence)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 here means solver failure
        return 3 if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
