#!/usr/bin/env python3
"""Run the vacuum-bump scenario and print the monitored functionals.

Usage: python scripts/vacuum_bump_study.py [n] [t_end]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from symns.config import parse_config
from symns.diagnostics import (alt_criteria, blowup_indicator,
                               entropy_dissipation, sup_theta_time_integral)
from symns.stepper import run


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    t_end = float(sys.argv[2]) if len(sys.argv) > 2 else 0.1
    cfg = parse_config(f"""
[grid]
n = {n}
[init]
preset = "vacuum_bump"
[controls]
t_end = {t_end}
[output]
diag_alpha = 0.5
""")
    traj = run(cfg)
    m = traj.series.column("mass")
    print(f"termination: {traj.reason} after {traj.steps} steps, "
          f"t = {traj.final_state.t:.6g}")
    print(f"mass drift (relative): {abs(m[-1] - m[0]) / m[0]:.3e}")
    print(f"blow-up indicator:     {blowup_indicator(traj):.6f}")
    print(f"entropy dissipation:   {entropy_dissipation(traj):.6e}")
    print(f"int ||theta||_inf^(2q+2) dt: "
          f"{sup_theta_time_integral(traj, 2 * cfg.model.q + 2):.6e}")
    crit = alt_criteria(traj)
    print(f"alternative criteria: fan_jiang_ou = {crit.fan_jiang_ou:.4f}, "
          f"fang_zi_zhang = {crit.fang_zi_zhang:.4f}, "
          f"sun_wang_zhang = {crit.sun_wang_zhang}")


if __name__ == "__main__":
    main()
