#!/usr/bin/env python3
"""Smoke test of the benchmark; takes well under a minute.

Checks that
- every workload, shrunk to a tiny grid and a short horizon, passes the
  output gate in both modes and reports every metric ``BENCHMARK.json``
  names for that mode, with its unit and a finite value;
- the gate counts deliberately broken inputs as failed reps;
- the command line prints its result as the last line of standard output,
  and exits non-zero without a result where the program source is absent.

Usage, from the repository root:

    python3 bench/smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

BROKEN = {
    "t_end beyond max_steps": "\n[controls]\nmax_steps = 2\n",
    "Picard capped at one sweep": "\n[controls]\npicard_max = 1\n",
}


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def check_metrics(result, declared, what):
    got = result["metrics"]
    check(set(got) == set(declared),
          f"{what}: metrics {sorted(set(got) ^ set(declared))} differ "
          "from BENCHMARK.json")
    for name, unit in declared.items():
        check(got[name]["unit"] == unit,
              f"{what}: {name} has unit {got[name]['unit']!r}, not {unit!r}")
        check(math.isfinite(got[name]["value"]),
              f"{what}: {name} = {got[name]['value']!r}")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
          "BENCHMARK.json workloads differ from workloads.NAMES")
    declared = {mode: {m["name"]: m["unit"] for m in spec[key]}
                for mode, key in ((False, "end_to_end"), (True, "per_layer"))}
    check(set(run.RUN_PARTITION) <= set(declared[True]),
          "RUN_PARTITION names an undeclared metric")

    with open(Path(__file__).with_name("predictions.json"),
              encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    listed = [m for layer in layers for m in layer["metrics"]]
    check(sorted(listed) == sorted(declared[True]),
          "predictions.json must list every per-layer metric exactly once")
    for layer in layers:
        check(set(layer["moves"]) <= set(declared[False])
              and set(layer["on"] + layer["bypass"]) <= set(workloads.NAMES),
              f"predictions.json: {layer['layer']} names an unknown "
              "metric or workload")

    mods = run.import_symns()
    workdir = run.WORK_ROOT / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.NAMES:
            wl = workloads.make_workload(name, 0, str(workdir), tiny=True)
            for trace in (False, True):
                what = f"{name} trace={int(trace)}"
                res = run.measure(mods, wl, 0.0, trace, str(workdir))
                check(res["correct"] and res["failed"] == 0,
                      f"{what}: gate failed a tiny run")
                check_metrics(res, declared[trace], what)
            for why, extra in BROKEN.items():
                bad = dataclasses.replace(
                    wl, config_text=wl.config_text + extra)
                res = run.measure(mods, bad, 0.0, False, str(workdir))
                check(not res["correct"]
                      and res["failed"] == res["attempted"] >= 1,
                      f"{name}: gate passed a broken input ({why})")

        cmd = [sys.executable, "bench/run.py", "--workload", "bump_restart",
               "--seed", "0", "--seconds", "0", "--trace", "0"]
        out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                             text=True, timeout=180)
        check(out.returncode == 0, f"run.py exited {out.returncode}: "
              f"{out.stderr}")
        res = json.loads(out.stdout.splitlines()[-1])
        check(set(res) == {"correct", "attempted", "failed", "metrics"},
              f"run.py result keys {sorted(res)}")
        check_metrics(res, declared[False], "command line")

        bare = workdir / "bare"
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                             timeout=180)
        check(out.returncode != 0 and not out.stdout.strip(),
              "run.py printed a result without the program source")
    finally:
        run.remove_workdir(workdir)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
