#!/usr/bin/env python3
"""The symns benchmark: run one workload through the public API and print
its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload bump_fine --seed 1 --seconds 40 --trace 0

One repetition ("rep") sets the workload up (``config.parse_config``,
``build_grid``, ``build_model``, ``build_initial``), runs it once
(``stepper.run``) and writes its outputs once (``io.write_trajectory``);
set-up repeats within a small budget so that its median rests on enough
samples.  Every rep passes through the output gate.
Reps repeat, in a closed loop, until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics as medians over the reps.
Each rep sits between two slices of fixed reference work
(:mod:`calibrate`), and its timings are scaled by the host's speed during
those slices, because on a shared host that speed drifts by a third and
more within seconds; the raw wall times are printed alongside.
``--trace 1`` alternates untraced reps with reps traced by
:class:`tracing.Tracer` and reports the per-layer metrics as means per
traced rep, so that the self times add up to the traced ``run`` time;
``trace.overhead_s`` is the traced minus the untraced mean run time.

Human-readable lines (provenance, sample counts, tail percentiles) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every rep passed the gate, 1 when one failed, 2 when the program
source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import calibrate
import workloads
from tracing import TRIDIAG_BUCKETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_out"

MASS_DRIFT_MAX = 1e-12
# Untraced reps repeat set-up at least this many times and until this many
# seconds are spent, so that its median rests on enough samples.
SETUP_PLAN = (5, 0.05)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

MODULES = ("config", "constitutive", "diagnostics", "grid", "initdata", "io",
           "operators", "stepper", "tridiag")

# Per-layer self times that partition the traced ``stepper.run`` span, with
# the trace buckets each one sums.
RUN_PARTITION = {
    "tridiag.s": TRIDIAG_BUCKETS,
    "stepper.cfl_dt_s": ("stepper.cfl_dt",),
    "stepper.continuity_s": ("stepper.step_continuity",),
    "stepper.momentum_self_s": ("stepper.step_momentum",),
    "stepper.temperature_self_s": ("stepper.step_temperature",),
    "stepper.other_s": ("stepper.run",),
    "operators.self_s": ("operators",),
    "constitutive.self_s": ("constitutive",),
    "diagnostics.record_step_s": ("diagnostics.record_step",),
    "grid.weighted_integral_s": ("grid.weighted_integral",),
    "config.build_initial_s": ("config.build_initial",),
    "initdata.load_csv_s": ("initdata.load_initial_csv",),
    "initdata.solve_initial_velocity_s": ("initdata.solve_initial_velocity",),
}


def import_symns() -> dict:
    """The symns submodules, imported from this checkout's ``src``."""
    if not (SRC / "symns" / "__init__.py").is_file():
        print(f"bench: no symns source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"symns.{name}")
            for name in MODULES}


def provenance(seed: int) -> dict:
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unavailable"
    src_files = sorted((SRC / "symns").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:   # read the version without importing scipy into this process
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16],
            "src_symns_lines": lines, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


# -- one rep ---------------------------------------------------------------

def _setup(mods, text):
    cfg = mods["config"].parse_config(text)
    g = mods["config"].build_grid(cfg)
    model = mods["config"].build_model(cfg)
    mods["config"].build_initial(cfg, g, model)
    return cfg


def _fingerprint(traj) -> str:
    s = traj.final_state
    digest = hashlib.sha256(str(traj.steps).encode())
    for f in (s.rho, s.u, s.v, s.w, s.theta):
        digest.update(f.tobytes())
    return digest.hexdigest()


def gate(wl, traj, picard_maxed, paths) -> list:
    """Reasons the rep's outputs are wrong; empty when they pass."""
    bad = []
    if traj.reason != "completed":
        bad.append(f"reason {traj.reason!r}: {traj.error}")
    mass = traj.series.column("mass")
    drift = abs(mass[-1] - mass[0]) / mass[0]
    if not drift <= MASS_DRIFT_MAX:
        bad.append(f"relative mass drift {drift:.3e} > {MASS_DRIFT_MAX:g}")
    fin = traj.final_state
    if not fin.is_finite():
        bad.append("final state has a non-finite field")
    if wl.zero_w and any(np.any(s.w != 0.0) for s in traj.states):
        bad.append("w did not stay exactly zero")
    if picard_maxed:
        bad.append(f"{picard_maxed} Picard loops hit picard_max")
    if len(paths) != len(traj.states) + 1:
        bad.append(f"wrote {len(paths)} files for {len(traj.states)} "
                   "snapshots plus diagnostics")
        return bad
    written = np.loadtxt(paths[-2], delimiter=",", skiprows=1, ndmin=2)
    want = np.column_stack([fin.grid.centers, fin.rho, fin.u, fin.v, fin.w,
                            fin.theta])
    if not np.array_equal(written, want):
        bad.append(f"{paths[-2]} does not reload to the final state")
    with open(paths[-1], encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != len(traj.series):
        bad.append(f"diagnostics.csv has {rows} rows, series has "
                   f"{len(traj.series)}")
    return bad


def _repeat(fn, min_calls, budget):
    """Time ``fn()`` at least ``min_calls`` times and until ``budget``
    seconds have passed; returns the times and the last result."""
    times = []
    t_start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - t_start < budget:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def one_rep(mods, wl, out_dir, tracer=None):
    """Set up, run and write ``wl``; untraced, set-up repeats within its
    budget.  Returns a dict of the rep's timings, counts and gate
    problems."""
    stepper, io = mods["stepper"], mods["io"]
    if tracer is not None:
        tracer.phase = "setup"
    setups, cfg = _repeat(lambda: _setup(mods, wl.config_text),
                          *((1, 0.0) if tracer else SETUP_PLAN))

    gc.collect()
    if tracer is not None:
        tracer.phase = "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        traj = stepper.run(cfg)
        run_s = time.perf_counter() - t0
    picard_maxed = sum(1 for w in caught
                       if issubclass(w.category, RuntimeWarning)
                       and "picard_max" in str(w.message))

    gc.collect()
    if tracer is not None:
        tracer.phase = "write"
    t0 = time.perf_counter()
    paths = io.write_trajectory(out_dir, traj)
    write_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.phase = "idle"

    problems = gate(wl, traj, picard_maxed, paths)
    nbytes = sum(os.path.getsize(p) for p in paths)
    shutil.rmtree(out_dir)
    return {"setups": setups, "run_s": run_s, "write_s": write_s,
            "steps": traj.steps, "picard_maxed": picard_maxed,
            "bytes": nbytes, "fingerprint": _fingerprint(traj),
            "problems": problems}


# -- the measuring loop ----------------------------------------------------

def measure(mods, wl, seconds: float, trace: bool, workdir: str) -> dict:
    """Repeat ``wl`` for ``seconds`` and return the run's result object
    (see the module docstring), plus a ``report`` list of text lines."""
    out_dir = os.path.join(workdir, "out")
    reps, traced, report = [], [], []
    failed = 0
    tracer = Tracer(mods) if trace else None
    reference = None      # fingerprint of the first rep's final state
    t_start = time.perf_counter()
    slice_before = None if trace else calibrate.slice_s()
    while True:
        use_tracer = trace and len(traced) < len(reps)
        try:
            if use_tracer:
                with tracer:
                    rec = one_rep(mods, wl, out_dir, tracer=tracer)
            else:
                rec = one_rep(mods, wl, out_dir)
        except Exception:  # noqa: BLE001 - a crash is a failed rep
            rec = {"problems": [traceback.format_exc()]}
        if slice_before is not None:
            slice_after = calibrate.slice_s()
            rec["speed"] = calibrate.REF_SECONDS / (
                (slice_before + slice_after) / 2.0)
            slice_before = slice_after
        reference = reference or rec.get("fingerprint")
        if rec.get("fingerprint", reference) != reference:
            rec["problems"].append("final state differs from the first rep")
        if rec["problems"]:
            failed += 1
            for p in rec["problems"]:
                print(f"bench: {wl.name}: rep {len(reps) + len(traced)} "
                      f"failed: {p}", file=sys.stderr)
        (traced if use_tracer else reps).append(rec)
        elapsed = time.perf_counter() - t_start
        mean_rep = elapsed / (len(reps) + len(traced))
        if elapsed + mean_rep > seconds and (traced or not trace):
            break
    attempted = len(reps) + len(traced)
    ok = [r for r in reps if not r["problems"]]
    ok_traced = [r for r in traced if not r["problems"]]
    report.append(f"workload {wl.name}: n={wl.n}, {attempted} reps attempted, "
                  f"{failed} failed (failed_share {failed}/{attempted})")
    correct = failed == 0
    if trace:
        metrics, problems = layer_metrics(tracer, ok_traced, ok, wl)
        for p in problems:
            print(f"bench: {wl.name}: trace check failed: {p}", file=sys.stderr)
        correct = correct and not problems
        report.append(f"traced reps {len(ok_traced)}, untraced reps {len(ok)}")
    else:
        metrics = end_to_end_metrics(ok, wl, report)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": report}


def _tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(samples, p))
    return None


def end_to_end_metrics(reps, wl, report) -> dict:
    """End-to-end values: medians over the reps of the timings scaled by
    each rep's host speed (see :mod:`calibrate`); set-up is the median of
    every set-up the reps made.

    ``write_s`` is printed but not reported: the reference slice does not
    track the host's file-system speed, and the median scaled write time of
    bump_restart spread by 0.12 across seeds on a 2-vCPU VM, where its run
    time spread by 0.02.
    Its time is part of ``total_s``.
    """
    if not reps:
        return {}
    per_rep = {
        "run_s": [r["run_s"] for r in reps],
        "us_per_cell_step": [r["run_s"] / (wl.n * r["steps"]) * 1e6
                             for r in reps],
        "total_s": [statistics.median(r["setups"]) + r["run_s"]
                    + r["write_s"] for r in reps],
        "write_s": [r["write_s"] for r in reps],
    }
    units = {"run_s": "s", "us_per_cell_step": "us", "total_s": "s",
             "setup_s": "s", "write_s": "s"}
    raw = dict(per_rep, setup_s=[t for r in reps for t in r["setups"]])
    scaled = {name: [v * r["speed"] for v, r in zip(values, reps)]
              for name, values in per_rep.items()}
    scaled["setup_s"] = [t * r["speed"] for r in reps for t in r["setups"]]
    speeds = [r["speed"] for r in reps]
    report.append(f"host speed (reference slice {calibrate.REF_SECONDS} s "
                  f"over its time): median {statistics.median(speeds):.4g}, "
                  f"min {min(speeds):.4g}, max {max(speeds):.4g}")
    metrics = {}
    for name, samples in scaled.items():
        med = statistics.median(samples)
        tail = _tail(samples)
        tail_txt = (f"p{tail[0]:g} {tail[1]:.6g}" if tail
                    else "no percentile has 10 samples beyond it")
        report.append(f"{name}: median {med:.6g} {units[name]} scaled "
                      f"({statistics.median(raw[name]):.6g} wall), "
                      f"n={len(samples)}, {tail_txt}")
        if name != "write_s":
            metrics[name] = {"value": med, "unit": units[name]}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.append(f"peak_rss_mb: {rss:.6g} MB (process peak), "
                  f"steps per run {reps[0]['steps']}")
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return metrics


def layer_metrics(tr, traced, untraced, wl):
    """Per-layer metrics as means per traced rep, and the problems found
    checking the trace."""
    n = len(traced)
    if n == 0:
        return {}, ["no traced rep passed the gate"]

    def calls(phase, *buckets):
        return sum(tr.calls[(phase, b)] for b in buckets) / n

    def self_s(phase, *buckets):
        return sum(tr.self_s[(phase, b)] for b in buckets) / n

    def total_s(phase, bucket):
        return tr.total_s[(phase, bucket)] / n

    def per_call(phase, bucket, scale=1.0):
        count = tr.calls[(phase, bucket)]
        return tr.total_s[(phase, bucket)] / count * scale if count else 0.0

    values = {name: (self_s("run", *buckets), "s")
              for name, buckets in RUN_PARTITION.items()}
    rows = tr.counts[("run", "tridiag.rows")] / n
    sweeps = tr.counts[("run", "stepper.picard_sweeps")]
    temp_calls = tr.calls[("run", "stepper.step_temperature")]
    io_bytes = statistics.fmean(r["bytes"] for r in traced)
    write_total = total_s("write", "io.write_trajectory")
    traced_run = total_s("run", "stepper.run")
    untraced_run = (statistics.fmean(r["run_s"] for r in untraced)
                    if untraced else math.nan)
    values.update({
        "tridiag.calls": (calls("run", *TRIDIAG_BUCKETS), "count"),
        "tridiag.rows": (rows, "count"),
        "tridiag.ns_per_row": (
            values["tridiag.s"][0] / rows * 1e9 if rows else 0.0, "ns/row"),
        "tridiag.momentum_s": (self_s("run", "tridiag.momentum"), "s"),
        "tridiag.temperature_s": (self_s("run", "tridiag.temperature"), "s"),
        "tridiag.init_s": (self_s("run", "tridiag.init"), "s"),
        "tridiag.bytes": (tr.counts[("run", "tridiag.bytes")] / n, "B"),
        "stepper.steps": (statistics.fmean(r["steps"] for r in traced),
                          "count"),
        "stepper.picard_sweeps_per_step": (
            sweeps / temp_calls if temp_calls else 0.0, "sweeps/step"),
        "stepper.picard_maxed": (
            statistics.fmean(r["picard_maxed"] for r in traced), "count"),
        "operators.calls": (calls("run", "operators"), "count"),
        "constitutive.calls": (calls("run", "constitutive"), "count"),
        "diagnostics.us_per_row": (
            per_call("run", "diagnostics.record_step", 1e6), "us/row"),
        "grid.weighted_integral_calls": (
            calls("run", "grid.weighted_integral"), "count"),
        "config.parse_s": (per_call("setup", "config.parse_config"), "s"),
        "io.snapshots": (calls("write", "io.write_snapshot"), "count"),
        "io.bytes": (io_bytes, "B"),
        "io.snapshot_s": (total_s("write", "io.write_snapshot"), "s"),
        "io.diagnostics_csv_s": (total_s("write", "io.write_diagnostics_csv"),
                                 "s"),
        "io.mb_per_s": (io_bytes / write_total / 1e6 if write_total else 0.0,
                        "MB/s"),
        "trace.run_s": (traced_run, "s"),
        "trace.overhead_s": (traced_run - untraced_run, "s"),
    })

    problems = []
    entered = {b for (_, b) in tr.calls}
    for span in wl.required_spans:
        if span not in entered:
            problems.append(f"span {span} was never entered")
    run_buckets = {b for (phase, b) in tr.calls if phase == "run"}
    outside = run_buckets - set().union(*RUN_PARTITION.values())
    if outside:
        problems.append(f"run spans outside the partition: {sorted(outside)}")
    parts = sum(values[k][0] for k in RUN_PARTITION)
    if not abs(parts - traced_run) <= 1e-9 * traced_run:
        problems.append(f"self times add to {parts!r} s, traced run took "
                        f"{traced_run!r} s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, \
        problems


def remove_workdir(workdir):
    """Delete a run's scratch directory, and WORK_ROOT once it is empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:   # another run still uses it
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = import_symns()
    print("# provenance " + json.dumps(provenance(args.seed)))
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make_workload(args.workload, args.seed, str(workdir))
        result = measure(mods, wl, args.seconds, bool(args.trace),
                         str(workdir))
    finally:
        remove_workdir(workdir)
    for line in result.pop("report"):
        print("# " + line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
