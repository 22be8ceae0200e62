#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarize it.

Usage, from the repository root:

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --label LABEL \
        [--workloads bump_restart,swirl_long,bump_fine] [--pairs 10] \
        [--seed0 1401] [--seconds 15] [--claim TEXT] [--out DIR]

PARENT_TREE and CHANGE_TREE are two checkouts, each with its own ``bench/``
and ``src/``.  For every workload, pair i runs ``bench/run.py --trace 0``
with seed ``seed0 + k * pairs + i`` (k the workload's index) once in each
tree; the tree that runs first alternates from pair to pair, so a drift of
the host's speed does not favour one side.  Then the first
``TRACE_PAIRS`` of those pairs run again, in the same way, with
``--trace 1 --seconds TRACE_SECONDS``.  Runs go one at a time.

The result is ``DIR/BENCH_<LABEL>.json`` (DIR is made before the first run
if it does not exist) with the keys ``what``, ``claim``,
``provenance``, ``summary``, ``traced_summary``, ``runs`` and ``traced``.
``summary[workload][metric]`` holds q1, median and q3 of each side,
``change_lower_in_pairs`` (the pairs in which the change reads lower) and
``median_change_rel`` (change median over parent median, minus 1; null
where the parent median is 0, as for a traced count that stays 0).  Each
end-to-end metric of ``BENCHMARK.json`` also gets ``parent_iqr`` (the
parent's q3 - q1) and ``gain_shown``, the rule a claimed gain must meet:
true when the change is better, in the metric's ``better`` direction, in
at least 9 of every 10 pairs (ties count for neither side) and its median
is better than the parent's by more than ``parent_iqr``.
``traced_summary`` is the same for the traced pairs.  Each run also keeps
the scaled median ``write_s`` that bench/run.py prints on its
``# write_s:`` line (null where it printed none), and where every run of a
workload has one, its summary holds the same comparison of it under
``informational``: the time spent writing the output, which bench/run.py
leaves out of its metrics and nothing gates on.  Every name in
``--workloads`` must be a workload of ``BENCHMARK.json``, and none may
repeat; the script checks this before the first run.  ``provenance`` holds
the ``# provenance`` line that bench/run.py prints in each tree, less its
seed; the script stops if a tree's ``src_sha256`` changes between runs.

When a run fails or a tree's source changes, the runs finished so far are
kept in ``DIR/BENCH_<LABEL>.partial.json``, with the keys ``what``,
``claim``, ``provenance``, ``error``, ``runs`` and ``traced``, and the
script exits nonzero with the error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
TRACE_PAIRS = 5
TRACE_SECONDS = 10
PROVENANCE = "# provenance "
WRITE_S = "# write_s: median "


def parse_result(stdout: str) -> dict:
    """The JSON result object: the last line of a bench/run.py output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("bench/run.py printed nothing")
    return json.loads(lines[-1])


def parse_provenance(stdout: str) -> dict:
    """The ``# provenance`` object of a bench/run.py output, less its seed."""
    for line in stdout.splitlines():
        if line.startswith(PROVENANCE):
            prov = json.loads(line[len(PROVENANCE):])
            del prov["seed"]
            return prov
    raise ValueError("bench/run.py printed no provenance line")


def parse_write_s(stdout: str):
    """The scaled median write time of a bench/run.py output, or None."""
    for line in stdout.splitlines():
        if line.startswith(WRITE_S):
            return float(line[len(WRITE_S):].split()[0])
    return None


def keep_provenance(kept: dict, side: str, prov: dict):
    """Record side's provenance in kept on its first run; later runs must
    come from the same source tree."""
    was, now = kept.setdefault(side, prov)["src_sha256"], prov["src_sha256"]
    if now != was:
        raise ValueError(f"{side}: src_sha256 changed between runs, from "
                         f"{was} to {now}")


def run_bench(tree, workload, seed, seconds, trace) -> str:
    """One bench/run.py run in tree; its standard output."""
    cmd = [sys.executable, os.path.join("bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):   # 1: a rep failed the output gate
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def load_better(path=BENCHMARK) -> dict:
    """The ``better`` direction ("lower" or "higher") of each end-to-end
    metric that the benchmark definition at path declares."""
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def check_workloads(names, path=BENCHMARK):
    """Raise ValueError unless every name is a workload of the benchmark
    definition at path and none repeats."""
    with open(path, encoding="utf-8") as fh:
        known = [w["name"] for w in json.load(fh)["workloads"]]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ValueError(f"unknown workloads {', '.join(unknown)}; "
                         f"{os.path.basename(path)} has {', '.join(known)}")
    repeated = [n for n in dict.fromkeys(names) if names.count(n) > 1]
    if repeated:
        raise ValueError(f"workloads named twice: {', '.join(repeated)}")


def _compare(values, better=None) -> dict:
    """The quartiles of each side's values and how the sides compare pair
    by pair; values maps each side to its values in pair order.  With the
    metric's better direction, also ``parent_iqr`` and ``gain_shown``."""
    entry = {s: _quartiles(values[s]) for s in SIDES}
    entry["change_lower_in_pairs"] = sum(
        c < p for p, c in zip(values["parent"], values["change"]))
    parent_median = entry["parent"]["median"]
    entry["median_change_rel"] = (
        entry["change"]["median"] / parent_median - 1.0
        if parent_median else None)
    if better is not None:
        sign = {"lower": 1.0, "higher": -1.0}[better]   # gain = sign * drop
        wins = sum(sign * (p - c) > 0.0
                   for p, c in zip(values["parent"], values["change"]))
        iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
        gap = sign * (parent_median - entry["change"]["median"])
        entry["parent_iqr"] = iqr
        entry["gain_shown"] = (10 * wins >= 9 * len(values["parent"])
                               and gap > iqr)
    return entry


def summarize(runs, better=None) -> dict:
    """Per workload and end-to-end metric, the quartiles of each side and
    how the sides compare pair by pair, and the same for ``write_s`` under
    ``informational`` where every run has it.  runs are entries with the
    keys workload, pair, seed, side and result (and write_s, if any), as
    :func:`main` records them.  better maps each end-to-end metric to its
    better direction; by default it is read from ``BENCHMARK.json``."""
    if better is None:
        better = load_better()
    summary = {}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == wl:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [pairs[i] for i in sorted(pairs)]
        if any(set(p) != set(SIDES) for p in pairs):
            raise ValueError(f"{wl}: a pair lacks one of its two sides")
        results = [p[s]["result"] for p in pairs for s in SIDES]
        out = {"pairs": len(pairs),
               "seeds": [p["parent"]["seed"] for p in pairs],
               "correct_all": all(res["correct"] for res in results),
               "failed": sum(res["failed"] for res in results)}
        for name in pairs[0]["parent"]["result"]["metrics"]:
            out[name] = _compare({s: [p[s]["result"]["metrics"][name]["value"]
                                      for p in pairs] for s in SIDES},
                                 better.get(name))
        if all(p[s].get("write_s") is not None for p in pairs for s in SIDES):
            out["informational"] = {"write_s": _compare(
                {s: [p[s]["write_s"] for p in pairs] for s in SIDES})}
        summary[wl] = out
    return summary


def write_json(path, doc):
    """Write doc to path as indented JSON and say so."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", default="bump_restart,swirl_long,bump_fine")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1401)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--claim", default="none")
    ap.add_argument("--out", default=".")
    args = ap.parse_args(argv)
    if args.pairs < 2:   # quartiles need two runs per side
        ap.error("--pairs must be at least 2")
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    try:   # before the first run, not when the bad name's turn comes
        check_workloads(workloads)
    except ValueError as exc:
        ap.error(f"--workloads: {exc}")
    # made now, so that no run is lost to a missing directory at the end
    os.makedirs(args.out, exist_ok=True)
    trees = {"parent": args.parent_tree, "change": args.change_tree}

    provenance = {}

    def run_pairs(runs, count, seconds, trace):
        """Append the first count pairs of every workload to runs, as
        summarize takes them."""
        for k, wl in enumerate(workloads):
            for i in range(count):
                seed = args.seed0 + k * args.pairs + i
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    out = run_bench(trees[side], wl, seed, seconds, trace)
                    keep_provenance(provenance, side, parse_provenance(out))
                    res = parse_result(out)
                    runs.append({"workload": wl, "pair": i, "seed": seed,
                                 "side": side, "result": res,
                                 "write_s": parse_write_s(out)})
                    print(f"{wl} pair {i} seed {seed} {side} trace {trace}: "
                          + json.dumps({m: v["value"] for m, v
                                        in res["metrics"].items()}),
                          flush=True)

    trace_pairs = min(TRACE_PAIRS, args.pairs)
    seeds = (f"{args.seed0}-{args.seed0 + len(workloads) * args.pairs - 1}")
    what = (f"python3 bench/run.py --workload W --seed S --seconds "
            f"{args.seconds:g} --trace 0, run in the parent tree "
            f"(side 'parent') and the change tree (side 'change'); "
            f"{args.pairs} pairs per workload (seeds {seeds}), the side that "
            f"runs first alternating from pair to pair; "
            f"{len(os.sched_getaffinity(0))} CPUs, Python "
            f"{platform.python_version()}. 'traced' holds the first "
            f"{trace_pairs} pairs of each workload run again "
            f"with --trace 1 --seconds {TRACE_SECONDS:g}, summarized in "
            f"'traced_summary'. 'provenance' is each tree's bench/run.py "
            f"provenance line. Written by scripts/bench_pairs.py.")
    runs, traced = [], []
    try:
        run_pairs(runs, args.pairs, args.seconds, 0)
        run_pairs(traced, trace_pairs, TRACE_SECONDS, 1)
    except BaseException as exc:
        write_json(os.path.join(args.out, f"BENCH_{args.label}.partial.json"),
                   {"what": what, "claim": args.claim,
                    "provenance": provenance,
                    "error": f"{type(exc).__name__}: {exc}",
                    "runs": runs, "traced": traced})
        raise
    write_json(os.path.join(args.out, f"BENCH_{args.label}.json"),
               {"what": what, "claim": args.claim, "provenance": provenance,
                "summary": summarize(runs),
                "traced_summary": summarize(traced),
                "runs": runs, "traced": traced})
    return 0


if __name__ == "__main__":
    sys.exit(main())
