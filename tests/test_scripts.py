import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name, args, cwd):
    """Run scripts/<name> from cwd without PYTHONPATH: the script itself
    must put the package on sys.path, whatever the working directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_vacuum_bump_study_runs(tmp_path):
    proc = _run_script("vacuum_bump_study.py", ["32", "0.01"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "termination: completed" in proc.stdout
    assert "alternative criteria: fan_jiang_ou = " in proc.stdout


def test_conduction_convergence_difference_falls(tmp_path):
    proc = _run_script("conduction_convergence.py", ["16", "32"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [int(n) for n, _ in rows] == [16, 32]
    diffs = [float(d) for _, d in rows]
    assert diffs[1] < diffs[0]


def _bench_output(run_s, rss, failed=0, sha="0123abcd", seed=1,
                  maxed=None, write_s=None):
    """Canned bench/run.py standard output: report lines, then the result;
    maxed adds a traced run's ``stepper.picard_maxed`` count and write_s
    the ``# write_s:`` report line of an untraced run."""
    prov = {"git_rev": "unavailable", "src_sha256": sha,
            "src_symns_lines": 2478, "seed": seed}
    metrics = {"run_s": {"value": run_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    if maxed is not None:
        metrics["stepper.picard_maxed"] = {"value": maxed, "unit": "count"}
    result = {"correct": failed == 0, "attempted": 20, "failed": failed,
              "metrics": metrics}
    write = ("" if write_s is None else
             f"# write_s: median {write_s:.6g} s scaled ({write_s * 0.9:.6g} "
             f"wall), n=22, p50 {write_s:.6g}\n")
    return (f"# provenance {json.dumps(prov)}\n# run_s: median ...\n"
            + write + json.dumps(result) + "\n")


def test_bench_pairs_summary_from_canned_results(load_script):
    bench_pairs = load_script("bench_pairs")
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.9, 2.1, 2.5, 3.0, 4.0]
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            value = p if side == "parent" else c
            out = _bench_output(value, 40.0 + value,
                                failed=int(side == "change" and i == 3))
            runs.append({"workload": "bump_restart", "pair": i,
                         "seed": 100 + i, "side": side,
                         "result": bench_pairs.parse_result(out)})
    summary = bench_pairs.summarize(runs)["bump_restart"]
    assert summary["pairs"] == 5 and summary["seeds"] == [100, 101, 102,
                                                          103, 104]
    assert summary["correct_all"] is False and summary["failed"] == 1
    run_s = summary["run_s"]
    assert run_s["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert run_s["change"] == {"q1": 2.1, "median": 2.5, "q3": 3.0}
    assert run_s["change_lower_in_pairs"] == 4
    assert math.isclose(run_s["median_change_rel"], 2.5 / 3.0 - 1.0)
    assert summary["peak_rss_mb"]["parent"]["median"] == 43.0
    assert list(summary) == ["pairs", "seeds", "correct_all", "failed",
                             "run_s", "peak_rss_mb"]
    with pytest.raises(ValueError, match="lacks one of its two sides"):
        bench_pairs.summarize(runs[:-1])
    assert bench_pairs.parse_provenance(_bench_output(1.0, 40.0)) == {
        "git_rev": "unavailable", "src_sha256": "0123abcd",
        "src_symns_lines": 2478}


def _run_s_entry(bench_pairs, parent, change, better=None):
    """The run_s summary entry of canned pairs of one workload."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"workload": "w", "pair": i, "seed": i, "side": side,
                         "result": bench_pairs.parse_result(
                             _bench_output(value, 40.0))})
    return bench_pairs.summarize(runs, better)["w"]["run_s"]


# ten parent runs whose quartiles are 1.0225 and 1.0675 (IQR 0.045)
_PARENT_RUN_S = [1.00 + 0.01 * i for i in range(10)]


def test_bench_pairs_gain_shown_in_nine_of_ten_pairs_with_a_clear_gap(
        load_script):
    bench_pairs = load_script("bench_pairs")
    assert bench_pairs.load_better()["run_s"] == "lower"
    change = [p - 0.2 for p in _PARENT_RUN_S]
    change[3] = 1.5   # one pair the change loses
    entry = _run_s_entry(bench_pairs, _PARENT_RUN_S, change)
    assert entry["change_lower_in_pairs"] == 9
    assert entry["parent_iqr"] == pytest.approx(0.045)
    assert entry["gain_shown"] is True
    # the same runs of a metric where higher is better show no gain
    flipped = _run_s_entry(bench_pairs, _PARENT_RUN_S, change,
                           {"run_s": "higher"})
    assert flipped["gain_shown"] is False


def test_bench_pairs_gain_not_shown_in_eight_of_ten_pairs(load_script):
    bench_pairs = load_script("bench_pairs")
    change = [p - 0.2 for p in _PARENT_RUN_S]
    change[3] = change[6] = 1.5
    entry = _run_s_entry(bench_pairs, _PARENT_RUN_S, change)
    assert entry["change_lower_in_pairs"] == 8
    assert entry["gain_shown"] is False


def test_bench_pairs_gain_not_shown_inside_the_parent_iqr(load_script):
    bench_pairs = load_script("bench_pairs")
    change = [p - 0.01 for p in _PARENT_RUN_S]   # lower in every pair
    entry = _run_s_entry(bench_pairs, _PARENT_RUN_S, change)
    assert entry["change_lower_in_pairs"] == 10
    assert entry["gain_shown"] is False


def test_bench_pairs_keeps_write_s_as_an_informational_entry(load_script):
    bench_pairs = load_script("bench_pairs")
    out = _bench_output(1.0, 40.0, write_s=0.158276)
    assert bench_pairs.parse_write_s(out) == 0.158276
    assert bench_pairs.parse_write_s(_bench_output(1.0, 40.0)) is None
    parent, change = [0.20, 0.19, 0.21, 0.18], [0.09, 0.20, 0.08, 0.10]
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, w in (("parent", p), ("change", c)):
            out = _bench_output(1.0, 40.0, write_s=w)
            runs.append({"workload": "bump_restart", "pair": i,
                         "seed": 7 + i, "side": side,
                         "result": bench_pairs.parse_result(out),
                         "write_s": bench_pairs.parse_write_s(out)})
    summary = bench_pairs.summarize(runs)["bump_restart"]
    write_s = summary["informational"]["write_s"]
    assert write_s["change_lower_in_pairs"] == 3
    assert write_s["parent"]["median"] == pytest.approx(0.195)
    assert write_s["change"]["median"] == pytest.approx(0.095)
    assert write_s["median_change_rel"] == pytest.approx(0.095 / 0.195 - 1)
    # the end-to-end metrics are untouched, and a run without the line
    # drops the entry rather than comparing a partial set
    assert list(summary)[-3:] == ["run_s", "peak_rss_mb", "informational"]
    runs[-1]["write_s"] = None
    assert "informational" not in bench_pairs.summarize(runs)["bump_restart"]


def test_bench_pairs_traces_pairs_and_keeps_provenance(tmp_path,
                                                        monkeypatch,
                                                        load_script):
    bench_pairs = load_script("bench_pairs")
    calls = []
    sha = {"P": "aaaa", "C": "bbbb"}

    def canned(tree, workload, seed, seconds, trace):
        calls.append((tree, workload, seed, seconds, trace))
        # a traced run carries counts that stay 0 on both sides
        return _bench_output(seed / (2.0 if tree == "C" else 1.0), 40.0,
                             sha=sha[tree], seed=seed,
                             maxed=0 if trace else None)

    monkeypatch.setattr(bench_pairs, "run_bench", canned)
    argv = ["P", "C", "--label", "canned", "--workloads",
            "bump_restart,swirl_long",
            "--pairs", "6", "--seed0", "10", "--out", str(tmp_path)]
    assert bench_pairs.main(argv) == 0
    doc = json.loads((tmp_path / "BENCH_canned.json").read_text())
    assert list(doc) == ["what", "claim", "provenance", "summary",
                         "traced_summary", "runs", "traced"]
    assert doc["provenance"] == {
        side: {"git_rev": "unavailable", "src_sha256": sha[tree],
               "src_symns_lines": 2478}
        for side, tree in (("parent", "P"), ("change", "C"))}
    traced = [c for c in calls if c[4] == 1]
    assert len(calls) == 2 * 2 * (6 + 5) and len(traced) == 2 * 2 * 5
    assert {c[3] for c in traced} == {bench_pairs.TRACE_SECONDS}
    # the first five seeds of each workload's pairs, the first side
    # alternating as in the untraced pairs
    assert [c[:3] for c in traced[:4]] == [
        ("P", "bump_restart", 10), ("C", "bump_restart", 10),
        ("C", "bump_restart", 11), ("P", "bump_restart", 11)]
    assert [r["seed"] for r in doc["traced"] if r["side"] == "parent"] == [
        10, 11, 12, 13, 14, 16, 17, 18, 19, 20]
    assert [r["pair"] for r in doc["traced"][:4]] == [0, 0, 1, 1]
    summary = doc["traced_summary"]["swirl_long"]
    assert summary["pairs"] == 5 and summary["seeds"] == [16, 17, 18, 19, 20]
    assert summary["run_s"]["change_lower_in_pairs"] == 5
    assert summary["stepper.picard_maxed"]["median_change_rel"] is None
    assert doc["summary"]["bump_restart"]["pairs"] == 6

    def drifting(tree, workload, seed, seconds, trace):
        # the change tree's source is edited after its first run
        return _bench_output(1.0, 40.0, sha=sha[tree] if tree == "P" or
                             seed == 10 else "cccc", seed=seed)

    monkeypatch.setattr(bench_pairs, "run_bench", drifting)
    with pytest.raises(SystemExit):   # refused before any run
        bench_pairs.main(["P", "C", "--label", "one", "--pairs", "1"])
    with pytest.raises(ValueError, match="change: src_sha256 changed "
                                         "between runs, from bbbb to cccc"):
        bench_pairs.main(argv)
    # the runs finished before the change are kept: pair 0, on both sides
    partial = json.loads((tmp_path / "BENCH_canned.partial.json").read_text())
    assert list(partial) == ["what", "claim", "provenance", "error", "runs",
                             "traced"]
    assert partial["error"].startswith("ValueError: change: src_sha256")
    assert [(r["pair"], r["seed"], r["side"]) for r in partial["runs"]] == [
        (0, 10, "parent"), (0, 10, "change")]
    assert partial["traced"] == []


def test_bench_pairs_makes_its_out_directory_before_the_first_run(
        tmp_path, monkeypatch, load_script):
    bench_pairs = load_script("bench_pairs")
    out = tmp_path / "not" / "there"
    seen = []

    def canned(tree, workload, seed, seconds, trace):
        seen.append(out.is_dir())
        return _bench_output(1.0, 40.0, sha=tree, seed=seed)

    monkeypatch.setattr(bench_pairs, "run_bench", canned)
    assert bench_pairs.main(["P", "C", "--label", "fresh", "--workloads",
                             "bump_restart", "--pairs", "2",
                             "--out", str(out)]) == 0
    assert seen and all(seen)
    assert json.loads((out / "BENCH_fresh.json").read_text())["summary"]


@pytest.mark.parametrize("names, message", [
    ("bump_fine,bump_fien", "unknown workloads bump_fien"),
    ("bump_fine,swirl_long,bump_fine", "workloads named twice: bump_fine"),
])
def test_bench_pairs_checks_workloads_before_the_first_run(
        names, message, tmp_path, monkeypatch, capsys, load_script):
    bench_pairs = load_script("bench_pairs")
    calls = []
    monkeypatch.setattr(bench_pairs, "run_bench",
                        lambda *args: calls.append(args))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["P", "C", "--label", "bad", "--workloads", names,
                          "--out", str(tmp_path / "out")])
    assert exc.value.code == 2 and message in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "out").exists()
