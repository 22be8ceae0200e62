import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_vacuum_bump_study_runs():
    proc = subprocess.run(
        [sys.executable, os.path.join("scripts", "vacuum_bump_study.py"),
         "32", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "termination: completed" in proc.stdout
    assert "alternative criteria: fan_jiang_ou = " in proc.stdout


def test_conduction_convergence_difference_falls():
    proc = subprocess.run(
        [sys.executable, os.path.join("scripts", "conduction_convergence.py"),
         "16", "32"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [int(n) for n, _ in rows] == [16, 32]
    diffs = [float(d) for _, d in rows]
    assert diffs[1] < diffs[0]
