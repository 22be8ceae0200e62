import os
import subprocess
import sys

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
