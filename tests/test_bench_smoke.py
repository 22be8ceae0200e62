import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_passes():
    # bench/smoke.py runs every benchmark workload at a tiny size, traced and
    # untraced, so it fails if the tracer no longer finds solve_tridiagonal
    # or its per-context spans
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
