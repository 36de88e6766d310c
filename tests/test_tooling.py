"""The demos and the benchmark's own smoke test, run as subprocesses."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_fit_project_reconstruct.py", "02_primal_dual_equivalence.py",
                                  "03_generation.py"])
def test_demo_runs(tmp_path, demo):
    # a copy, so the demo writes its artifacts under tmp_path
    shutil.copy(ROOT / "demos" / demo, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_benchmark_smoke():
    # the benchmark's numpy-only reference checks and its layer-trace name
    # contract, on both workloads at N=50
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])
    assert "smoke: PASS" in proc.stdout
