"""The demos and the benchmark's own smoke test, run as subprocesses."""

import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_mnist_demo_runs_on_synthetic_idx(tmp_path):
    # demo 04 on a synthetic IDX pair: 60 noise images labelled 0, 1, 2 in
    # turn, of which the demo keeps the 40 zeros and ones
    count = 60
    images = np.random.default_rng(7).integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
    labels = (np.arange(count) % 3).astype(np.uint8)
    mnist = tmp_path / "mnist"
    mnist.mkdir()
    images_file = struct.pack(">IIII", 2051, count, 28, 28) + images.tobytes()
    (mnist / "train-images-idx3-ubyte").write_bytes(images_file)
    (mnist / "train-labels-idx1-ubyte").write_bytes(struct.pack(">II", 2049, count) + labels.tobytes())
    shutil.copy(ROOT / "demos" / "04_mnist_digits.py", tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), KPPCA_MNIST_DIR=str(mnist))
    proc = subprocess.run([sys.executable, "04_mnist_digits.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "loaded 40 digits of dimension 784" in proc.stdout
    for name in ("mnist_original.pgm", "mnist_reconstructed.pgm", "mnist_generated.pgm"):
        assert (tmp_path / "output" / name).read_bytes().startswith(b"P5")


def test_package_imports_numpy_alone():
    # numpy is the one dependency: importing the package and its CLI in a
    # fresh interpreter loads no other top-level module outside the
    # standard library (scipy and hypothesis, which the tests use, are
    # installed too; site's .pth hooks load theirs before the import)
    code = ("import sys; before = set(sys.modules); import kppca, kppca.cli; "
            "print(*{name.partition('.')[0] for name in set(sys.modules) - before})")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "numpy" in added and "kppca" in added
    assert added - set(sys.stdlib_module_names) - {"numpy", "kppca"} == set()


def test_benchmark_smoke():
    # the benchmark's numpy-only reference checks and its layer-trace name
    # contract, on both workloads at N=50
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])
    assert "smoke: PASS" in proc.stdout
