"""README's examples, the demos, the package's import surface and the
benchmark's own smoke test, mostly run as subprocesses."""

import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kppca
from kppca import save_csv, two_arcs

ROOT = Path(__file__).resolve().parent.parent


def readme_block(section, language):
    # the first fenced block of that language under the README heading
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_readme_examples_run(tmp_path):
    # the library quickstart, then each line of the command-line block on
    # 60 two-arcs points
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    save_csv(tmp_path / "points.csv", two_arcs(60, seed=0), header=["x1", "x2"])
    runs = [[sys.executable, "-c", readme_block("Library quickstart", "python")]]
    for line in readme_block("Command line", "sh").splitlines():
        program, *args = shlex.split(line)
        assert program == "kppca"
        runs.append([sys.executable, "-m", "kppca.cli", *args])
    assert len(runs) == 7
    for cmd in runs:
        proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (cmd[2:], proc.stderr[-2000:])


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


def test_every_module_is_imported():
    # a module that a fresh import of the package and its CLI does not
    # load is a stale file, say one left behind by a rename
    code = "import sys, kppca, kppca.cli; print(*(name for name in sys.modules if name.startswith('kppca.')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = {f"kppca.{path.stem}" for path in (ROOT / "src" / "kppca").glob("*.py")} - {"kppca.__init__"}
    assert modules - set(proc.stdout.split()) == set()


def test_public_names_resolve():
    # a name left in __all__ after its object is deleted breaks star-imports
    assert all(hasattr(kppca, name) for name in kppca.__all__)
    assert len(set(kppca.__all__)) == len(kppca.__all__)
    exec("from kppca import *", {})


def test_version_lives_in_one_place():
    # pyproject.toml reads the version from kppca._version, so a release
    # edits one line
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^version\s*=\s*[\"']", text, re.M) is None
    assert 'dynamic = ["version"]' in text
    assert 'version = {attr = "kppca._version.__version__"}' in text


def test_benchmark_smoke():
    # the benchmark's numpy-only reference checks and its layer-trace name
    # contract, on both workloads at N=50
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])
    assert "smoke: PASS" in proc.stdout
