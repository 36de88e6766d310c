"""README's examples, the demos, the package's import surface and the
benchmark's own smoke test, mostly run as subprocesses."""

import importlib
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


# In a fresh interpreter: import the package and its CLI, resolve every
# public name, run fit and generate (which reaches plots) on 12 two-arcs
# points, then print, on the last line, every module loaded since the
# interpreter started (less site's .pth hooks, which load theirs first).
EXERCISE_ALL = """
import sys
before = set(sys.modules)
import kppca, kppca.cli
for name in kppca.__all__:
    getattr(kppca, name)
kppca.save_csv("data.csv", kppca.two_arcs(12, seed=1), header=["x1", "x2"])
fit = ["fit", "--data", "data.csv", "--kernel", "rbf", "--gamma", "2", "--q", "2", "--out", "m"]
assert kppca.cli.main(fit) == 0
assert kppca.cli.main(["generate", "--model", "m/model.kppca", "--count", "3", "--out", "g"]) == 0
print(*(set(sys.modules) - before))
"""


def modules_loaded_by_every_path(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", EXERCISE_ALL], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "g" / "scatter.svg").exists()
    return set(proc.stdout.splitlines()[-1].split())


def test_package_imports_numpy_alone(tmp_path):
    # numpy is the one dependency: the package, its CLI and every path
    # through them load no other top-level module outside the standard
    # library (scipy and hypothesis, which the tests use, are installed too).
    # numpy.random's Cython extensions register two file-less modules,
    # cython_runtime and _cython_<version>, which are numpy's own.
    added = {name.partition(".")[0] for name in modules_loaded_by_every_path(tmp_path)}
    assert "numpy" in added and "kppca" in added
    cython = {name for name in added if re.fullmatch(r"cython_runtime|_cython_[0-9_]+", name)}
    assert added - set(sys.stdlib_module_names) - {"numpy", "kppca"} - cython == set()


def test_every_module_is_imported(tmp_path):
    # a module that no public name and no command loads is a stale file,
    # say one left behind by a rename
    modules = {f"kppca.{path.stem}" for path in (ROOT / "src" / "kppca").glob("*.py")} - {"kppca.__init__"}
    assert modules - modules_loaded_by_every_path(tmp_path) == set()


def test_parsing_the_command_line_loads_no_numpy():
    # --version, --help, a command's --help and an argparse error answer
    # before numpy or any numerical kppca module is imported
    code = """
import contextlib, io, sys
from kppca.cli import main
for argv, code in ((["--version"], 0), (["--help"], 0), (["fit", "--help"], 0), (["fit"], 2)):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit as exc:
            assert exc.code == code, (argv, exc.code)
        else:
            raise AssertionError(argv)
print(*(name for name in sys.modules if name == "numpy" or name.startswith(("numpy.", "kppca."))))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(proc.stdout.split()) == {"kppca._version", "kppca.cli", "kppca.errors"}


def test_public_names_resolve():
    # a name left in __all__ after its object is deleted breaks star-imports;
    # each name is its home module's object, and dir() lists them all
    assert all(hasattr(kppca, name) for name in kppca.__all__)
    assert len(set(kppca.__all__)) == len(kppca.__all__)
    exec("from kppca import *", {})
    # dir() lists every name, in a fresh interpreter before any is resolved
    code = "import kppca; print(*set(kppca.__all__) - set(dir(kppca)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout.strip()) == (0, ""), proc.stderr[-2000:]
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(kppca, "no_such_name")
    for module, names in kppca._HOMES.items():
        home = importlib.import_module(f"kppca.{module}")
        for name in names:
            assert getattr(kppca, name) is getattr(home, name), name


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
