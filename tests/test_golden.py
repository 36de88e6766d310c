"""Golden outputs: four fixed, seeded runs through the CLI (fit, project,
reconstruct, generate --count 9, report --out) against the files stored
under tests/golden/<run>/, so that a change to any number shows up here.

The inputs come from seeded generators at test time; the outputs are
compared byte for byte first, and a file whose bytes differ (another BLAS
build, say) must still agree within its tolerance below. The test prints
which files matched by bytes and which only within tolerance.

A change that moves the numbers on purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and lists the regenerated files, and the size of each change, in
CHANGES.md.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from kppca import load_model, two_arcs

from conftest import bump_images

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _linear_5d(n, seed):
    # the 5-D data of ROADMAP item 6, at offset 0
    return np.random.default_rng(seed).standard_normal((n, 5)) * (3.0, 2.0, 1.0, 0.5, 0.2)


# each run: its training points and queries (one per row), its fit flags,
# and the tolerance of its kernel samples and generated points relative to
# their largest entry; the arcs Gram matrices are rank deficient, so their
# sampler takes the pivoted factor, whose pivot order follows the rounding.
# arcs240-rbf is the one RBF fit narrow enough ((q + 1) + 5 <= N / 8) for
# top_eig's block Lanczos iteration, the path both benchmark workloads
# take; linear-5d's fit takes it too
RUNS = {
    "arcs-rbf": (lambda: two_arcs(50, seed=0).T, lambda: two_arcs(20, seed=2).T,
                 ["--kernel", "rbf", "--gamma", "2", "--q", "3"], 1e-6),
    "arcs240-rbf": (lambda: two_arcs(240, seed=0).T, lambda: two_arcs(20, seed=2).T,
                    ["--kernel", "rbf", "--gamma", "0.5", "--q", "3"], 1e-6),
    "bumps-rbf": (lambda: bump_images(60, seed=0), lambda: bump_images(10, seed=1),
                  ["--kernel", "rbf", "--gamma", "1.5", "--q", "3"], 1e-10),
    "linear-5d": (lambda: _linear_5d(200, 0), lambda: _linear_5d(20, 1),
                  ["--kernel", "linear", "--q", "2"], 1e-10),
}

# the CLI's commands, one after the other in one child process
CHILD = """
import json, sys
from kppca.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit("kppca " + " ".join(argv) + " failed")
"""


def _write_rows(path, rows):
    # plain repr cells under a header, written without kppca
    lines = [",".join(f"x{j + 1}" for j in range(rows.shape[1]))]
    lines += [",".join(map(repr, row)) for row in rows.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def replay(name, work):
    """Run `name` in a child at one BLAS thread; returns its output
    directory. Sidecars carry a timestamp and are not outputs."""
    train, queries, fit_flags, _ = RUNS[name]
    _write_rows(work / "train.csv", train())
    _write_rows(work / "queries.csv", queries())
    out, model = str(work / "out"), str(work / "out" / "model.kppca")
    commands = [["fit", "--data", str(work / "train.csv"), *fit_flags, "--out", out],
                ["project", "--model", model, "--data", str(work / "queries.csv"), "--out", out],
                ["reconstruct", "--model", model, "--data", str(work / "queries.csv"), "--out", out],
                ["generate", "--model", model, "--count", "9", "--seed", "7", "--out", out],
                ["report", "--model", model, "--out", out]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return work / "out"


def outputs(directory):
    return sorted(p.name for p in directory.iterdir() if not p.name.endswith(".meta.json"))


# --- tolerances ----------------------------------------------------------


def _close(expected, got, tol, signs=False):
    # every entry within tol of expected's largest entry; with signs, each
    # column may flip as a whole
    expected, got = np.asarray(expected, dtype=float), np.asarray(got, dtype=float)
    if expected.shape != got.shape:
        return False
    if signs and expected.size:
        got = got * np.where(np.sum(expected * got, axis=0) < 0.0, -1.0, 1.0)
    return bool(np.all(np.abs(expected - got) <= tol * np.abs(expected).max(initial=0.0)))


def _table(data):
    header, *rows = data.decode("utf-8").splitlines()
    return header, np.array([[float(c) for c in row.split(",")] for row in rows])


def _models_agree(expected, got, work):
    paths = work / "expected.kppca", work / "got.kppca"
    for path, data in zip(paths, (expected, got)):
        path.write_bytes(data)
    a, b = map(load_model, paths)
    return (a.q == b.q and a.spec == b.spec and np.array_equal(a.ts.points, b.ts.points)
            and abs(a.sigma2 - b.sigma2) <= 1e-12 * a.sigma2 and abs(a.tail - b.tail) <= 1e-12 * a.tail
            and _close(a.eigenvalues, b.eigenvalues, 1e-12) and _close(a.means, b.means, 1e-12)
            and _close(a.e, b.e, 1e-10, signs=True))


def _svgs_agree(expected, got):
    # the same drawing, every coordinate (printed to 3 decimals) within
    # one printed unit
    number = rb"-?\d+(?:\.\d+)?"
    if re.sub(number, b"#", expected) != re.sub(number, b"#", got):
        return False
    a, b = (np.array(re.findall(number, data), dtype=float) for data in (expected, got))
    return bool(np.all(np.abs(a - b) <= 1.5e-3))


def agree(name, file, expected, got, work):
    """Whether `got` is within the stated tolerance of `expected`."""
    sample_tol = RUNS[name][3]
    if file == "model.kppca":
        return _models_agree(expected, got, work)
    if file == "scatter.svg":
        return _svgs_agree(expected, got)
    (head_a, a), (head_b, b) = _table(expected), _table(got)
    tol = {"latent.csv": 1e-10, "reconstructed.csv": 1e-10, "spectrum.csv": 1e-12,
           "kernel_samples.csv": sample_tol, "generated.csv": sample_tol}[file]
    return head_a == head_b and _close(a, b, tol, signs=file == "latent.csv")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_outputs(tmp_path, name):
    out = replay(name, tmp_path)
    expected_dir = GOLDEN / name
    assert outputs(out) == outputs(expected_dir)
    by_bytes, within = [], []
    for file in outputs(out):
        expected, got = (expected_dir / file).read_bytes(), (out / file).read_bytes()
        if got == expected:
            by_bytes.append(file)
        else:
            assert agree(name, file, expected, got, tmp_path), f"{name}/{file} is outside its tolerance"
            within.append(file)
    print(f"{name}: matched by bytes: {', '.join(by_bytes) or '-'}; "
          f"only within tolerance: {', '.join(within) or '-'}")


def regenerate():
    """Rewrite tests/golden/ from the current code."""
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as work:
            out = replay(name, Path(work))
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for file in outputs(out):
                shutil.copyfile(out / file, target / file)
                print(f"wrote {target / file}")


if __name__ == "__main__":
    regenerate()
