"""Smoke test of the benchmark itself, in well under a minute.

    python3 perfbench/smoke.py

1. Runs every workload at --size tiny (N=50) with --trace 0 and 1 and asserts
   that the result line names every metric of BENCHMARK.json with its unit,
   that no operation failed, and that the trace covers each command and
   nests calls across modules.
2. Corrupts each output the checks read and asserts that the matching check
   rejects it, so every check is known to be live.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   perfbench/ and asserts that it exits non-zero without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from checks import (Reference, check_fit_meta, check_generated_box, check_identical,
                    check_kernel_samples, check_latent, check_reconstruction, read_rows)
from inputs import WORKLOADS, make_inputs, sized

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SEED = 3


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result_line(spec, workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"metrics differ: missing {expected.keys() - got.keys()}, " \
                            f"extra {got.keys() - expected.keys()}, units {set(got.items()) ^ set(expected.items())}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    return result["metrics"]


def check_trace(workload, metrics):
    """Self times cover the commands, every span hangs under a command, and
    calls from one library module into another nest under their caller."""
    assert metrics["trace.self_coverage_share"]["value"] >= 0.9, metrics["trace.self_coverage_share"]
    spans = json.loads((WORK / f"{workload}-tiny-trace1" / "spans.json").read_text())
    for span in spans:
        root = span
        while root[4] != -1:
            root = spans[root[4]]
        assert root[0].startswith("command."), (span, root)
    nested = {(spans[s[4]][1], s[1]) for s in spans
              if s[4] != -1 and spans[s[4]][1] not in ("cli", s[1])}
    assert nested, "no call from one library module into another was traced"


def bump(i, j, delta):
    """Corruption that adds delta(rows) to entry (i, j) of a CLI CSV."""

    def corrupt(path):
        header = path.read_text().splitlines()[0]
        rows = read_rows(path)
        rows[i, j] += delta(rows)
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")

    return corrupt


def drop_last_row(path):
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")


def corrupt_meta(path):
    meta = json.loads(path.read_text())
    meta["sigma2"] *= 1.0 + 1e-4
    path.write_text(json.dumps(meta))


def flip_byte(path):
    data = bytearray(path.read_bytes())
    i = data.index(b"\n") + 1
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


def check_corruptions(workload):
    w = sized(WORKLOADS[workload], "tiny")
    train, queries = make_inputs(w, SEED)
    ref = Reference(train, w.gamma, w.q)
    hi = np.maximum(train.max(axis=0), 0.0)
    latent = lambda d: check_latent(ref, queries, d / "project/latent.csv")
    cases = [
        ("fit.meta", "fit/model.meta.json", corrupt_meta,
         lambda d: check_fit_meta(ref, d / "fit/model.meta.json")),
        ("project.latent", "project/latent.csv", bump(0, 0, lambda r: 1e-3 * np.abs(r).max()), latent),
        ("project.latent rows", "project/latent.csv", drop_last_row, latent),
        ("reconstruct.points", "reconstruct/reconstructed.csv", bump(1, 0, lambda r: 1e-3),
         lambda d: check_reconstruction(ref, queries, w.epsilon, d / "reconstruct/reconstructed.csv")),
        ("generate.kernel_sums", "generate/kernel_samples.csv", bump(0, 0, lambda r: 1e-2 * np.abs(r[0]).sum()),
         lambda d: check_kernel_samples(ref, w.count, d / "generate/kernel_samples.csv")),
        ("generate.box", "generate/generated.csv", bump(0, 0, lambda r: hi[0] + 1.0 - r[0, 0]),
         lambda d: check_generated_box(ref, w.count, d / "generate/generated.csv")),
        ("generate.repeat_identical", "generate/generated.csv", flip_byte,
         lambda d: check_identical("generate", d.parent / "clean" / "generate", d / "generate")),
    ]
    source = WORK / f"{workload}-tiny-trace0" / "out"
    scratch = WORK / "smoke-corrupt"
    clean = scratch / "clean"
    for label, target, corrupt, check in cases:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(source, clean)
        bad = shutil.copytree(source, scratch / "bad")
        assert check(bad).ok, f"{workload} {label}: check fails on clean output: {check(bad)}"
        corrupt(bad / target)
        verdict = check(bad)
        assert not verdict.ok, f"{workload} {label}: corrupted output accepted ({verdict.detail})"
        print(f"  {label}: rejects corrupted output ({verdict.detail})")
    shutil.rmtree(scratch)


def check_bare_directory():
    """Without the program's sources the benchmark must fail, not report."""
    bare = WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(next(iter(WORKLOADS)), 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout[-500:])
    print(f"  bare directory: exit {proc.returncode}, no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        check_result_line(spec, workload, 0)
        check_trace(workload, check_result_line(spec, workload, 1))
        print(f"{workload}: every metric present with its unit, error_rate 0, trace nests")
        check_corruptions(workload)
    check_bare_directory()
    print("smoke: PASS")


if __name__ == "__main__":
    main()
