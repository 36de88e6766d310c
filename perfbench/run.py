"""End-to-end benchmark of the kppca CLI, with an in-process layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload arcs2d-n500-m5k --seed 1 --seconds 60 --trace 0

--trace 0 runs the CLI as child processes, one at a time: first
fit -> project -> reconstruct -> generate, whose outputs are checked, then,
while the next sample still fits in --seconds, whichever of the cold start
(`kppca --version`) and the four commands has so far had the least of its
share of the measuring time. Every job gets its share and at least two
samples, and the samples of all jobs interleave over the whole run. Each
metric is the median of its samples, and every repeat must write
byte-identical files.

--trace 1 runs the same commands in-process through the CLI entry point,
after one untimed warm-up fit: each command once plain and once with every
public kppca function wrapped (layertrace.py), which of the two goes first
alternating between commands, and reports the per-layer metrics.

Both modes check the outputs against an independent numpy reference
(checks.py). The last line of stdout is the result; the line before it is
the run record (environment, inputs, samples, checks), which is also kept
with the run's files in perfbench/.work/. --size tiny shrinks every
workload to N=50 for the smoke test (smoke.py).
"""

import argparse
import contextlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tomllib
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

# One BLAS thread, here and in every child. Threads for two BLAS calls run
# in step: on a shared host with few cores a run that needs every core at
# once mostly measures how the host schedules them.
BLAS_THREADS = "1"
os.environ.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread limit, which numpy reads on import)

from checks import (Check, Reference, check_fit_meta, check_generated_box, check_identical,
                    check_kernel_samples, check_latent, check_reconstruction, recon_mse)
from inputs import WORKLOADS, Workload, make_inputs, sized, write_csv
from layertrace import LayerTracer

ROOT = Path(__file__).resolve().parent.parent
CLI_NAME = "kppca"
COMMANDS = ("fit", "project", "reconstruct", "generate")
MIN_SAMPLES = 2  # the repeat is the same-flags determinism check
# Shares of the measuring time: the commands equal, the cold start (about
# 0.2 s a sample) enough for a steady median.
SHARE = {"setup": 0.25, "fit": 1.0, "project": 1.0, "reconstruct": 1.0, "generate": 1.0}
CHILD_TIMEOUT_S = 150.0
LAYERS = ("kernels", "spectral", "dual", "preimage", "io_datasets", "plots", "cli")
HOT_FUNCTIONS = (
    "spectral.sym_eig", "spectral.center_gram", "kernels.gram",
    "kernels.centered_kernel_vectors", "dual.fit_dual", "dual.dual_latent_map",
    "dual.dual_reconstruct", "dual.samples_from_noise", "preimage.kernel_smoother",
    "io_datasets.load_csv", "io_datasets.save_csv", "io_datasets.save_model",
    "io_datasets.load_model", "plots.scatter_svg", "plots.pgm_grid",
)


class ProgramMissing(Exception):
    pass


@dataclass(frozen=True)
class Program:
    """The CLI as built from this checkout's source tree."""

    entry_module: str
    entry_func: str
    env: dict

    @classmethod
    def locate(cls) -> "Program":
        try:
            with open(ROOT / "pyproject.toml", "rb") as fh:
                target = tomllib.load(fh)["project"]["scripts"][CLI_NAME]
        except (OSError, KeyError, tomllib.TOMLDecodeError) as exc:
            raise ProgramMissing(f"no {CLI_NAME!r} entry point in pyproject.toml ({exc!r})") from None
        module, _, func = target.partition(":")
        src = ROOT / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = subprocess.run([sys.executable, "-c", f"import {module}; print({module}.__file__)"],
                               env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        found = probe.stdout.strip()
        if probe.returncode or not Path(found).resolve().is_relative_to(src.resolve()):
            raise ProgramMissing(f"{module} does not import from {src}: {probe.stderr.strip()[-300:]}")
        return cls(module, func, env)

    def child_argv(self, args):
        code = f"import sys; from {self.entry_module} import {self.entry_func} as main; sys.exit(main())"
        return [sys.executable, "-c", code, *args]

    def call(self, args, log) -> int:
        """Run the entry point in this process; returns its exit code."""
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                code = getattr(importlib.import_module(self.entry_module), self.entry_func)(args)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed operation, not a benchmark crash
                traceback.print_exc(file=log)
                code = 1
        return code if isinstance(code, int) else (0 if code is None else 1)


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    code: int
    maxrss_mb: float


def run_child(argv, env, log_path) -> ChildRun:
    """Spawn one child and wait for it; wall time is spawn to exit, peak RSS
    comes from the child's own rusage."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, proc.returncode, usage.ru_maxrss / 1024.0)


class Tally:
    """Operations attempted and failed: one per CLI command, one per check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.failures = []

    def command(self, label: str, code: int):
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.failures.append(f"{label} exited {code}")

    def check(self, c: Check):
        self.attempted += 1
        self.checks.append(asdict(c))
        if not c.ok:
            self.failed += 1
            self.failures.append(f"{c.name}: {c.detail}")


def guarded(name, fn) -> Check:
    """A check whose output file is missing or unreadable fails."""
    try:
        return fn()
    except (OSError, ValueError, KeyError) as exc:
        return Check(name, False, f"{type(exc).__name__}: {exc}")


def command_args(cmd, w: Workload, seed: int, work: Path, chain: Path, out: Path):
    """CLI flags for one command; chain is the directory whose fit/ holds the model."""
    model = str(chain / "fit" / "model.kppca")
    preimage = ["--epsilon", repr(w.epsilon), "--clip-negative"]
    if cmd == "fit":
        return ["fit", "--data", str(work / "train.csv"), "--kernel", "rbf",
                "--gamma", repr(w.gamma), "--q", str(w.q), "--out", str(out)]
    if cmd == "project":
        return ["project", "--model", model, "--data", str(work / "queries.csv"), "--out", str(out)]
    if cmd == "reconstruct":
        return ["reconstruct", "--model", model, "--data", str(work / "queries.csv"),
                *preimage, "--out", str(out)]
    return ["generate", "--model", model, "--count", str(w.count), "--seed", str(seed),
            *preimage, "--out", str(out)]


def check_outputs(w: Workload, train, queries, chain: Path, tally: Tally):
    ref = Reference(train, w.gamma, w.q)
    gen = chain / "generate"
    for name, fn in (
        ("fit.meta", lambda: check_fit_meta(ref, chain / "fit" / "model.meta.json")),
        ("project.latent", lambda: check_latent(ref, queries, chain / "project" / "latent.csv")),
        ("reconstruct.points", lambda: check_reconstruction(
            ref, queries, w.epsilon, chain / "reconstruct" / "reconstructed.csv")),
        ("generate.kernel_sums", lambda: check_kernel_samples(ref, w.count, gen / "kernel_samples.csv")),
        ("generate.box", lambda: check_generated_box(ref, w.count, gen / "generated.csv")),
    ):
        tally.check(guarded(name, fn))


def child_pass(program: Program, w, seed, seconds, work: Path, tally: Tally, record: dict):
    """Untraced pass: every command as a child process; returns end-to-end metrics."""
    log = work / "cli.log"
    chain = work / "out"
    jobs = ("setup", *COMMANDS)
    samples = {f"{job}_s": [] for job in jobs}
    failed = set()
    rss = []

    def run(args, label):
        r = run_child(program.child_argv(args), program.env, log)
        tally.command(label, r.code)
        if r.code:
            failed.add(label)
        return r

    def sample(job):
        # the first run writes the outputs that are checked; every repeat
        # must reproduce them byte for byte
        repeat = bool(samples[f"{job}_s"])
        out = work / "repeat" / job if repeat else chain / job
        r = run(command_args(job, w, seed, work, chain, out), job)
        samples[f"{job}_s"].append(r.wall_s)
        rss.append(r.maxrss_mb)
        if repeat and not r.code:
            tally.check(guarded(f"{job}.repeat_identical", lambda: check_identical(job, chain / job, out)))
            shutil.rmtree(out, ignore_errors=True)

    run(["--version"], "setup")  # the first start writes bytecode; not timed
    # The chain first: fit writes the model that the other commands read.
    start = time.perf_counter()
    for job in COMMANDS:
        if not failed:
            sample(job)
    # Then, while the next sample still fits in --seconds, the job with the
    # least measured time per unit of its share: every job gets its share of
    # the run, short jobs many samples, and the samples of all jobs interleave
    # so that each sees every stretch of the host's drifting speed.
    while not failed:
        job = min(jobs, key=lambda j: (len(samples[f"{j}_s"]) >= MIN_SAMPLES,
                                       sum(samples[f"{j}_s"]) / SHARE[j]))
        times = samples[f"{job}_s"]
        enough = all(len(samples[f"{j}_s"]) >= MIN_SAMPLES for j in jobs)
        if enough and time.perf_counter() - start + statistics.median(times) > seconds:
            break
        if job == "setup":
            times.append(run(["--version"], job).wall_s)
        else:
            sample(job)
    record["samples"] = samples
    record["peak_rss_mb_per_command"] = rss

    metrics = {name: (statistics.median(v), "s") for name, v in samples.items() if v}
    if rss:
        metrics["peak_rss_mb"] = (max(rss), "MiB")
    with contextlib.suppress(OSError):
        metrics["model_bytes"] = (os.path.getsize(chain / "fit" / "model.kppca"), "bytes")
    return metrics, chain


def traced_pass(program: Program, w, seed, work: Path, tally: Tally, record: dict):
    """In-process pass: each command plain and traced, the order alternating
    between commands; returns per-layer metrics."""
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LayerTracer(program.entry_module.split(".")[0])
    wall = {"plain": {}, "traced": {}}
    with open(work / "cli.log", "w", encoding="utf-8") as log:
        # the first command in a process pays one-time costs (BLAS set-up,
        # allocator growth) that neither timed side should carry
        warm = work / "warmup"
        tally.command("warmup fit", program.call(command_args("fit", w, seed, work, warm, warm / "fit"), log))
        for i, cmd in enumerate(COMMANDS):
            for mode in ("plain", "traced")[:: 1 if i % 2 == 0 else -1]:
                chain = work / mode
                args = command_args(cmd, w, seed, work, chain, chain / cmd)
                scope = tracer.command(cmd) if mode == "traced" else contextlib.nullcontext()
                start = time.perf_counter()
                with scope:
                    code = program.call(args, log)
                wall[mode][cmd] = time.perf_counter() - start
                tally.command(f"{mode} {cmd}", code)
            tally.check(guarded(f"{cmd}.repeat_identical",
                                lambda: check_identical(cmd, work / "plain" / cmd, work / "traced" / cmd)))
    tracer.write_spans(work / "spans.json")
    record["samples"] = wall
    record["spans"] = len(tracer.spans)
    record["calls_per_command"] = dict(tracer.command_calls)

    layers = {f.split(".")[0] for f in tracer.functions} | {"cli"}
    metrics = {f"{cmd}.{layer}.self_s": (tracer.layer_self.get((cmd, layer), 0.0), "s")
               for cmd in COMMANDS for layer in LAYERS if layer in layers}
    for fn in HOT_FUNCTIONS:
        if fn in tracer.functions:
            metrics[f"{fn}.self_s"] = (tracer.func_self.get(fn, 0.0), "s")
            metrics[f"{fn}.calls"] = (tracer.func_calls.get(fn, 0), "count")
    plain, traced = sum(wall["plain"].values()), sum(wall["traced"].values())
    metrics["trace.overhead_share"] = ((traced - plain) / plain, "ratio")
    covered = sum(v for (_, layer), v in tracer.layer_self.items() if layer in LAYERS)
    metrics["trace.self_coverage_share"] = (covered / traced, "ratio")
    return metrics, work / "traced"


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(program: Program) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = None
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas, "python": platform.python_version(),
            "numpy": np.__version__, "commit": git_commit(), "loadavg_start": os.getloadavg(),
            "child_env": {k: program.env[k] for k in ("PYTHONPATH", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring budget of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = Program.locate()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    w = sized(WORKLOADS[args.workload], args.size)
    work = ROOT / "perfbench" / ".work" / f"{w.name}-{args.size}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    record = {"workload": asdict(w), "seed": args.seed, "size": args.size, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(program),
              "entry_point": f"{program.entry_module}:{program.entry_func}"}
    train, queries = make_inputs(w, args.seed)
    record["inputs"] = {
        name: {"sha256": write_csv(work / f"{name}.csv", rows), "rows": rows.shape[0],
               "d_in": rows.shape[1]}
        for name, rows in (("train", train), ("queries", queries))
    }

    tally = Tally()
    if args.trace:
        metrics, checked = traced_pass(program, w, args.seed, work, tally, record)
    else:
        metrics, checked = child_pass(program, w, args.seed, args.seconds, work, tally, record)
    check_outputs(w, train, queries, checked, tally)
    if args.trace:
        metrics["error_rate"] = (tally.failed / tally.attempted, "ratio")
    else:
        with contextlib.suppress(OSError, ValueError):
            metrics["recon_mse"] = (recon_mse(queries, checked / "reconstruct" / "reconstructed.csv"),
                                    "input_units2")

    record["environment"]["loadavg_end"] = os.getloadavg()
    record["checks"] = tally.checks
    record["failures"] = tally.failures
    with open(work / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
