"""Command-line harness for the kernel-space (dual) model: fit writes it;
project, reconstruct, generate and report read it.

Exit codes: 0 success, 2 usage error, 3 data/IO error (an allocation that
fails included), 4 numeric error.
Numeric output files are byte-identical across re-runs with the same flags
and seed at a fixed BLAS build and thread count; across thread counts they
agree to rounding level, except the kernel samples and generated points of
a rank-deficient model, whose pivot order follows the rounding. Run
metadata (which carries a timestamp) lives in a .meta.json sidecar next to
each output set.

Arguments are parsed before numpy loads: each command imports the modules
it uses when it runs, and reads their functions at call time, so
`--version`, `--help` and an argparse error cost an interpreter and argparse.
"""

import argparse
import math
import os
import re
import sys
from contextlib import contextmanager

from ._version import __version__
from .errors import DataError, NonFinite, NumericError


class _UsageError(Exception):
    pass


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kppca",
        description="Probabilistic PCA in kernel space: train, project, reconstruct, generate.",
    )
    parser.add_argument("--version", action="version", version=f"kppca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train a kernel-space model from a CSV dataset")
    p_fit.add_argument("--data", required=True, help="CSV file, one sample per row")
    p_fit.add_argument("--kernel", required=True, choices=["linear", "rbf"])
    p_fit.add_argument("--gamma", type=float, help="RBF bandwidth")
    p_fit.add_argument("--q", type=int, help="latent dimension (noise variance deduced)")
    p_fit.add_argument("--sigma2", type=float, help="noise variance (latent dimension deduced)")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_proj = sub.add_parser("project", help="latent codes for a dataset")
    p_proj.add_argument("--model", required=True)
    p_proj.add_argument("--data", required=True)
    p_proj.add_argument("--out", required=True)
    p_proj.set_defaults(func=cmd_project)

    p_rec = sub.add_parser("reconstruct", help="project, reconstruct, and preimage a dataset")
    p_rec.add_argument("--model", required=True)
    p_rec.add_argument("--data", required=True)
    _add_preimage_flags(p_rec)
    p_rec.add_argument("--out", required=True)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_gen = sub.add_parser("generate", help="sample kernel representations and preimage them")
    p_gen.add_argument("--model", required=True)
    p_gen.add_argument("--count", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0)
    _add_preimage_flags(p_gen)
    p_gen.add_argument("--grid", help="AxB sweep of the two leading latent codes instead of random draws")
    p_gen.add_argument("--latent-range", default="-1:1", help="LO:HI range for --grid (default -1:1)")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_rep = sub.add_parser("report", help="print hyperparameters and spectrum of a model")
    p_rep.add_argument("--model", required=True)
    p_rep.add_argument("--out", help="directory for spectrum.csv (default: print only, write nothing)")
    p_rep.set_defaults(func=cmd_report)

    return parser


def _add_preimage_flags(p):
    p.add_argument("--epsilon", type=float, help="preimage normalizer stabilizer (default 1e-3 * N)")
    # centered kernel columns sum to about 0, so the smoother always clips
    # their negative weights; the flag is kept for scripts that pass it
    p.add_argument("--clip-negative", action="store_true",
                   help="no effect: negative smoother weights are always clipped to zero")


# --- shared helpers -----------------------------------------------------


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_sidecar(path, model, extra, seed=None):
    # the run's provenance, next to its outputs: the only file that carries
    # a timestamp
    import json
    from datetime import datetime, timezone

    from .primal import explained_variance

    payload = {"seed": seed, "kernel": {"family": model.spec.family, "gamma": model.spec.gamma},
               "q": model.q, "sigma2": model.sigma2, "explained_variance": explained_variance(model),
               "timestamp": datetime.now(timezone.utc).isoformat(), "tool_version": __version__,
               **extra}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _flag_values():
    # the value types own the rules of their flags; a value they refuse is
    # a usage error
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


# --- commands -----------------------------------------------------------


def cmd_fit(args):
    from .dual import fit_dual
    from .io_datasets import load_csv, save_model
    from .kernels import KernelSpec, TrainingSet
    from .primal import _check_choice, explained_variance

    with _flag_values():
        _check_choice(args.q, args.sigma2)
        spec = KernelSpec(args.kernel, args.gamma)
    x = load_csv(args.data)
    ts = TrainingSet.from_columns(x)
    model = fit_dual(spec, ts, q=args.q, sigma2=args.sigma2)
    out = _ensure_out(args.out)
    model_path = os.path.join(out, "model.kppca")
    save_model(model_path, model)
    _write_sidecar(os.path.join(out, "model.meta.json"), model, {"command": "fit", "data": args.data})
    ev = explained_variance(model)
    print(f"fit: N={model.n} d_in={ts.d_in} kernel={spec.family} q={model.q} "
          f"sigma2={model.sigma2:.6g} explained_variance={ev:.6g}")
    print(f"wrote {model_path}")
    return 0


def cmd_project(args):
    from .dual import project_inputs
    from .io_datasets import load_csv, load_model, save_csv

    model = load_model(args.model)
    h = project_inputs(model, load_csv(args.data))
    out = _ensure_out(args.out)
    latent_path = os.path.join(out, "latent.csv")
    save_csv(latent_path, h, header=[f"h{p + 1}" for p in range(h.shape[0])])
    _write_sidecar(os.path.join(out, "latent.meta.json"), model, {"command": "project", "data": args.data})
    print(f"wrote {latent_path} ({h.shape[1]} rows x {h.shape[0]} cols)")
    return 0


def cmd_reconstruct(args):
    from .dual import preimage_codes, project_inputs
    from .io_datasets import load_csv, load_model, save_csv
    from .preimage import _resolve_epsilon

    with _flag_values():
        _resolve_epsilon(args.epsilon, 0)  # checked before the model file is read
    model = load_model(args.model)
    epsilon = _resolve_epsilon(args.epsilon, model.n)
    points = preimage_codes(model, project_inputs(model, load_csv(args.data)), epsilon)
    extra = {"command": "reconstruct", "data": args.data, "preimage": {"epsilon": epsilon}}
    out = _ensure_out(args.out)
    rec_path = os.path.join(out, "reconstructed.csv")
    save_csv(rec_path, points, header=[f"x{j + 1}" for j in range(points.shape[0])])
    _write_sidecar(os.path.join(out, "reconstructed.meta.json"), model, extra)
    print(f"wrote {rec_path} ({points.shape[1]} rows x {points.shape[0]} cols)")
    return 0


def _parse_grid(args):
    m = re.fullmatch(r"(\d+)x(\d+)", args.grid)
    if not m:
        raise _UsageError(f"--grid expects AxB, got {args.grid!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if a < 1 or b < 1:
        raise _UsageError("--grid dimensions must be at least 1")
    r = re.fullmatch(r"([^:]+):([^:]+)", args.latent_range)
    try:
        lo, hi = (float(r.group(1)), float(r.group(2))) if r else (None, None)
    except ValueError:
        r = None
    if r is None:
        raise _UsageError(f"--latent-range expects LO:HI, got {args.latent_range!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _UsageError(f"--latent-range bounds must be finite, got {args.latent_range!r}")
    return a, b, lo, hi


def _grid_codes(model, a, b, lo, hi):
    # Sweep the two leading latent codes, so the grid walks the dominant
    # latent directions over the coordinates that project writes; the
    # remaining codes stay zero. Column r * a + c holds (first[c],
    # second[r]). A q = 1 model has no second direction: every row of the
    # grid repeats the first.
    import numpy as np

    sweep = np.stack([np.tile(np.linspace(lo, hi, a), b), np.repeat(np.linspace(lo, hi, b), a)])
    codes = np.zeros((model.q, a * b))
    lead = min(model.q, 2)
    codes[:lead] = sweep[:lead]
    return codes


def cmd_generate(args):
    import numpy as np

    from .dual import dual_reconstruct, dual_sample, dual_training_codes, kpca_limit, preimage_codes
    from .io_datasets import load_model, save_csv
    from .plots import pgm_grid, scatter_svg
    from .preimage import _resolve_epsilon, kernel_smoother

    if args.seed < 0:
        raise _UsageError("--seed must be nonnegative")
    if args.count < 0:
        raise _UsageError("--count must be nonnegative")
    grid = _parse_grid(args) if args.grid is not None else None
    with _flag_values():
        _resolve_epsilon(args.epsilon, 0)  # checked before the model file is read
    model = load_model(args.model)
    epsilon = _resolve_epsilon(args.epsilon, model.n)
    columns = args.count if grid is None else grid[0] * grid[1]
    if (model.q + model.n) * columns * 8 > sys.maxsize:
        # numpy refuses with a ValueError an array whose bytes overflow the
        # address space; the largest here is the (q + r) x M noise, r <= N
        raise MemoryError(f"{columns} samples of {model.n} kernel values exceed the address space")
    # a latent range near float64's limits overflows; the checks report it
    # before any file is written
    with np.errstate(over="ignore", invalid="ignore"):
        if grid is not None:
            kc_cols = dual_reconstruct(model, _grid_codes(model, *grid))
        else:
            kc_cols = dual_sample(model, args.seed, args.count)
        if not np.isfinite(kc_cols).all():
            raise NonFinite("kernel samples are not finite: the latent codes overflow float64")
        points = kernel_smoother(model.ts, kc_cols, epsilon)
        if not np.isfinite(points).all():
            raise NonFinite("generated points are not finite: their preimage overflows float64")

    out = _ensure_out(args.out)
    ks_path = os.path.join(out, "kernel_samples.csv")
    save_csv(ks_path, kc_cols, header=[f"k{i + 1}" for i in range(model.n)])
    gen_path = os.path.join(out, "generated.csv")
    save_csv(gen_path, points, header=[f"x{j + 1}" for j in range(points.shape[0])])

    written = [ks_path, gen_path]
    d_in = model.ts.d_in
    side = math.isqrt(d_in)
    image_like = side * side == d_in and side >= 8
    if image_like:
        # image data gets tile grids instead of scatter plots
        if points.shape[1] > 0:
            images = points.T.reshape(-1, side, side)
            grid_cols = grid[0] if grid is not None else max(1, math.isqrt(points.shape[1]))
            pgm_path = os.path.join(out, "generated.pgm")
            pgm_grid(pgm_path, images, grid_cols)
            written.append(pgm_path)
    elif d_in >= 2:
        # higher-dimensional points are plotted on their first two coordinates
        rec_pts = preimage_codes(model, dual_training_codes(model), epsilon)
        limit = kpca_limit(model)
        kpca_pts = preimage_codes(limit, dual_training_codes(limit), epsilon)
        svg_path = os.path.join(out, "scatter.svg")
        scatter_svg(svg_path, [
            ("original", "black", model.ts.points.T[:2]),
            ("reconstruction", "blue", rec_pts[:2]),
            ("kpca limit", "red", kpca_pts[:2]),
            ("generated", "grey", points[:2]),
        ])
        written.append(svg_path)

    extra = {"command": "generate", "preimage": {"epsilon": epsilon},
             "files": [os.path.basename(p) for p in written]}
    if grid is not None:
        extra["grid"] = {"cols": grid[0], "rows": grid[1], "range": [grid[2], grid[3]]}
    _write_sidecar(os.path.join(out, "generate.meta.json"), model, extra, seed=args.seed)
    for p in written:
        print(f"wrote {p}")
    return 0


def cmd_report(args):
    import numpy as np

    from .io_datasets import load_model, save_csv
    from .primal import explained_variance

    model = load_model(args.model)
    lam = model.eigenvalues
    ev = explained_variance(model)
    print("kind: dual")
    print(f"N: {model.n}")
    print(f"d_in: {model.ts.d_in}")
    gamma = "" if model.spec.gamma is None else f" gamma={model.spec.gamma!r}"
    print(f"kernel: {model.spec.family}{gamma}")
    print(f"discarded_spectrum: {model.tail!r}")
    print(f"q: {model.q}")
    print(f"sigma2: {model.sigma2!r}")
    print(f"explained_variance: {ev!r}")
    shown = lam[: min(10, lam.size)]
    print("leading eigenvalues: " + ", ".join(f"{v:.6g}" for v in shown))
    if args.out is None:
        return 0
    out = _ensure_out(args.out)
    spec_path = os.path.join(out, "spectrum.csv")
    table = np.stack([np.arange(1, lam.size + 1, dtype=float), lam])
    save_csv(spec_path, table, header=["index", "eigenvalue"])
    _write_sidecar(os.path.join(out, "spectrum.meta.json"), model, {"command": "report"})
    print(f"wrote {spec_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # an input, a flag or a file asked for more memory than there is
        print(f"data error: out of memory: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
