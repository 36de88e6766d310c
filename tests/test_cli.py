import os
import struct
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from kppca import (
    center_gram,
    centered_kernel_vectors,
    dual_latent_map,
    dual_reconstruct,
    explained_variance,
    gram,
    kernel_smoother,
    load_csv,
    load_model,
    save_csv,
    save_model,
    two_arcs,
)
from kppca import dual, io_datasets, kernels, plots
from kppca.cli import main
from kppca.plots import scatter_svg

from conftest import (
    arcs_model,
    bump_images,
    bumps_model,
    framed,
    model_sections,
    pack_vector,
    rewrite_section,
)


@pytest.fixture
def toy_csv(tmp_path):
    x = two_arcs(20, seed=0)
    p = tmp_path / "data.csv"
    save_csv(p, x, header=["x1", "x2"])
    return p


def run_fit(tmp_path, toy_csv, *extra):
    out = tmp_path / "model"
    args = ["fit", "--data", str(toy_csv), "--kernel", "rbf", "--gamma", "2",
            "--out", str(out), *extra]
    assert main(args) == 0
    return out / "model.kppca"


def test_fit_writes_model_and_metadata(tmp_path, toy_csv):
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")
    assert model_path.exists()
    assert (model_path.parent / "model.meta.json").exists()
    model = load_model(model_path)
    assert model.q == 3


@pytest.mark.parametrize("args", [
    ["fit", "--kernel", "rbf", "--gamma", "2", "--sigma2", "-1"],
    ["fit", "--kernel", "rbf", "--gamma", "2", "--sigma2", "nan"],
    ["fit", "--kernel", "rbf", "--gamma", "2", "--sigma2", "inf"],
    ["fit", "--kernel", "rbf", "--gamma", "nan", "--q", "2"],
    ["fit", "--kernel", "rbf", "--gamma", "inf", "--q", "2"],
    ["fit", "--kernel", "rbf", "--gamma", "-1", "--q", "2"],
    ["fit", "--kernel", "rbf", "--gamma", "2", "--q", "0"],
    ["fit", "--kernel", "rbf", "--gamma", "2", "--q", "-2"],
    ["fit", "--kernel", "linear", "--gamma", "5", "--q", "2"],
    ["reconstruct", "--epsilon", "-1"],
    ["reconstruct", "--epsilon", "nan"],
    ["reconstruct", "--epsilon", "inf"],
    ["generate", "--epsilon", "-1"],
    ["generate", "--epsilon", "nan"],
    ["generate", "--epsilon", "inf"],
    ["generate", "--grid", "2x2", "--latent-range=nan:1"],
    ["generate", "--grid", "2x2", "--latent-range=-1:inf"],
    ["generate", "--seed", "-1"],
    ["fit", "--kernel", "rbf", "--gamma", "1e300", "--q", "2"],
    ["fit", "--kernel", "rbf", "--gamma", "1e-300", "--q", "2"],
    ["generate", "--grid", "0x3"],
    ["generate", "--grid", "2x2", "--latent-range=a:1"],
    ["generate", "--count", "-1"],
])
def test_bad_flag_values_are_usage_errors(tmp_path, toy_csv, capsys, args):
    model_path = run_fit(tmp_path, toy_csv, "--q", "2")
    io = ["--data", str(toy_csv)] if args[0] != "generate" else []
    if args[0] != "fit":
        io += ["--model", str(model_path)]
    assert main([*args, *io, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_fit_usage_errors(tmp_path, toy_csv):
    out = str(tmp_path / "m")
    base = ["fit", "--data", str(toy_csv), "--kernel", "rbf", "--gamma", "2", "--out", out]
    assert main(base) == 2  # neither --q nor --sigma2
    assert main(base + ["--q", "2", "--sigma2", "0.1"]) == 2
    assert main(["fit", "--data", str(toy_csv), "--kernel", "rbf",
                 "--q", "2", "--out", out]) == 2  # rbf without gamma


def test_fit_missing_data_is_data_error(tmp_path):
    code = main(["fit", "--data", str(tmp_path / "nope.csv"), "--kernel", "linear",
                 "--q", "1", "--out", str(tmp_path / "m")])
    assert code == 3


def test_project_on_a_zero_retained_eigenvalue_is_numeric_error(tmp_path, toy_csv, capsys):
    # a model file whose last retained eigenvalue is at the clamp floor has
    # no latent map for that direction: RankDeficient, exit 4
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")
    lam = load_model(model_path).eigenvalues.copy()
    lam[-1] = 0.0
    rewrite_section(model_path, "EVAL", pack_vector(lam))
    assert main(["project", "--model", str(model_path), "--data", str(toy_csv),
                 "--out", str(tmp_path / "proj")]) == 4
    assert "clamp floor" in capsys.readouterr().err


def test_fit_bad_latent_is_numeric_error(tmp_path, toy_csv):
    code = main(["fit", "--data", str(toy_csv), "--kernel", "rbf", "--gamma", "2",
                 "--q", "25", "--out", str(tmp_path / "m")])
    assert code == 4


def test_report_matches_library_exactly(tmp_path, toy_csv, capsys):
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")
    rep_out = tmp_path / "rep"
    assert main(["report", "--model", str(model_path), "--out", str(rep_out)]) == 0
    text = capsys.readouterr().out
    model = load_model(model_path)
    line = next(l for l in text.splitlines() if l.startswith("explained_variance:"))
    assert float(line.split(":", 1)[1]) == explained_variance(model)
    line = next(l for l in text.splitlines() if l.startswith("sigma2:"))
    assert float(line.split(":", 1)[1]) == model.sigma2
    spectrum = load_csv(rep_out / "spectrum.csv")
    npt.assert_array_equal(spectrum[1], model.eigenvalues)


def test_project_shape(tmp_path, toy_csv):
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")
    out = tmp_path / "proj"
    assert main(["project", "--model", str(model_path), "--data", str(toy_csv),
                 "--out", str(out)]) == 0
    h = load_csv(out / "latent.csv")
    assert h.shape == (3, 20)


def test_reconstruct_matches_library_pipeline(tmp_path, toy_csv):
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")
    out = tmp_path / "rec"
    assert main(["reconstruct", "--model", str(model_path), "--data", str(toy_csv),
                 "--out", str(out)]) == 0
    got = load_csv(out / "reconstructed.csv")

    model = load_model(model_path)
    x = load_csv(toy_csv)
    assert x.shape[1] == model.n  # training data: the in-sample columns are the Gram's
    kc = center_gram(gram(model.spec, model.ts))
    rec = dual_reconstruct(model, dual_latent_map(model, kc))
    npt.assert_allclose(got, kernel_smoother(model.ts, rec), atol=1e-12)


def test_lossless_limit_pipeline_recovers_inputs(tmp_path):
    # sigma2 = 0 with a narrow kernel: projection plus reconstruction is the
    # identity in kernel space, so the only error left is the smoother bias
    x = two_arcs(20, seed=0)
    data = tmp_path / "d.csv"
    save_csv(data, x)
    out = tmp_path / "m"
    assert main(["fit", "--data", str(data), "--kernel", "rbf", "--gamma", "0.5",
                 "--sigma2", "0", "--out", str(out)]) == 0
    rec_out = tmp_path / "rec"
    assert main(["reconstruct", "--model", str(out / "model.kppca"), "--data", str(data),
                 "--out", str(rec_out)]) == 0
    got = load_csv(rec_out / "reconstructed.csv")
    errs = np.linalg.norm(got - x, axis=0)
    assert errs.mean() <= 0.25
    assert errs.max() <= 0.5


def test_generate_outputs(tmp_path, toy_csv):
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")
    out = tmp_path / "gen"
    assert main(["generate", "--model", str(model_path), "--count", "15",
                 "--seed", "42", "--out", str(out)]) == 0
    ks = load_csv(out / "kernel_samples.csv")
    assert ks.shape == (20, 15)
    pts = load_csv(out / "generated.csv")
    assert pts.shape == (2, 15)
    svg = (out / "scatter.svg").read_text()
    for color in ("black", "blue", "red", "grey"):
        assert color in svg


def test_scatter_svg_with_every_layer_empty(tmp_path):
    path = tmp_path / "empty.svg"
    scatter_svg(path, [("original", "black", np.zeros((2, 0))), ("generated", "grey", np.zeros((2, 0)))])
    svg = path.read_text()
    # no points, one legend entry per layer, on the unit square's frame
    assert svg.startswith("<svg") and 'r="3"' not in svg and svg.count('r="4"') == 2
    assert ">original</text>" in svg and ">generated</text>" in svg


def test_scatter_svg_places_each_point_by_the_per_point_map(tmp_path):
    # every circle of every layer, an empty layer among them, sits where
    # the map of one point at a time puts it, to the byte
    rng = np.random.default_rng(11)
    layers = [("a", "black", rng.normal(size=(2, 40))), ("b", "blue", np.zeros((2, 0))),
              ("c", "grey", rng.normal(3.0, 0.5, size=(2, 25)))]
    scatter_svg(tmp_path / "s.svg", layers)
    pts = np.concatenate([p for _, _, p in layers], axis=1)
    span = np.maximum(pts.max(axis=1) - pts.min(axis=1), 1e-9)
    lo, hi = pts.min(axis=1) - 0.05 * span, pts.max(axis=1) + 0.05 * span
    span = hi - lo
    expected = []
    for _, color, p in layers:
        expected.append(f'<g fill="{color}" fill-opacity="0.75">')
        for i in range(p.shape[1]):
            x = plots._PAD + (p[0, i] - lo[0]) / span[0] * (plots._SVG_W - 2 * plots._PAD)
            y = plots._SVG_H - plots._PAD - (p[1, i] - lo[1]) / span[1] * (plots._SVG_H - 2 * plots._PAD)
            expected.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3"/>')
        expected.append("</g>")
    lines = (tmp_path / "s.svg").read_text().splitlines()
    assert lines[3 : 3 + len(expected)] == expected and lines[3 + len(expected)].startswith('<circle cx="55.0"')


def test_generate_count_zero(tmp_path, toy_csv):
    model_path = run_fit(tmp_path, toy_csv, "--q", "2")
    out = tmp_path / "gen0"
    assert main(["generate", "--model", str(model_path), "--count", "0",
                 "--out", str(out)]) == 0
    lines = (out / "generated.csv").read_text().splitlines()
    assert lines == ["x1,x2"]
    header = (out / "kernel_samples.csv").read_text().splitlines()
    assert len(header) == 1 and header[0].startswith("k1,")


def test_generate_grid(tmp_path, toy_csv):
    model_path = run_fit(tmp_path, toy_csv, "--q", "2")
    out = tmp_path / "grid"
    assert main(["generate", "--model", str(model_path), "--grid", "4x3",
                 "--latent-range=-2:2", "--out", str(out)]) == 0
    ks = load_csv(out / "kernel_samples.csv")
    assert ks.shape == (20, 12)
    assert main(["generate", "--model", str(model_path), "--grid", "4by3",
                 "--out", str(tmp_path / "bad")]) == 2
    assert main(["generate", "--model", str(model_path), "--grid", "2x2",
                 "--latent-range", "what", "--out", str(tmp_path / "bad2")]) == 2


@pytest.mark.parametrize("bound, what", [("1e308", "kernel samples"), ("5e307", "generated points")])
def test_generate_non_finite_samples_are_a_numeric_error(tmp_path, capsys, bound, what):
    # on 40 two-arcs points 1e308 overflows the samples; at 5e307 the
    # samples are finite and their preimage overflows
    data = tmp_path / "arcs40.csv"
    save_csv(data, two_arcs(40, seed=0))
    model_path = run_fit(tmp_path, data, "--q", "2")
    out = tmp_path / "gen"
    assert main(["generate", "--model", str(model_path), "--grid", "2x2",
                 f"--latent-range={bound}:-{bound}", "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(f"numeric error: {what} are not finite")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--count", "1000000000000000"], ["--grid", "1000000x10000000000"]])
def test_generate_failed_allocation_is_a_data_error(tmp_path, toy_csv, capsys, flags):
    # the noise (298 PiB) and the grid sweep (71 PiB) exceed any address
    # space, so numpy's allocation fails before a page is touched, whatever
    # the host's overcommit policy
    model_path = run_fit(tmp_path, toy_csv, "--q", "2")
    capsys.readouterr()
    out = tmp_path / "gen"
    assert main(["generate", "--model", str(model_path), *flags, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: out of memory: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--count", "9223372036854775808"], ["--grid", "100000000000000000000x2"]])
def test_generate_oversized_request_is_a_data_error(tmp_path, toy_csv, capsys, flags):
    # arrays whose byte count overflows the address space, which numpy
    # refuses with a ValueError rather than a failed allocation
    model_path = run_fit(tmp_path, toy_csv, "--q", "2")
    capsys.readouterr()
    out = tmp_path / "gen"
    assert main(["generate", "--model", str(model_path), *flags, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: out of memory: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("q", [1, 2, 3])
def test_generate_grid_sweeps_leading_directions(tmp_path, toy_csv, q):
    # column r * a + c holds the latent codes (first[c], second[r]) of the
    # two leading components, the coordinates that project writes, and 0
    # beyond: its kernel samples are their dual_reconstruct and its points
    # their preimage_codes. A q = 1 model has no second direction, so every
    # row of the grid repeats the first
    model_path = run_fit(tmp_path, toy_csv, "--q", str(q))
    out = tmp_path / "grid"
    assert main(["generate", "--model", str(model_path), "--grid", "4x3",
                 "--latent-range=-2:2", "--out", str(out)]) == 0
    m = load_model(model_path)
    sweep = np.stack([np.tile(np.linspace(-2, 2, 4), 3), np.repeat(np.linspace(-2, 2, 3), 4)])
    lead = min(q, 2)
    codes = np.zeros((q, 12))
    codes[:lead] = sweep[:lead]
    ks = load_csv(out / "kernel_samples.csv")
    npt.assert_allclose(ks, dual_reconstruct(m, codes), atol=1e-15)
    want = dual.preimage_codes(m, codes)
    assert np.abs(load_csv(out / "generated.csv") - want).max() <= 1e-12 * np.abs(want).max()
    if q == 1:
        npt.assert_array_equal(ks[:, :4], ks[:, 4:8])


def test_commands_look_functions_up_when_they_run(tmp_path, toy_csv, monkeypatch):
    # a command reads each library function from its module at call time,
    # never from a copy bound on an earlier run, so a patch made between
    # two runs (the benchmark's layer trace, the tests here) takes effect
    model = str(run_fit(tmp_path, toy_csv, "--q", "2"))
    project = ["project", "--model", model, "--data", str(toy_csv), "--out", str(tmp_path / "p")]
    assert main(project) == 0
    read = []

    def spy(path, *args, **kwargs):
        read.append(path)
        return load_csv(path, *args, **kwargs)

    monkeypatch.setattr(io_datasets, "load_csv", spy)
    assert main(project) == 0
    assert read == [str(toy_csv)]


def test_queries_never_build_the_gram(tmp_path, toy_csv, monkeypatch):
    # project, reconstruct and report read O(N (d_in + q)) numbers; only
    # generate factors the Gram matrix
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")

    def refuse(*args, **kwargs):
        raise AssertionError("a query command built the N x N Gram matrix")

    for module in (dual, kernels):
        monkeypatch.setattr(module, "gram", refuse)
    model = str(model_path)
    assert main(["project", "--model", model, "--data", str(toy_csv), "--out", str(tmp_path / "p")]) == 0
    assert main(["reconstruct", "--model", model, "--data", str(toy_csv), "--out", str(tmp_path / "r")]) == 0
    assert main(["report", "--model", model, "--out", str(tmp_path / "rep")]) == 0
    with pytest.raises(AssertionError, match="Gram"):
        main(["generate", "--model", model, "--count", "2", "--out", str(tmp_path / "g")])


def test_generate_scatter_uses_first_two_coords_above_2d(tmp_path, rng):
    x = rng.standard_normal((3, 10))
    data = tmp_path / "d3.csv"
    save_csv(data, x)
    out = tmp_path / "m"
    assert main(["fit", "--data", str(data), "--kernel", "rbf", "--gamma", "2",
                 "--q", "2", "--out", str(out)]) == 0
    gen = tmp_path / "g"
    assert main(["generate", "--model", str(out / "model.kppca"), "--count", "5",
                 "--out", str(gen)]) == 0
    assert (gen / "scatter.svg").exists()
    pts = load_csv(gen / "generated.csv")
    assert pts.shape == (3, 5)


def test_generate_pgm_for_square_inputs(tmp_path, rng):
    # 64-dimensional inputs render as 8x8 image tiles
    x = rng.uniform(0.0, 1.0, size=(64, 12))
    data = tmp_path / "img.csv"
    save_csv(data, x)
    out = tmp_path / "m"
    assert main(["fit", "--data", str(data), "--kernel", "rbf", "--gamma", "4",
                 "--q", "2", "--out", str(out)]) == 0
    gen = tmp_path / "g"
    assert main(["generate", "--model", str(out / "model.kppca"), "--grid", "3x2",
                 "--out", str(gen)]) == 0
    blob = (gen / "generated.pgm").read_bytes()
    assert blob.startswith(b"P5\n")


def test_rerun_byte_identical(tmp_path, toy_csv):
    # same flags and seed: every numeric artifact must be byte-identical
    files = {}
    for tag in ("one", "two"):
        model_out = tmp_path / tag / "model"
        assert main(["fit", "--data", str(toy_csv), "--kernel", "rbf", "--gamma", "2",
                     "--q", "3", "--out", str(model_out)]) == 0
        gen_out = tmp_path / tag / "gen"
        assert main(["generate", "--model", str(model_out / "model.kppca"),
                     "--count", "25", "--seed", "7", "--out", str(gen_out)]) == 0
        proj_out = tmp_path / tag / "proj"
        assert main(["project", "--model", str(model_out / "model.kppca"),
                     "--data", str(toy_csv), "--out", str(proj_out)]) == 0
        files[tag] = [
            model_out / "model.kppca",
            gen_out / "kernel_samples.csv",
            gen_out / "generated.csv",
            gen_out / "scatter.svg",
            proj_out / "latent.csv",
        ]
    for a, b in zip(files["one"], files["two"]):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"


# --- column blocks --------------------------------------------------------

BLOCKED_N = 300
WIDTH = kernels.block_width(BLOCKED_N)


def blocked_case(tmp_path, data):
    """A saved N = 300 model and 3B + 7 held-out inputs (one per column)."""
    if data == "arcs":
        m, queries = arcs_model(n=BLOCKED_N), two_arcs(3 * WIDTH + 7, seed=1)
    else:
        m, queries = bumps_model(n=BLOCKED_N), bump_images(3 * WIDTH + 7, seed=1).T
    model_path = tmp_path / f"{data}.kppca"
    save_model(model_path, m)
    return m, model_path, queries


@pytest.mark.parametrize("data", ["arcs", "bumps"])
def test_blocked_queries_match_the_one_shot_library(tmp_path, data, capsys):
    # the CLI cuts the queries into column blocks of width B; its files
    # match the whole-batch library functions at every block boundary and
    # are byte-identical on a re-run
    m, model_path, queries = blocked_case(tmp_path, data)
    for count in (1, WIDTH, WIDTH + 1, 3 * WIDTH + 7):
        x = queries[:, :count]
        csv = tmp_path / f"q{count}.csv"
        save_csv(csv, x)
        h = dual_latent_map(m, centered_kernel_vectors(m.spec, m.ts, m.means, x))
        points = kernel_smoother(m.ts, dual_reconstruct(m, h))
        for cmd, name, expected in (("project", "latent.csv", h),
                                    ("reconstruct", "reconstructed.csv", points)):
            runs = []
            for rep in range(2):
                out = tmp_path / f"{cmd}-{count}-{rep}"
                assert main([cmd, "--model", str(model_path), "--data", str(csv), "--out", str(out)]) == 0
                runs.append((out / name).read_bytes())
            assert runs[0] == runs[1], f"{cmd} M={count}: re-run differs"
            got = load_csv(out / name)
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), (cmd, count)
    capsys.readouterr()


def test_query_memory_is_one_column_block(tmp_path, capsys):
    # project and reconstruct of M = 3B + 7 two-dimensional inputs trace at
    # most a few N x B blocks on top of their q x M and d_in x M results;
    # building the whole N x M block at once takes at least twice N M 8 bytes
    m, model_path, queries = blocked_case(tmp_path, "arcs")
    d_in, count = queries.shape
    csv = tmp_path / "queries.csv"
    save_csv(csv, queries)
    bound = 3 * BLOCKED_N * WIDTH * 8 + (m.q + d_in) * count * 8
    assert bound < 2 * BLOCKED_N * count * 8
    for cmd in ("project", "reconstruct"):
        args = [cmd, "--model", str(model_path), "--data", str(csv), "--out", str(tmp_path / cmd)]
        assert main(args) == 0  # warm-up: imports and first-call caches are not the query's
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{cmd} traced {peak} bytes, bound {bound}"
    capsys.readouterr()


def test_inconsistent_model_file_is_data_error(tmp_path, toy_csv):
    # a q that disagrees with the 3 eigenpairs, under a valid CRC32
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")
    model = load_model(model_path)
    rewrite_section(model_path, "HYPR", struct.pack("<Idd", 10, model.sigma2, model.tail))
    assert main(["project", "--model", str(model_path), "--data", str(toy_csv),
                 "--out", str(tmp_path / "proj")]) == 3


def test_console_entry_point(tmp_path, toy_csv):
    out = tmp_path / "m"
    proc = subprocess.run(
        [sys.executable, "-m", "kppca.cli", "fit", "--data", str(toy_csv),
         "--kernel", "linear", "--q", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "model.kppca").exists()
    proc = subprocess.run([sys.executable, "-m", "kppca.cli", "report", "--model",
                           str(out / "model.kppca")], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "kind: dual" in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_report_reads_a_model_from_a_pipe(tmp_path, toy_csv):
    # the model file is read front to back, so a pipe serves as well as a
    # file: the same lines from both. A pipe has no size to hold a declared
    # length against; a TSET of 2**59 values fails to allocate, exit 3
    model_path = run_fit(tmp_path, toy_csv, "--q", "2")
    blob = model_path.read_bytes()
    huge = b"TSET" + struct.pack("<QII", 8 + 8 * (1 << 59), 1 << 31, 1 << 28)
    runs = [subprocess.run([sys.executable, "-m", "kppca.cli", "report", "--model", model,
                            "--out", str(tmp_path / "rep")], input=stdin, capture_output=True, timeout=120)
            for model, stdin in ((str(model_path), None), ("/dev/stdin", blob),
                                 ("/dev/stdin", blob[:11] + framed(model_sections(blob)[:5]) + huge))]
    assert [proc.returncode for proc in runs] == [0, 0, 3], runs[2].stderr
    assert runs[1].stdout == runs[0].stdout
    assert b"kind: dual" in runs[0].stdout
    # a missing path stays a data error
    assert main(["report", "--model", str(tmp_path / "missing.kppca")]) == 3


def test_outputs_agree_across_blas_thread_counts(tmp_path):
    # the documented contract for a positive-definite model: fit, project
    # and generate at one and two OpenBLAS threads write numbers that agree
    # within 1e-11 of each output's largest entry
    train, queries = tmp_path / "train.csv", tmp_path / "queries.csv"
    save_csv(train, bump_images(400, side=12, seed=3).T)
    save_csv(queries, bump_images(50, side=12, seed=4).T)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        model_path = str(out / "fit" / "model.kppca")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        for args in (["fit", "--data", str(train), "--kernel", "rbf", "--gamma", "3", "--q", "5"],
                     ["project", "--model", model_path, "--data", str(queries)],
                     ["generate", "--model", model_path, "--count", "20", "--seed", "3"]):
            subprocess.run([sys.executable, "-m", "kppca.cli", *args, "--out", str(out / args[0])],
                           env=env, check=True, capture_output=True, timeout=300)
        m = load_model(model_path)
        np.linalg.cholesky(gram(m.spec, m.ts))  # positive definite: LAPACK's factor samples
        outputs.append({"eigenvalues": m.eigenvalues, "e": m.e, "sigma2": m.sigma2, "tail": m.tail,
                        "means": m.means, "latent": load_csv(out / "project" / "latent.csv"),
                        "kernel_samples": load_csv(out / "generate" / "kernel_samples.csv"),
                        "generated": load_csv(out / "generate" / "generated.csv")})
    for name, one in outputs[0].items():
        gap = np.abs(np.subtract(one, outputs[1][name])).max()
        assert gap <= 1e-11 * np.abs(one).max(), name


def test_report_on_a_directory_is_a_data_error(tmp_path, toy_csv, capsys):
    # a directory as --model is a data error, exit 3, as in every other
    # command, with or without --out, and nothing is written
    run_fit(tmp_path, toy_csv, "--q", "2")
    before = sorted(tmp_path.rglob("*"))
    for flags in ([], ["--out", str(tmp_path / "rep")]):
        assert main(["report", "--model", str(tmp_path / "model"), *flags]) == 3
        assert capsys.readouterr().err.startswith("data error:")
    assert sorted(tmp_path.rglob("*")) == before


# the CLI in a child process that refuses, exit 1, any output file under
# /dev or /proc, so that a report run as root cannot create one there
GUARDED_CLI = """
import os, sys
from kppca import cli, io_datasets

def guarded(write):
    def refuse(path, *args, **kwargs):
        if os.path.abspath(path).startswith(("/dev/", "/proc/")):
            raise SystemExit(f"refused a write to {path}")
        return write(path, *args, **kwargs)
    return refuse

io_datasets.save_csv = guarded(io_datasets.save_csv)
cli._write_sidecar = guarded(cli._write_sidecar)
sys.exit(cli.main(sys.argv[1:]))
"""


def written_by(root, run):
    """run(), its result and the paths it added under root; it must change
    no file that was there before."""
    def tree():
        return {p: p.is_file() and p.stat().st_mtime_ns for p in root.rglob("*")}
    before = tree()
    result = run()
    after = tree()
    assert {p: after.get(p) for p in before} == before
    return result, after.keys() - before.keys()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("model", ["/dev/stdin", "/proc/self/fd/0"])
def test_report_never_writes_into_dev(tmp_path, toy_csv, capsys, model):
    # redirected from a model file, /dev/stdin is a regular file whose
    # directory is /dev: without --out, report prints what it prints for the
    # file and writes nothing, under /dev or anywhere else
    model_path = run_fit(tmp_path, toy_csv, "--q", "2")
    capsys.readouterr()
    assert main(["report", "--model", str(model_path)]) == 0
    printed = capsys.readouterr().out

    def report():
        with open(model_path, "rb") as stdin:
            return subprocess.run([sys.executable, "-c", GUARDED_CLI, "report", "--model", model],
                                  stdin=stdin, capture_output=True, timeout=120)

    proc, added = written_by(tmp_path, report)
    assert proc.returncode == 0 and added == set(), proc.stderr
    assert proc.stdout.decode() == printed and printed.startswith("kind: dual\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_every_command_writes_only_under_out(tmp_path, monkeypatch, capsys):
    # the data, the model and the working directory in home/, every --out
    # under outs/: each command adds files under its --out and changes
    # nothing else. report without --out prints and writes nothing, whether
    # its model is a file or a pipe
    home, outs = tmp_path / "home", tmp_path / "outs"
    home.mkdir()
    outs.mkdir()
    monkeypatch.chdir(home)
    data, model = home / "data.csv", home / "model.kppca"
    save_csv(data, two_arcs(20, seed=0), header=["x1", "x2"])
    fit = ["fit", "--data", str(data), "--kernel", "rbf", "--gamma", "2", "--q", "3"]
    runs = {"project": ["--data", str(data)], "reconstruct": ["--data", str(data)],
            "generate": ["--count", "5", "--seed", "3"], "report": []}
    commands = [(outs / "fit", fit)] + [(outs / cmd, [cmd, "--model", str(model), *flags])
                                        for cmd, flags in runs.items()]
    for out, args in commands:
        code, added = written_by(tmp_path, lambda: main([*args, "--out", str(out)]))
        assert code == 0 and out in added and all(out in p.parents for p in added - {out}), added
        if args is fit:
            model.write_bytes((out / "model.kppca").read_bytes())
    capsys.readouterr()
    assert written_by(tmp_path, lambda: main(["report", "--model", str(model)])) == (0, set())
    printed = capsys.readouterr().out
    assert printed.startswith("kind: dual\n") and "wrote" not in printed

    def report_from_pipe():
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        return subprocess.run([sys.executable, "-c", GUARDED_CLI, "report", "--model", "/dev/stdin"],
                              input=model.read_bytes(), capture_output=True, env=env, timeout=120)

    proc, added = written_by(tmp_path, report_from_pipe)
    assert proc.returncode == 0 and added == set(), proc.stderr
    assert proc.stdout.decode() == printed

    # negative smoother weights are always clipped: --clip-negative changes
    # no output byte, and --no-clip-negative is a usage error
    for cmd in ("reconstruct", "generate"):
        args = [cmd, "--model", str(model), *runs[cmd]]
        assert main([*args, "--clip-negative", "--out", str(outs / "clip")]) == 0
        for name in os.listdir(outs / cmd):
            if not name.endswith(".meta.json"):
                assert (outs / "clip" / name).read_bytes() == (outs / cmd / name).read_bytes(), name
        with pytest.raises(SystemExit) as exc:
            main([*args, "--no-clip-negative", "--out", str(outs / "none")])
        assert exc.value.code == 2 and not (outs / "none").exists()
    capsys.readouterr()


CLEAN_EXITS = {0, 2, 3, 4}


def test_damaged_model_file_exits_cleanly(tmp_path, toy_csv, capsys):
    # seeded byte flips and truncations of a fitted model: every run ends
    # with one of the CLI's own exit codes, never a traceback
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")
    blob = model_path.read_bytes()
    rng = np.random.default_rng(20261018)
    damaged = []
    for _ in range(300):
        b = bytearray(blob)
        for pos in rng.integers(0, len(b), rng.integers(1, 4)):
            b[pos] ^= int(rng.integers(1, 256))
        damaged.append(bytes(b))
    damaged += [blob[:cut] for cut in rng.integers(0, len(blob), 30)]
    bad = tmp_path / "damaged.kppca"
    out = str(tmp_path / "out")
    codes = Counter()
    for i, b in enumerate(damaged):
        bad.write_bytes(b)
        args = (["project", "--data", str(toy_csv)] if i % 2 else ["generate", "--count", "3"])
        codes[main([*args, "--model", str(bad), "--out", out])] += 1
    capsys.readouterr()
    assert set(codes) <= CLEAN_EXITS, codes
    assert set(codes) == {3}, codes  # every section carries a CRC32


def test_every_byte_flip_is_a_data_error(tmp_path, capsys):
    # a 12-point model: whichever byte changes, project exits 3
    data = tmp_path / "twelve.csv"
    save_csv(data, two_arcs(12, seed=1), header=["x1", "x2"])
    out = tmp_path / "model"
    assert main(["fit", "--data", str(data), "--kernel", "rbf", "--gamma", "1",
                 "--q", "2", "--out", str(out)]) == 0
    blob = (out / "model.kppca").read_bytes()
    bad = tmp_path / "flipped.kppca"
    codes = Counter()
    for pos in range(len(blob)):
        b = bytearray(blob)
        b[pos] ^= 1 << (pos % 8)
        bad.write_bytes(bytes(b))
        codes[main(["project", "--model", str(bad), "--data", str(data),
                    "--out", str(tmp_path / "proj")])] += 1
    capsys.readouterr()
    assert codes == {3: len(blob)}, codes


@pytest.mark.parametrize("data, code", [
    (b'"x1","x2"\n"0.5","1"\n', 0),  # quoted cells
    (b"1_0,2\n", 0),
    ("\uff11,\uff12\n".encode("utf-8"), 0),  # full-width digits
    (b"-0.0,5e-324\n1e16,2\n", 0),
    (b"1e200,-1e200\n", 0),  # far away: RBF kernel values of 0
    (b"1,2,\n3,4,\n", 3),  # trailing comma
    (b"1,2\n3\n", 3),  # ragged
    (b"1,2\n#,4\n", 3),
    (b"x1,x2\n", 3),  # header only
    (b"", 3),
    (b"0.5,\xff\n", 3),  # not UTF-8
    (b"1,2,3\n", 4),  # width differs from the model's
    (b"inf,1\n", 4),
    (b"0,nan\n", 4),
    (b"1e308,1e308\n", 4),  # squared distance overflows float64
    pytest.param(b"1.5,2.5\n3.5\n", 3, id="ragged_rows_in_the_decimal_reader"),
    pytest.param(b"1," + b"1" * 131_073 + b"\n", 3, id="cell_over_the_csv_field_limit"),
    pytest.param(b"1,2\n1," + b"1" * 131_073 + b"\n", 3, id="cell_over_the_csv_field_limit_in_row_2"),
    pytest.param(b"1,2\n1,0." + b"0" * 131_072 + b"1\n", 3, id="finite_cell_over_the_csv_field_limit_in_row_2"),
])
def test_malformed_csv_exits_cleanly(tmp_path, toy_csv, capsys, data, code):
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")
    queries = tmp_path / "queries.csv"
    queries.write_bytes(data)
    assert main(["project", "--model", str(model_path), "--data", str(queries),
                 "--out", str(tmp_path / "proj")]) == code
