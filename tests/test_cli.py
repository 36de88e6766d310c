import struct
import subprocess
import sys
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from kppca import (
    dual_latent_map,
    dual_reconstruct,
    explained_variance,
    feature_reconstruct,
    fit_primal,
    kernel_smoother,
    latent_map,
    load_csv,
    load_model,
    save_csv,
    save_model,
    two_arcs,
)
from kppca.cli import main
from kppca.preimage import PreimageConfig

from conftest import rewrite_section


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
    cfg = PreimageConfig(epsilon=1e-3 * model.n, clip_negative=True)
    assert x.shape[1] == model.n  # training data: the in-sample columns are the Gram's
    rec = dual_reconstruct(model, dual_latent_map(model, model.kc.entries))
    npt.assert_allclose(got, kernel_smoother(model.ts, rec, cfg), atol=1e-12)


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


def test_primal_model_commands(tmp_path, toy_csv, capsys):
    # fit writes dual models only; primal ones come from the library
    x = load_csv(toy_csv)
    pm = fit_primal(x, q=1)
    model_path = tmp_path / "primal.kppca"
    save_model(model_path, pm)
    model = str(model_path)
    assert main(["project", "--model", model, "--data", str(toy_csv), "--out", str(tmp_path / "p")]) == 0
    npt.assert_array_equal(load_csv(tmp_path / "p" / "latent.csv"), latent_map(pm, x))
    assert main(["reconstruct", "--model", model, "--data", str(toy_csv),
                 "--out", str(tmp_path / "r")]) == 0
    npt.assert_array_equal(load_csv(tmp_path / "r" / "reconstructed.csv"),
                           feature_reconstruct(pm, latent_map(pm, x)))
    assert main(["generate", "--model", model, "--count", "6", "--seed", "5",
                 "--out", str(tmp_path / "g")]) == 0
    assert load_csv(tmp_path / "g" / "generated.csv").shape == (2, 6)
    capsys.readouterr()
    assert main(["report", "--model", model, "--out", str(tmp_path / "rep")]) == 0
    text = capsys.readouterr().out
    assert "kind: primal" in text
    line = next(l for l in text.splitlines() if l.startswith("explained_variance:"))
    assert float(line.split(":", 1)[1]) == explained_variance(pm)


def test_inconsistent_model_file_is_data_error(tmp_path, toy_csv):
    # a q that disagrees with the 20 x 3 AMAT used to load and then crash
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")
    sigma2 = load_model(model_path).sigma2
    rewrite_section(model_path, "HYPR", struct.pack("<Id", 10, sigma2))
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
    assert codes[0] and codes[3], codes  # both intact-looking and rejected files occur


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
])
def test_malformed_csv_exits_cleanly(tmp_path, toy_csv, capsys, data, code):
    model_path = run_fit(tmp_path, toy_csv, "--q", "3")
    queries = tmp_path / "queries.csv"
    queries.write_bytes(data)
    assert main(["project", "--model", str(model_path), "--data", str(queries),
                 "--out", str(tmp_path / "proj")]) == code
