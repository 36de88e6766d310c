import json
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from kppca import (
    KernelSpec,
    RunMetadata,
    TrainingSet,
    center_gram,
    fit_dual,
    fit_primal,
    gram,
    load_csv,
    load_mnist_idx,
    load_model,
    save_csv,
    save_model,
    two_arcs,
    write_metadata,
)
from kppca.errors import (
    BadMagic,
    CorruptFile,
    CountMismatch,
    ParseError,
    RaggedRows,
    Truncated,
    VersionMismatch,
)
from kppca.io_datasets import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC

from conftest import pack_matrix, pack_vector, rewrite_section

# --- CSV -----------------------------------------------------------------


def test_load_csv_row_samples_become_columns(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3,4\n")
    x = load_csv(p)
    assert x.shape == (2, 2)
    npt.assert_array_equal(x[:, 0], [1.0, 2.0])
    npt.assert_array_equal(x[:, 1], [3.0, 4.0])


def test_load_csv_skips_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n1,2\n3,4\n")
    assert load_csv(p).shape == (2, 2)


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        load_csv(p)
    p.write_text("x,y\n")
    with pytest.raises(ParseError):
        load_csv(p)


def test_load_csv_reports_bad_cell_location(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        load_csv(p)
    assert err.value.row == 2 and err.value.col == 2


def test_load_csv_ragged(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(RaggedRows):
        load_csv(p)


def test_csv_roundtrip_exact(tmp_path, rng):
    x = rng.standard_normal((3, 5)) * np.array([[1e-7], [1.0], [1e8]])
    p = tmp_path / "t.csv"
    save_csv(p, x, header=["a", "b", "c"])
    back = load_csv(p)
    npt.assert_array_equal(back, x)


# --- MNIST IDX -----------------------------------------------------------


def write_idx_pair(tmp_path, images, labels, image_magic=IDX_IMAGES_MAGIC,
                   label_magic=IDX_LABELS_MAGIC, truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "imgs.idx3"
    lab_path = tmp_path / "labs.idx1"
    blob = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        blob = blob[:-truncate_images]
    img_path.write_bytes(blob)
    lab_path.write_bytes(struct.pack(">II", label_magic, labels.size) + labels.tobytes())
    return img_path, lab_path


def test_idx_load_scale_filter_limit(tmp_path, rng):
    images = rng.integers(0, 256, size=(6, 4, 4), dtype=np.uint8)
    images[0] = 255
    labels = np.array([0, 1, 2, 1, 0, 7], dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, labels)
    x, y = load_mnist_idx(img, lab, label_filter={0, 1}, limit=3)
    assert x.shape == (16, 3)
    npt.assert_array_equal(y, [0, 1, 1])
    npt.assert_allclose(x[:, 0], 1.0)  # byte 255 scales to 1.0
    full, _ = load_mnist_idx(img, lab)
    npt.assert_allclose(full[:, 1], images[1].ravel() / 255.0)


def test_idx_bad_magic(tmp_path, rng):
    images = rng.integers(0, 256, size=(2, 3, 3), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, [0, 1], label_magic=1234)
    with pytest.raises(BadMagic):
        load_mnist_idx(img, lab)
    img2, lab2 = write_idx_pair(tmp_path, images, [0, 1], image_magic=99)
    with pytest.raises(BadMagic):
        load_mnist_idx(img2, lab2)


def test_idx_count_mismatch(tmp_path, rng):
    images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, [0, 1])
    with pytest.raises(CountMismatch):
        load_mnist_idx(img, lab)


def test_idx_truncated(tmp_path, rng):
    images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, [0, 1, 2], truncate_images=5)
    with pytest.raises(Truncated):
        load_mnist_idx(img, lab)


# --- model container -------------------------------------------------------


def fitted_models(rng):
    x = two_arcs(7, seed=11)
    pm = fit_primal(x, q=2)
    ts = TrainingSet.from_columns(x)
    spec = KernelSpec("rbf", 2.0)
    kc = center_gram(gram(spec, ts))
    dm = fit_dual(kc, spec, ts, q=3)
    return pm, dm


def test_model_roundtrip_bitwise(tmp_path, rng):
    pm, dm = fitted_models(rng)
    for name, model in (("p.kppca", pm), ("d.kppca", dm)):
        path = tmp_path / name
        save_model(path, model)
        loaded = load_model(path)
        second = tmp_path / ("2" + name)
        save_model(second, loaded)
        assert path.read_bytes() == second.read_bytes()


def test_model_roundtrip_fields(tmp_path, rng):
    pm, dm = fitted_models(rng)
    save_model(tmp_path / "p.kppca", pm)
    back = load_model(tmp_path / "p.kppca")
    assert back.q == pm.q and back.sigma2 == pm.sigma2
    npt.assert_array_equal(back.mu, pm.mu)
    npt.assert_array_equal(back.w, pm.w)
    npt.assert_array_equal(back.eigenvalues, pm.eigenvalues)
    npt.assert_array_equal(back.v, pm.v)

    save_model(tmp_path / "d.kppca", dm)
    back = load_model(tmp_path / "d.kppca")
    assert back.q == dm.q and back.sigma2 == dm.sigma2
    assert back.spec == dm.spec
    npt.assert_array_equal(back.a, dm.a)
    npt.assert_array_equal(back.eigenvalues, dm.eigenvalues)
    npt.assert_array_equal(back.e, dm.e)
    npt.assert_array_equal(back.kc.entries, dm.kc.entries)
    npt.assert_array_equal(back.ts.points, dm.ts.points)


def test_model_version_mismatch(tmp_path, rng):
    pm, _ = fitted_models(rng)
    path = tmp_path / "p.kppca"
    save_model(path, pm)
    blob = bytearray(path.read_bytes())
    blob[6:10] = struct.pack("<I", 42)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_model_corrupt_file(tmp_path, rng):
    pm, _ = fitted_models(rng)
    path = tmp_path / "p.kppca"
    save_model(path, pm)
    blob = path.read_bytes()
    path.write_bytes(b"NOTME" + blob[5:])
    with pytest.raises(CorruptFile):
        load_model(path)
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptFile):
        load_model(path)


def _dual_sections(dm):
    # fitted_models' dual model: N = 7 two-arcs points in 2-D, q = 3
    lam = dm.eigenvalues
    return [
        ("HYPR", struct.pack("<Id", 40, dm.sigma2), "q=40 outside 1..N=7"),
        ("HYPR", struct.pack("<Id", 0, dm.sigma2), "q=0 outside"),
        ("HYPR", struct.pack("<Id", 5, dm.sigma2), "AMAT has shape (7, 3), expected (7, 5)"),
        ("HYPR", struct.pack("<Id", 3, -1.0), "sigma2=-1.0"),
        ("HYPR", struct.pack("<Id", 3, float("nan")), "sigma2=nan"),
        ("EVAL", pack_vector(lam[[1, 0, 2, 3, 4, 5, 6]]), "descending"),
        ("EVAL", pack_vector(np.append(lam, 0.0)), "EVEC has shape (7, 7), expected (8, 8)"),
        ("EVAL", pack_vector(np.where(lam == lam[0], np.inf, lam)), "finite"),
        ("EVEC", pack_matrix(dm.e[:, :6]), "EVEC has shape (7, 6)"),
        ("AMAT", pack_matrix(np.ones((60, 3))), "AMAT has shape (60, 3)"),
        ("KCMT", pack_matrix(np.full((7, 7), np.nan)), "KCMT holds NaN"),
        ("TSET", pack_matrix(dm.ts.points[:5]), "TSET has shape (5, 2)"),
        ("KSPC", struct.pack("<Bd", 7, 2.0), "kernel family code 7"),
        ("KSPC", struct.pack("<Bd", 1, 0.0), "rbf bandwidth 0.0"),
    ]


def test_model_sections_must_agree(tmp_path, rng):
    pm, dm = fitted_models(rng)
    cases = [("d", dm, tag, payload, msg) for tag, payload, msg in _dual_sections(dm)]
    cases += [
        ("p", pm, "WMAT", pack_matrix(pm.w[:1]), "WMAT has shape (1, 2), expected (2, 2)"),
        ("p", pm, "VMAT", pack_matrix(np.ones((2, 3))), "VMAT has shape (2, 3)"),
        ("p", pm, "HYPR", struct.pack("<Id", 8, pm.sigma2), "q=8 outside 1..N=7"),
    ]
    for i, (kind, model, tag, payload, msg) in enumerate(cases):
        path = tmp_path / f"{kind}{i}.kppca"
        save_model(path, model)
        load_model(path)
        rewrite_section(path, tag, payload)
        with pytest.raises(CorruptFile, match=re.escape(msg)):
            load_model(path)


def test_save_model_rejects_other_types(tmp_path):
    with pytest.raises(TypeError):
        save_model(tmp_path / "x", object())


# --- metadata -------------------------------------------------------------


def test_metadata_sidecar(tmp_path):
    meta = RunMetadata(seed=9, kernel=KernelSpec("rbf", 2.0), q=3, sigma2=0.01,
                       explained_variance=0.8)
    p = tmp_path / "run.meta.json"
    write_metadata(p, meta, extra={"command": "fit"})
    payload = json.loads(p.read_text())
    assert payload["seed"] == 9
    assert payload["kernel"] == {"family": "rbf", "gamma": 2.0}
    assert payload["command"] == "fit"
    assert "timestamp" in payload and "tool_version" in payload
