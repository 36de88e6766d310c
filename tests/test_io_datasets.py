import csv
import json
import re
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kppca import (
    KernelSpec,
    PreimageConfig,
    RunMetadata,
    SymMatrix,
    TrainingSet,
    center_gram,
    centered_kernel_vectors,
    dual_latent_map,
    fit_dual,
    fit_primal,
    gram,
    load_csv,
    load_mnist_idx,
    load_model,
    save_csv,
    save_model,
    sigma2_ml,
    sym_eig,
    two_arcs,
    write_metadata,
)
from kppca import io_datasets
from kppca.dual import preimage_codes, project_inputs
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

from conftest import align_columns, bump_images, bumps_model, pack_matrix, pack_vector, rewrite_section

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
    for text in ["", "\n\r\n", "x,y\n", "x,y\n\n\r\n"]:
        p.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a table without data
            with pytest.raises(ParseError):
                load_csv(p)


def test_load_csv_reports_bad_cell_location(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        load_csv(p)
    assert err.value.row == 2 and err.value.col == 2


@pytest.mark.parametrize("text, col", [("1,2,\n", 3), ("1,#\n", 2), ("x,1\n1,2\n", 1)])
def test_load_csv_first_row_with_a_number_is_data(tmp_path, text, col):
    # a one-row table with a bad cell is located, not taken for a header
    p = tmp_path / "t.csv"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        load_csv(p)
    assert err.value.row == 1 and err.value.col == col


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


def reference_load_csv(path):
    """The cell-by-cell parser load_csv must agree with: csv.reader, then
    float() on every cell, the first non-blank row skipped as a header when
    none of its cells is a number."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ParseError(f"{path}: empty file")

    def parse_row(fields, rownum):
        out = []
        for j, tok in enumerate(fields):
            try:
                out.append(float(tok))
            except ValueError:
                raise ParseError(f"{path}: not a number: {tok!r}", row=rownum, col=j + 1) from None
        return out

    def is_number(tok):
        try:
            float(tok)
        except ValueError:
            return False
        return True

    start = 0 if any(is_number(tok) for tok in rows[0]) else 1
    data = [parse_row(rows[i], i + 1) for i in range(start, len(rows))]
    if not data:
        raise ParseError(f"{path}: no data rows")
    width = len(data[0])
    for i, row in enumerate(data):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {start + i + 1} has {len(row)} fields, expected {width}")
    return np.asarray(data, dtype=float).T


def reference_save_csv(path, matrix, header=None):
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for col in matrix.T:
            writer.writerow([repr(float(v)) for v in col])


def csv_outcome(load, path):
    """Everything a caller can observe: the array bit for bit, with its
    layout, or the exception with its location and message."""
    try:
        x = load(path)
    except (ParseError, RaggedRows) as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "col", None), str(exc)
    return x.shape, x.strides, np.ascontiguousarray(x).view(np.uint64).tobytes()


NUMBER_CELLS = st.one_of(
    st.floats(width=64).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "-nan", "-0.0", "5e-324", "1e16", "1E3", "+.5",
                     " 2.5 ", "\t7", "-Infinity", "1.7976931348623157e308"]),
)
# cells float() takes and numpy's tokenizer refuses, or the reverse
FALLBACK_CELLS = st.sampled_from(['"1.5"', '" 2 "', "1_0", "\uff11\uff12", "\u0663", "1\x1c", "\x1f2"])
BAD_CELLS = st.sampled_from(["", " ", "#", "#1", "x", "--1", "0x10", '"', "1 2", "nan0", "1e"])
CELLS = st.one_of(NUMBER_CELLS, NUMBER_CELLS, NUMBER_CELLS, FALLBACK_CELLS, BAD_CELLS)


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    cells = NUMBER_CELLS if draw(st.booleans()) else CELLS
    rows = [[draw(cells) for _ in range(width)] for _ in range(draw(st.integers(0, 5)))]
    if rows and draw(st.integers(0, 3)) == 0:
        # a trailing comma (one more, empty cell) or a short row
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i] + [""] if draw(st.booleans()) else rows[i][:-1]
    header = draw(st.sampled_from([None, "names", "quoted", "half"]))
    if header == "names":
        rows.insert(0, [f"x{j + 1}" for j in range(width)])
    elif header == "quoted":
        rows.insert(0, [f'"x{j + 1}"' for j in range(width)])
    elif header == "half":
        rows.insert(0, ["1"] * (width - 1) + ["y"])
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@given(csv_texts())
@settings(max_examples=300, deadline=None)
def test_load_csv_matches_cell_by_cell_parser(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    assert csv_outcome(load_csv, path) == csv_outcome(reference_load_csv, path)


@pytest.mark.parametrize("text", [
    "x,y\r\n1,inf\r\n\r\n-0.0,nan\r\n5e-324,1e16",
    "\n\n1\r2\r3\r",
    '"a","b"\n1.5,2\n',
    "-1,2,3\n",
])
def test_load_csv_well_formed_table_skips_cell_parser(tmp_path, monkeypatch, text):
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode("utf-8"))
    expected = reference_load_csv(p)

    def refuse(*args, **kwargs):
        raise AssertionError("a well-formed table reached the cell-by-cell parser")

    monkeypatch.setattr(io_datasets, "_parse_cells", refuse)
    npt.assert_array_equal(load_csv(p), expected)


def test_load_csv_rejects_undecodable_bytes(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"1,2\n3,\xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(p)


@given(arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 5)),
              elements=st.floats(width=64)),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_save_csv_matches_csv_writer_of_reprs(tmp_path_factory, matrix, with_header):
    base = tmp_path_factory.getbasetemp()
    header = [f"c{i}" for i in range(matrix.shape[0])] if with_header else None
    save_csv(base / "saved.csv", matrix, header=header)
    reference_save_csv(base / "reference.csv", matrix, header=header)
    assert (base / "saved.csv").read_bytes() == (base / "reference.csv").read_bytes()


def repr_corpus(seed=0):
    """About 1.04 million seeded doubles of every kind repr has to handle."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 500_000, dtype=np.uint64, endpoint=False).view(np.float64)
    # random 53-bit mantissas at every binary exponent, subnormals included
    exps = np.repeat(np.arange(-1074, 1024), 100)
    mants = np.ldexp(rng.integers(2**52, 2**53, exps.size).astype(float), exps - 52)
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    twos = np.concatenate([twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf)])
    # short decimals d / 10**k, read from their decimal strings
    digits, scale = rng.integers(1, 10**7, 200_000), rng.integers(0, 24, 200_000)
    decimals = np.array([float(f"{d}e-{k}") for d, k in zip(digits.tolist(), scale.tolist())])
    ints = np.concatenate([rng.integers(0, 2**53, 100_000, endpoint=True).astype(float),
                           1e16 + np.arange(-5000.0, 5000.0), 1e17 + 16 * np.arange(-5000.0, 5000.0)])
    switches = np.array([1e-05, 0.0001, 0.001, 9999999999999998.0, 1e15, 1e16, 1e17])
    edges = np.array([5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308, 0.0, -0.0,
                      np.nan, np.inf, -np.inf, 1.7976931348623157e308])
    x = np.concatenate([bits, mants, twos, decimals, ints, switches,
                        np.nextafter(switches, 0.0), np.nextafter(switches, np.inf)])
    x.view(np.uint64)[rng.random(x.size) < 0.5] ^= np.uint64(1 << 63)  # signs, NaNs untouched
    return np.concatenate([x, edges])


def repr_lines(table):
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode("ascii")


def test_save_csv_is_repr_on_a_million_values(tmp_path):
    # every cell's bytes are repr's, in rows of 7 and in one row wider than
    # a chunk, which is written in pieces
    x = repr_corpus()
    assert x.size >= 1_000_000
    wide = io_datasets._CHUNK_CELLS * 2 + 3
    for table in (x[: x.size // 7 * 7].reshape(-1, 7), x[:wide].reshape(1, -1)):
        save_csv(tmp_path / "t.csv", table.T)
        assert (tmp_path / "t.csv").read_bytes() == repr_lines(table)


def test_save_csv_without_the_digit_path_is_all_repr(tmp_path, monkeypatch):
    # where np.longdouble has no 64-bit significand, or words are not
    # little-endian, every cell is repr's
    x = repr_corpus(seed=1)[::50][: 3 * 6000].reshape(-1, 3)
    monkeypatch.setattr(io_datasets, "_DIGIT_PATH", False)
    save_csv(tmp_path / "t.csv", x.T)
    assert (tmp_path / "t.csv").read_bytes() == repr_lines(x)


def test_save_csv_formats_reconstructions_without_repr(tmp_path, monkeypatch):
    # on a fitted bumps model's reconstruction table fewer than 5% of the
    # cells take repr: a formatter that always fell back would pass every
    # byte test and lose its speed
    m = bumps_model(n=60, q=5)
    points = preimage_codes(m, project_inputs(m, bump_images(200, seed=3)), PreimageConfig(epsilon=0.06))
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(io_datasets, "repr", counting_repr, raising=False)
    save_csv(tmp_path / "t.csv", points)
    assert len(calls) < 0.05 * points.size
    assert (tmp_path / "t.csv").read_bytes() == repr_lines(points.T)


def test_save_csv_working_set_is_one_chunk(tmp_path):
    # the traced peak of writing a 500 x 500 table is one chunk's buffers
    # and temporaries, whatever the table's size
    x = np.random.default_rng(5).standard_normal((500, 500))
    tracemalloc.start()
    try:
        save_csv(tmp_path / "t.csv", x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= io_datasets._FORMAT_BYTES


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
    dm = fit_dual(KernelSpec("rbf", 2.0), TrainingSet.from_columns(x), q=3)
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
    assert back.spec == dm.spec and back.tail == dm.tail
    npt.assert_array_equal(back.a, dm.a)
    npt.assert_array_equal(back.eigenvalues, dm.eigenvalues)
    npt.assert_array_equal(back.e, dm.e)
    npt.assert_array_equal(back.means, dm.means)
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
    lam, s2, tail = dm.eigenvalues, dm.sigma2, dm.tail
    return [
        ("HYPR", struct.pack("<Idd", 40, s2, tail), "q=40 outside 1..N=7"),
        ("HYPR", struct.pack("<Idd", 0, s2, tail), "q=0 outside"),
        ("HYPR", struct.pack("<Idd", 5, s2, tail), "EVAL has shape (3,), expected (5,)"),
        ("HYPR", struct.pack("<Idd", 3, -1.0, tail), "sigma2=-1.0"),
        ("HYPR", struct.pack("<Idd", 3, float("nan"), tail), "sigma2=nan"),
        ("HYPR", struct.pack("<Idd", 3, s2, -1.0), "tail=-1.0"),
        ("HYPR", struct.pack("<Id", 3, s2), "payload ends prematurely"),
        ("EVAL", pack_vector(lam[[1, 0, 2]]), "descending"),
        ("EVAL", pack_vector(np.where(lam == lam[0], np.inf, lam)), "finite"),
        ("EVEC", pack_matrix(dm.e[:, :2]), "EVEC has shape (7, 2), expected (7, 3)"),
        ("EVEC", pack_matrix(np.where(dm.e == dm.e[0, 0], 1e30, dm.e)), "EVEC has an entry beyond 1"),
        ("GMNS", pack_vector(dm.means[:-1]), "GMNS has shape (7,), expected (8,)"),
        ("GMNS", pack_vector(np.full(8, np.nan)), "GMNS holds NaN"),
        ("TSET", pack_matrix(dm.ts.points[:5]), "EVEC has shape (7, 3), expected (5, 3)"),
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


def test_every_section_carries_a_crc32(tmp_path, rng):
    pm, dm = fitted_models(rng)
    for model in (pm, dm):
        path = tmp_path / "m.kppca"
        save_model(path, model)
        blob = bytearray(path.read_bytes())
        pos = 11
        while pos < len(blob):
            (length,) = struct.unpack_from("<Q", blob, pos + 4)
            end = pos + 12 + length
            assert struct.unpack_from("<I", blob, end)[0] == zlib.crc32(blob[pos:end])
            pos = end + 4
        blob[-5] ^= 0x10  # last payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile, match="CRC32"):
            load_model(path)


def write_v1_dual(path, spec, ts, q):
    """A version 1 dual model file, from the full eigendecomposition: no
    CRC32, the whole spectrum, N x N eigenvectors, loadings and KCMT."""
    kc = center_gram(SymMatrix(gram(spec, ts))).entries
    eig = sym_eig(center_gram(SymMatrix(gram(spec, ts))))
    lam, e = eig.eigenvalues, eig.eigenvectors
    sigma2 = sigma2_ml(lam, q, ts.n)
    a = e[:, :q] * np.sqrt(np.maximum(1.0 / ts.n - sigma2 / lam[:q], 0.0))
    family, gamma = (0, 0.0) if spec.family == "linear" else (1, spec.gamma)
    sections = [("HYPR", struct.pack("<Id", q, sigma2)), ("KSPC", struct.pack("<Bd", family, gamma)),
                ("EVAL", pack_vector(lam)), ("EVEC", pack_matrix(e)), ("AMAT", pack_matrix(a)),
                ("KCMT", pack_matrix(kc)), ("TSET", pack_matrix(ts.points))]
    blob = b"KPPCA\x00" + struct.pack("<I", 1) + b"D"
    for tag, payload in sections:
        blob += tag.encode("ascii") + struct.pack("<Q", len(payload)) + payload
    path.write_bytes(blob)
    return lam


def test_version_1_file_loads_as_v2_model(tmp_path, rng):
    spec = KernelSpec("rbf", 0.8)
    ts = TrainingSet.from_columns(two_arcs(15, seed=5))
    lam = write_v1_dual(tmp_path / "v1.kppca", spec, ts, q=3)
    old = load_model(tmp_path / "v1.kppca")
    new = fit_dual(spec, ts, q=3)
    assert old.q == 3 and old.e.shape == (15, 3)
    npt.assert_allclose(old.sigma2, new.sigma2, rtol=1e-12)
    npt.assert_allclose(old.tail, lam[3:].sum(), rtol=1e-14)
    npt.assert_allclose(old.means, new.means, rtol=1e-14)
    probes = rng.standard_normal((6, 2))
    h_old = dual_latent_map(old, centered_kernel_vectors(spec, ts, old.means, probes))
    h_new = dual_latent_map(new, centered_kernel_vectors(spec, ts, new.means, probes))
    aligned, _ = align_columns(h_new.T, h_old.T)
    npt.assert_allclose(aligned, h_new.T, atol=1e-10)
    # saving writes version 2, which reloads bit for bit
    save_model(tmp_path / "v2.kppca", old)
    assert struct.unpack_from("<I", (tmp_path / "v2.kppca").read_bytes(), 6)[0] == 2
    npt.assert_array_equal(load_model(tmp_path / "v2.kppca").e, old.e)


def test_version_1_sections_must_agree(tmp_path):
    spec = KernelSpec("rbf", 0.8)
    ts = TrainingSet.from_columns(two_arcs(6, seed=5))
    path = tmp_path / "v1.kppca"
    lam = write_v1_dual(path, spec, ts, q=2)
    blob = path.read_bytes()
    tag = blob.index(b"EVAL")
    doubled = pack_vector(2.0 * lam)
    path.write_bytes(blob[: tag + 12] + doubled + blob[tag + 12 + len(doubled):])
    with pytest.raises(CorruptFile, match="EVAL does not sum to the trace of KCMT"):
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
