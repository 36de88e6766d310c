import csv
import json
import re
import struct
import tracemalloc
import warnings
import zlib
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kppca import (
    KernelSpec,
    PreimageConfig,
    TrainingSet,
    explained_variance,
    fit_dual,
    fit_primal,
    load_csv,
    load_mnist_idx,
    load_model,
    save_csv,
    save_model,
    two_arcs,
)
from kppca import __version__, _decimal_reader, io_datasets
from kppca.cli import main
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

from conftest import (
    bump_images,
    bumps_model,
    framed,
    model_sections,
    pack_matrix,
    pack_vector,
    rewrite_section,
)

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
    # the decimal reader's edges: a tie, a 25-digit mantissa, out-of-range exponents
    st.sampled_from(["1.", ".5", "-.5", "+1e+5", "1E-0", "007", "9007199254740993",
                     "1234567890123456789012345", "1e400", "1e-400", "-0"]),
)
# cells float() takes and numpy's tokenizer refuses, or the reverse
FALLBACK_CELLS = st.sampled_from(['"1.5"', '" 2 "', "1_0", "\uff11\uff12", "\u0663", "1\x1c", "\x1f2"])
BAD_CELLS = st.one_of(
    st.sampled_from(["", " ", "#", "#1", "x", "--1", "0x10", '"', "1 2", "nan0", "1e"]),
    st.sampled_from(["1.2.3", "1e5e5", "-+1"]),
)
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


@given(csv_texts())
@settings(max_examples=300, deadline=None)
def test_load_csv_without_the_digit_path_matches(tmp_path_factory, text):
    # where np.longdouble has no 64-bit significand, or words are not
    # little-endian, every file takes the text path: same bits, layout or error
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    outcome = csv_outcome(load_csv, path)
    with mock.patch.object(io_datasets, "_DIGIT_PATH", False):
        assert csv_outcome(load_csv, path) == outcome == csv_outcome(reference_load_csv, path)


def refuse_text_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a well-formed numeric table left the decimal reader")

    monkeypatch.setattr(io_datasets, "_read_text", refuse)


def test_load_csv_reads_a_million_values_as_float(tmp_path, monkeypatch):
    # every finite cell of the corpus, written as repr, as %.17g and as %.6e,
    # in rows of 7 and in one row wider than a piece, reads back with
    # float()'s bits and today's layout, a d x N view of an N x d array
    refuse_text_path(monkeypatch)
    x = repr_corpus()
    x = x[np.isfinite(x)]
    wide = _decimal_reader._PIECE_BYTES // 8 + 3  # more cells and bytes than a piece holds
    for fmt in (repr, "%.17g".__mod__, "%.6e".__mod__):
        cells = list(map(fmt, x.tolist()))
        expected = np.array(list(map(float, cells)))
        for width, count in ((7, x.size // 7 * 7), (wide, wide)):
            text = "".join(",".join(cells[i : i + width]) + "\n" for i in range(0, count, width))
            (tmp_path / "t.csv").write_text(text)
            got = load_csv(tmp_path / "t.csv")
            assert got.shape == (width, count // width) and got.strides == (8, 8 * width)
            assert got.T.flags.c_contiguous
            assert np.array_equal(got.T.ravel().view(np.uint64), expected[:count].view(np.uint64))


def test_load_csv_reads_a_17g_table_without_the_text_path(tmp_path, monkeypatch):
    # the way perfbench writes its inputs: a header, then %.17g cells; fewer
    # than 1% of them reach float(), and neither np.loadtxt nor the cell
    # parser runs
    images = bump_images(100, side=28, seed=4)
    p = tmp_path / "t.csv"
    header = ",".join(f"x{j + 1}" for j in range(images.shape[1]))
    np.savetxt(p, images, fmt="%.17g", delimiter=",", header=header, comments="")
    expected = reference_load_csv(p)
    calls = []

    def counting_float(value):
        calls.append(value)
        return float(value)

    def refuse(*args, **kwargs):
        raise AssertionError("a well-formed numeric table reached the text path")

    monkeypatch.setattr(io_datasets.np, "loadtxt", refuse)
    monkeypatch.setattr(io_datasets, "_parse_cells", refuse)
    monkeypatch.setattr(_decimal_reader, "float", counting_float, raising=False)
    got = load_csv(p)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert len(calls) < 0.01 * images.size


def test_load_csv_working_set_is_one_piece(tmp_path):
    # the traced peak of reading a 500 x 500 table is the file, the result
    # and one piece's buffers and temporaries, whatever the table's size
    x = np.random.default_rng(5).standard_normal((500, 500))
    save_csv(tmp_path / "t.csv", x)
    size = (tmp_path / "t.csv").stat().st_size
    load_csv(tmp_path / "t.csv")  # the reader's tables, built once
    tracemalloc.start()
    try:
        load_csv(tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= size + x.nbytes + _decimal_reader._READ_BYTES


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


def save_reconstructions(path, monkeypatch):
    """Writes a fitted bumps model's reconstruction table with save_csv;
    returns the table and the cells save_csv handed to repr."""
    m = bumps_model(n=60, q=5)
    points = preimage_codes(m, project_inputs(m, bump_images(200, seed=3)), PreimageConfig(epsilon=0.06))
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(io_datasets, "repr", counting_repr, raising=False)
    save_csv(path, points)
    return points, calls


def test_save_csv_formats_reconstructions_without_repr(tmp_path, monkeypatch):
    # on a fitted bumps model's reconstruction table fewer than 5% of the
    # cells take repr: a formatter that always fell back would pass every
    # byte test and lose its speed
    points, calls = save_reconstructions(tmp_path / "t.csv", monkeypatch)
    assert len(calls) < 0.05 * points.size
    assert (tmp_path / "t.csv").read_bytes() == repr_lines(points.T)


def test_save_csv_settles_ties_exactly(tmp_path, monkeypatch):
    # an apparent tie at the last digit is settled in exact integer
    # arithmetic, so fewer than 0.3% of the same table's cells take repr
    points, calls = save_reconstructions(tmp_path / "t.csv", monkeypatch)
    assert len(calls) < 0.003 * points.size
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


def test_idx_header_beyond_the_stream(tmp_path):
    # a header may declare more bytes than fit in an index or in memory; the
    # reader takes what the file holds and reports it as truncated
    _, lab = write_idx_pair(tmp_path, np.zeros((1, 1, 1)), [0])
    img = tmp_path / "huge.idx3"
    for count, rows, cols in ((0xFFFFFFFF,) * 3, (1 << 20, 1 << 10, 1 << 10)):
        img.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, rows, cols))
        with pytest.raises(Truncated, match=f"expected {count * rows * cols} bytes, got 0"):
            load_mnist_idx(img, lab)


# --- model container -------------------------------------------------------


def fitted_model():
    return fit_dual(KernelSpec("rbf", 2.0), TrainingSet.from_columns(two_arcs(7, seed=11)), q=3)


def test_model_roundtrip_bitwise(tmp_path):
    path, second = tmp_path / "d.kppca", tmp_path / "2d.kppca"
    save_model(path, fitted_model())
    save_model(second, load_model(path))
    assert path.read_bytes() == second.read_bytes()


def test_model_roundtrip_fields(tmp_path):
    dm = fitted_model()
    save_model(tmp_path / "d.kppca", dm)
    back = load_model(tmp_path / "d.kppca")
    assert back.q == dm.q and back.sigma2 == dm.sigma2
    assert back.spec == dm.spec and back.tail == dm.tail
    npt.assert_array_equal(back.a, dm.a)
    npt.assert_array_equal(back.eigenvalues, dm.eigenvalues)
    npt.assert_array_equal(back.e, dm.e)
    npt.assert_array_equal(back.means, dm.means)
    npt.assert_array_equal(back.ts.points, dm.ts.points)


def test_model_version_mismatch(tmp_path):
    path = tmp_path / "d.kppca"
    save_model(path, fitted_model())
    blob = bytearray(path.read_bytes())
    blob[6:10] = struct.pack("<I", 42)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_model(path)


def write_primal_file(path, pm, version):
    """A primal model file as earlier builds wrote it: kind byte P and the
    sections HYPR, MEAN, WMAT, EVAL and VMAT, with a CRC32 per section in
    version 2."""
    sections = [("HYPR", struct.pack("<Id", pm.q, pm.sigma2)), ("MEAN", pack_vector(pm.mu)),
                ("WMAT", pack_matrix(pm.w)), ("EVAL", pack_vector(pm.eigenvalues)),
                ("VMAT", pack_matrix(pm.v))]
    blob = b"KPPCA\x00" + struct.pack("<I", version) + b"P"
    for tag, payload in sections:
        head = tag.encode("ascii") + struct.pack("<Q", len(payload))
        blob += head + payload + (struct.pack("<I", zlib.crc32(head + payload)) if version == 2 else b"")
    path.write_bytes(blob)


def test_model_corrupt_file(tmp_path):
    path = tmp_path / "d.kppca"
    save_model(path, fitted_model())
    blob = path.read_bytes()
    path.write_bytes(b"NOTME" + blob[5:])
    with pytest.raises(CorruptFile):
        load_model(path)
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptFile):
        load_model(path)
    # the dual model is the only kind: a primal model file is refused
    x = two_arcs(7, seed=11)
    data = tmp_path / "x.csv"
    save_csv(data, x)
    for version, error, msg in ((1, VersionMismatch, "version 1"),
                                (2, CorruptFile, "unknown model kind b'P'")):
        write_primal_file(path, fit_primal(x, q=2), version)
        with pytest.raises(error, match=msg):
            load_model(path)
        assert main(["project", "--model", str(path), "--data", str(data),
                     "--out", str(tmp_path / "p")]) == 3
        assert main(["report", "--model", str(path), "--out", str(tmp_path / "r")]) == 3
    # a CRC-valid kernel section whose bandwidth KernelSpec refuses: 2 gamma^2
    # overflows float64
    save_model(path, fitted_model())
    rewrite_section(path, "KSPC", struct.pack("<Bd", 1, 1e300))
    with pytest.raises(CorruptFile, match="rbf bandwidth 1e[+]300"):
        load_model(path)
    assert main(["project", "--model", str(path), "--data", str(data), "--out", str(tmp_path / "p")]) == 3
    assert main(["report", "--model", str(path), "--out", str(tmp_path / "r")]) == 3


def _dual_sections(dm):
    # fitted_model(): N = 7 two-arcs points in 2-D, q = 3
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
        ("KSPC", struct.pack("<Bd", 0, 5.0), "linear kernel takes no bandwidth"),
    ]


def test_model_sections_must_agree(tmp_path):
    dm = fitted_model()
    for i, (tag, payload, msg) in enumerate(_dual_sections(dm)):
        path = tmp_path / f"d{i}.kppca"
        save_model(path, dm)
        load_model(path)
        rewrite_section(path, tag, payload)
        with pytest.raises(CorruptFile, match=re.escape(msg)):
            load_model(path)


def _layout_faults(blob):
    # (file, message) pairs: a model file whose sections are framed and
    # checksummed but not laid out as the one fixed order of the six sections
    top, secs = blob[:11], model_sections(blob)
    hypr, kspc, evals, evec, gmns, tset = secs
    huge = struct.pack("<II", 1 << 20, 1 << 10)  # 8 GiB of training points
    return [
        (top + framed([hypr, kspc, evec, evals, gmns, tset]), "section b'EVEC' where section EVAL belongs"),
        (top + framed([hypr, [b"NOTE", b"x"], *secs[1:]]), "section b'NOTE' where section KSPC belongs"),
        (top + framed([hypr, hypr, *secs[1:]]), "section b'HYPR' where section KSPC belongs"),
        (top + framed(secs[:5]), "file ends before section TSET"),
        (blob + b"\0", "bytes after the last section"),
        (top + framed([hypr, kspc, [b"EVAL", evals[1] + bytes(8)], *secs[3:]]),
         "section EVAL length 36 disagrees with its shape (3,)"),
        (top + framed([hypr, kspc, [b"EVAL", evals[1][:-8]], *secs[3:]]),
         "section EVAL length 20 disagrees with its shape (3,)"),
        (top + framed(secs[:5]) + b"TSET" + struct.pack("<Q", 8 + 8 * (1 << 30)) + huge + bytes(64),
         "section TSET longer than file"),
    ]


def test_model_sections_come_in_one_order(tmp_path):
    # each of the six sections exactly once, in the order save_model writes;
    # a file that differs from it is refused, and the CLI exits 3 on it
    path, data, out = tmp_path / "m.kppca", tmp_path / "x.csv", str(tmp_path / "out")
    save_model(path, fitted_model())
    save_csv(data, two_arcs(7, seed=11))
    for blob, msg in _layout_faults(path.read_bytes()):
        path.write_bytes(blob)
        with pytest.raises(CorruptFile, match=re.escape(msg)):
            load_model(path)
        assert main(["project", "--model", str(path), "--data", str(data), "--out", out]) == 3
        assert main(["report", "--model", str(path), "--out", out]) == 3


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_save_model_writes_arrays_from_their_buffers(tmp_path):
    # no copy of a payload: the traced peak is the file object's buffers,
    # whatever the model's size (a 96 KB file here)
    path, model = tmp_path / "m.kppca", bumps_model(n=300)
    save_model(path, model)  # warm-up: first-call caches are not the container's
    peak, _ = _traced_peak(lambda: save_model(path, model))
    assert peak <= 64 << 10, f"save_model traced {peak} bytes for a {path.stat().st_size}-byte file"


def test_load_model_reads_each_payload_once(tmp_path):
    # each array is read into the memory the model keeps: the traced peak
    # is the model and the checks' temporaries
    path, model = tmp_path / "m.kppca", bumps_model(n=300)
    save_model(path, model)
    load_model(path)  # warm-up
    peak, back = _traced_peak(lambda: load_model(path))
    size = path.stat().st_size
    assert peak <= 1.25 * size, f"load_model traced {peak} bytes for a {size}-byte file"
    npt.assert_array_equal(back.ts.points, model.ts.points)


def test_every_section_carries_a_crc32(tmp_path):
    path = tmp_path / "m.kppca"
    save_model(path, fitted_model())
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


def test_version_1_file_is_refused(tmp_path, capsys):
    # only version 2 is read: every command refuses a version 1 file with
    # one line that says to re-fit, and exit 3
    path = tmp_path / "v1.kppca"
    payload = struct.pack("<Id", 2, 0.1)
    path.write_bytes(b"KPPCA\x00" + struct.pack("<I", 1) + b"D" + b"HYPR" + struct.pack("<Q", 12) + payload)
    with pytest.raises(VersionMismatch, match="version 1.*re-fit"):
        load_model(path)
    data = tmp_path / "x.csv"
    save_csv(data, two_arcs(7, seed=11))
    for args in (["project", "--data", str(data)], ["reconstruct", "--data", str(data)],
                 ["generate", "--count", "2"], ["report"]):
        capsys.readouterr()
        assert main([*args, "--model", str(path), "--out", str(tmp_path / args[0])]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "re-fit" in err


def test_save_model_rejects_other_types(tmp_path):
    for model in (object(), fit_primal(two_arcs(7, seed=11), q=2)):
        with pytest.raises(TypeError):
            save_model(tmp_path / "x", model)


# --- metadata -------------------------------------------------------------


def test_metadata_sidecar(tmp_path):
    # every command writes the same provenance keys; generate adds its seed
    data, out = tmp_path / "x.csv", tmp_path / "m"
    save_csv(data, two_arcs(20, seed=0))
    assert main(["fit", "--data", str(data), "--kernel", "rbf", "--gamma", "2", "--q", "3",
                 "--out", str(out)]) == 0
    assert main(["generate", "--model", str(out / "model.kppca"), "--count", "4", "--seed", "9",
                 "--out", str(tmp_path / "g")]) == 0
    model = load_model(out / "model.kppca")
    for path, seed, command in ((out / "model.meta.json", None, "fit"),
                                (tmp_path / "g" / "generate.meta.json", 9, "generate")):
        payload = json.loads(path.read_text())
        assert payload["seed"] == seed
        assert payload["kernel"] == {"family": "rbf", "gamma": 2.0}
        assert payload["q"] == 3 and payload["sigma2"] == model.sigma2
        assert payload["explained_variance"] == explained_variance(model)
        assert payload["command"] == command
        assert "timestamp" in payload and payload["tool_version"] == __version__
