import csv
import decimal
import gzip
import json
import math
import os
import re
import struct
import tracemalloc
import warnings
import zlib
from fractions import Fraction
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kppca import (
    KernelSpec,
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
from kppca import __version__, _decimal, io_datasets
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


@pytest.mark.parametrize("text, expected", [
    ("1.5,2\n3,4\n", [[1.5, 3.0], [2.0, 4.0]]),
    ("1.5\n3.0\n4.0\n", [[1.5, 3.0, 4.0]]),
    ("x,y\n1.5,2\n", [[1.5], [2.0]]),
], ids=["two_columns", "one_column", "header"])
@pytest.mark.parametrize("end", ["\n", "\r"], ids=["decimal_reader", "text_path"])
def test_load_csv_ignores_a_byte_order_mark(tmp_path, text, expected, end):
    # spreadsheet "CSV UTF-8" exports start with one
    p = tmp_path / "t.csv"
    p.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", end).encode("ascii"))
    npt.assert_array_equal(load_csv(p), expected)


LONG_CELL = "1" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("text, row", [
    (f"{LONG_CELL},2\n3,4\n", 1),
    (f"1,2\n3,{LONG_CELL}\n", 2),
    (f"x,y\n1,{LONG_CELL}\n", 2),
    (f"1,2\r\n\r\n3,4\r\n{LONG_CELL},6\r\n", 3),
], ids=["row_1", "row_2", "after_header", "crlf_row_3"])
def test_load_csv_locates_a_cell_over_the_field_limit(tmp_path, text, row):
    # csv refuses a cell over csv.field_size_limit() without saying where;
    # the error names its row, counting non-blank rows as a bad number's does
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode("ascii"))
    with pytest.raises(ParseError, match=rf"field limit \(\d+\) \(row {row}\)$") as err:
        load_csv(p)
    assert err.value.row == row


def test_load_csv_ragged(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(RaggedRows):
        load_csv(p)


def test_load_csv_text_path_locates_errors_after_a_two_line_header(tmp_path):
    # a quoted newline makes the header one row over two lines: rows count
    # csv rows, not lines, in the text path's tables (CRLF rows included)
    p = tmp_path / "t.csv"
    p.write_bytes(b'"a\nb",c\n1,2\n3,x\n')
    with pytest.raises(ParseError) as err:
        load_csv(p)
    assert (err.value.row, err.value.col) == (3, 2)
    p.write_bytes(b'"a\nb",c\r\n1,2\r\n3,4e-1\r\n')
    assert np.array_equal(load_csv(p), [[1.0, 3.0], [2.0, float("4e-1")]])
    p.write_bytes(b"1,2\r\n3\r\n")
    with pytest.raises(RaggedRows, match=r"row 2 has 1 fields, expected 2$"):
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
# cells outside the decimal reader's grammar: ones float() takes, and ones
# it refuses although str.isspace() calls their extra character whitespace
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
def test_load_csv_well_formed_table_skips_cell_parser(tmp_path, text):
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode("utf-8"))
    npt.assert_array_equal(load_csv(p), reference_load_csv(p))


@given(csv_texts())
@settings(max_examples=300, deadline=None)
def test_load_csv_without_the_digit_path_matches(tmp_path_factory, text):
    # where np.longdouble has no 64-bit significand, or words are not
    # little-endian, every file takes the text path: same bits, layout or
    # error, and the decimal reader never runs
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    outcome = csv_outcome(load_csv, path)
    refuse = mock.Mock(side_effect=AssertionError("the decimal reader ran with _DIGIT_PATH off"))
    with (mock.patch.object(_decimal, "_DIGIT_PATH", False),
          mock.patch.object(_decimal, "_table_shape", refuse),
          mock.patch.object(_decimal, "_DecimalReader", refuse)):
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
    wide = _decimal._PIECE_BYTES // 8 + 3  # more cells and bytes than a piece holds
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


@pytest.mark.skipif(not _decimal._DIGIT_PATH, reason="np.longdouble has no 64-bit significand")
def test_pow10_table_is_ten_to_the_k_rounded_to_nearest_even():
    # every entry against 10**k rounded exactly to a 64-bit significand,
    # ties to even; no k in range carries into a 65th bit, so the table
    # needs no carry step
    ks = range(_decimal._K_LO, _decimal._K_HI + 1)
    table = _decimal._pow10_longdouble()
    assert table.size == len(ks) == 636
    mismatches = carries = 0
    for k, got in zip(ks, table):
        x = Fraction(10) ** k
        e = x.numerator.bit_length() - x.denominator.bit_length() - 63
        if x < Fraction(2) ** (e + 63):
            e -= 1  # now 2**63 <= x / 2**e < 2**64
        sig = round(x / Fraction(2) ** e)  # Fraction rounds half to even
        if sig == 1 << 64:
            sig, e, carries = sig >> 1, e + 1, carries + 1
        mismatches += Fraction(*got.as_integer_ratio()) != sig * Fraction(2) ** e
    assert (mismatches, carries) == (0, 0)


@pytest.mark.skipif(not _decimal._DIGIT_PATH, reason="np.longdouble has no 64-bit significand")
def test_load_csv_near_float64_halfway_points(tmp_path, monkeypatch):
    # cells at a float64 rounding tie and 1..4 longdouble units (2**-11 of
    # a float64 unit) either side of one, written with 17, 18 and 19
    # digits: each reads as float() reads it, whether the reader certifies
    # its rounding or hands it to float(), which every cell within a unit
    # of the tie must reach
    values = np.random.default_rng(11).standard_normal(200) * 10.0 ** np.linspace(-300, 300, 200)
    cells, near = [], set()
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # every float64 and its midpoints exactly
        for v in values.tolist():
            unit = decimal.Decimal(math.ulp(v)) / 2048
            tie = decimal.Decimal(v) + 1024 * unit
            for j in range(-4, 5):
                for digits in (17, 18, 19):
                    cells.append(f"{tie + j * unit:.{digits - 1}e}")
                    if abs(decimal.Decimal(cells[-1]) - tie) < unit:
                        near.add(cells[-1].encode())
    (tmp_path / "t.csv").write_text("".join(",".join(cells[i : i + 3]) + "\n" for i in range(0, len(cells), 3)))
    calls = []

    def counting_float(value):
        calls.append(value)
        return float(value)

    refuse_text_path(monkeypatch)
    monkeypatch.setattr(_decimal, "float", counting_float, raising=False)
    got = load_csv(tmp_path / "t.csv")
    expected = np.array([float(c) for c in cells])
    assert np.array_equal(got.T.ravel().view(np.uint64), expected.view(np.uint64))
    assert len(near) > 100 and near <= set(calls) and len(calls) < 0.75 * len(cells)


def test_load_csv_reads_a_17g_table_without_the_text_path(tmp_path, monkeypatch):
    # the way perfbench writes its inputs: a header, then %.17g cells; fewer
    # than 1% of them reach float(), and the text path does not run
    images = bump_images(100, side=28, seed=4)
    p = tmp_path / "t.csv"
    header = ",".join(f"x{j + 1}" for j in range(images.shape[1]))
    np.savetxt(p, images, fmt="%.17g", delimiter=",", header=header, comments="")
    expected = reference_load_csv(p)
    calls = []

    def counting_float(value):
        calls.append(value)
        return float(value)

    refuse_text_path(monkeypatch)
    monkeypatch.setattr(_decimal, "float", counting_float, raising=False)
    got = load_csv(p)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert len(calls) < 0.01 * images.size


def write(path, data):
    path.write_bytes(data)
    return path


def test_load_csv_reads_crlf_rows_without_the_text_path(tmp_path, monkeypatch):
    # rows ended by CRLF, as spreadsheets on Windows export them, read bit
    # for bit as their LF copy does, on the decimal reader: repr cells in
    # rows of 7 under a byte-order mark and a header; and 1-digit rows,
    # whose first piece ends between a CR and its LF (3 bytes a row)
    x = repr_corpus()[::10]
    x = x[np.isfinite(x)]
    x = x[: x.size // 7 * 7].reshape(-1, 7)
    lf = b"\xef\xbb\xbfa,b,c,d,e,f,g\n" + repr_lines(x)
    digits = "".join(str(d % 10) + "\n" for d in range(60_000)).encode("ascii")
    assert _decimal._PIECE_BYTES % 3 == 2 and x.size > 50_000
    expected = [io_datasets._read_text(p) for p in (write(tmp_path / "a.csv", lf), write(tmp_path / "b.csv", digits))]
    refuse_text_path(monkeypatch)
    for text, table in zip((lf, digits), expected):
        for end in (b"\n", b"\r\n"):
            got = load_csv(write(tmp_path / "t.csv", text.replace(b"\n", end)))
            assert np.array_equal(got.T.view(np.uint64), table.view(np.uint64))


@pytest.mark.parametrize("text", [b"1,2\r\n3,4\r5,6\r\n", b"1,2\n3,4\r\n5,6\n", b"1,2\r3,4\r5,6\r"],
                         ids=["lone_cr", "crlf_after_lf", "cr_ends"])
def test_load_csv_sends_other_crs_to_the_text_path(tmp_path, monkeypatch, text):
    # a CR anywhere but right before an LF in a file whose first line ends
    # in CRLF: the text path reads the file, as csv splits its rows
    calls, read_text = [], io_datasets._read_text
    monkeypatch.setattr(io_datasets, "_read_text", lambda path: calls.append(path) or read_text(path))
    assert np.array_equal(load_csv(write(tmp_path / "t.csv", text)), [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    assert len(calls) == 1


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
    assert peak <= size + x.nbytes + _decimal._READ_BYTES


def test_load_csv_rejects_undecodable_bytes(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"1,2\n3,\xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(p)


@pytest.mark.parametrize("data, offset", [
    pytest.param(b"1,2\r\n" * 4000 + b"3,\xff\n", 20_002, id="past_the_decoders_first_chunk"),
    pytest.param(b"\xef\xbb\xbf1,2\n3,\xff\n", 9, id="after_a_byte_order_mark"),
])
def test_load_csv_names_the_undecodable_byte_from_the_start_of_the_file(tmp_path, data, offset):
    p = tmp_path / "t.csv"
    p.write_bytes(data)
    with pytest.raises(ParseError, match=rf"not UTF-8 text \(byte {offset}\)$"):
        load_csv(p)


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="no /dev/fd")
def test_load_csv_from_a_pipe_rejects_undecodable_bytes():
    # a pipe cannot say where the bad byte lies; the error still says what
    r, w = os.pipe()
    os.write(w, b"1,2\n3,\xff\n")
    os.close(w)
    try:
        with pytest.raises(ParseError, match=r"not UTF-8 text$"):
            load_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)


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
    wide = _decimal._CHUNK_CELLS * 2 + 3
    for table in (x[: x.size // 7 * 7].reshape(-1, 7), x[:wide].reshape(1, -1)):
        save_csv(tmp_path / "t.csv", table.T)
        assert (tmp_path / "t.csv").read_bytes() == repr_lines(table)


def test_chunk_and_piece_sizes_do_not_change_the_outputs(tmp_path, monkeypatch):
    # save_csv's bytes and load_csv's bits do not depend on how many cells
    # a chunk or a piece holds: rows of 20 cells of every kind, in chunks
    # of 7 cells and pieces of 13, come out as with the module's sizes
    refuse_text_path(monkeypatch)
    x = repr_corpus()[::170][: 20 * 300].reshape(-1, 20)
    finite = np.where(np.isfinite(x), x, 0.0)
    outputs = []
    for chunk, piece in ((_decimal._CHUNK_CELLS, _decimal._PIECE_CELLS), (7, 13)):
        monkeypatch.setattr(_decimal, "_CHUNK_CELLS", chunk)
        monkeypatch.setattr(_decimal, "_PIECE_CELLS", piece)
        save_csv(tmp_path / "t.csv", x.T)
        save_csv(tmp_path / "finite.csv", finite.T)
        outputs.append(((tmp_path / "t.csv").read_bytes(), load_csv(tmp_path / "finite.csv").view(np.uint64)))
    (written, read), (small_written, small_read) = outputs
    assert small_written == written == repr_lines(x)
    assert np.array_equal(small_read, read) and np.array_equal(read.T, finite.view(np.uint64))


def count_repr_calls(monkeypatch):
    """The list of the cells that _decimal hands to repr from now on."""
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(_decimal, "repr", counting_repr, raising=False)
    return calls


def test_save_csv_without_the_digit_path_is_all_repr(tmp_path, monkeypatch):
    # where np.longdouble has no 64-bit significand, or words are not
    # little-endian, every cell is repr's: repr writes each one but the
    # zeros, whose bytes need no digits
    x = repr_corpus(seed=1)[::50][: 3 * 6000].reshape(-1, 3)
    monkeypatch.setattr(_decimal, "_DIGIT_PATH", False)
    calls = count_repr_calls(monkeypatch)
    save_csv(tmp_path / "t.csv", x.T)
    assert (tmp_path / "t.csv").read_bytes() == repr_lines(x)
    assert len(calls) == np.count_nonzero(x)


def test_save_csv_settles_apparent_ties_without_repr(tmp_path, monkeypatch):
    # Y = |x| 10**s exactly halfway between two integers (x = o / 2**(s+1),
    # o odd), or within 2**-8 of halfway: x's bits settle which integer is
    # nearer, and an exact tie goes to the even one, as repr does
    rng = np.random.default_rng(3)
    s = np.repeat(np.arange(1, 21), 20)
    o = rng.integers(2 ** (s + 1) * 10 ** (16.0 - s) / 2, np.minimum(2 ** (s + 1) * 10 ** (17.0 - s), 2**53) / 2)
    candidates = np.concatenate([(2 * o + 1) / 2.0 ** (s + 1), 10 ** rng.uniform(-10, 15, 40_000)])

    def fraction(v):
        return Fraction(v) * Fraction(10) ** (16 - int(np.floor(np.log10(v)))) % 1

    x = np.array([v for v in candidates.tolist() if abs(fraction(v) - Fraction(1, 2)) <= Fraction(1, 256)])
    assert np.count_nonzero([fraction(v) == Fraction(1, 2) for v in x.tolist()]) >= 300 and x.size >= 500
    x[::2] *= -1
    calls = count_repr_calls(monkeypatch)
    save_csv(tmp_path / "t.csv", x.reshape(-1, 1))
    assert calls == [] and (tmp_path / "t.csv").read_bytes() == repr_lines(x.reshape(1, -1))


def save_reconstructions(path, monkeypatch):
    """Writes a fitted bumps model's reconstruction table, the CLI's
    clipped one at epsilon 1e-3 N, with save_csv; returns the table and the cells save_csv handed to repr."""
    m = bumps_model(n=60, q=5)
    points = preimage_codes(m, project_inputs(m, bump_images(200, seed=3).T))
    calls = count_repr_calls(monkeypatch)
    save_csv(path, points)
    return points, calls


def test_save_csv_formats_reconstructions_without_repr(tmp_path, monkeypatch):
    # on a fitted bumps model's reconstruction table fewer than 0.2% of the
    # cells take repr (8 of 7,200 measured): a formatter that fell back more
    # often, say at every apparent tie, would pass every byte test and lose
    # its speed
    points, calls = save_reconstructions(tmp_path / "t.csv", monkeypatch)
    assert len(calls) < 0.002 * points.size
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
    assert peak <= _decimal._FORMAT_BYTES


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


def test_idx_gzip_pair(tmp_path, rng):
    images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, [0, 1, 2])
    packed = []
    for path in (img, lab):
        packed.append(path.with_name(path.name + ".gz"))
        packed[-1].write_bytes(gzip.compress(path.read_bytes()))
    x, y = load_mnist_idx(*packed)
    x_raw, y_raw = load_mnist_idx(img, lab)
    npt.assert_array_equal(x, x_raw)
    npt.assert_array_equal(y, y_raw)


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
                ("VMAT", pack_matrix(pm.w / np.linalg.svd(pm.w, compute_uv=False)))]
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
        ("TSET", pack_matrix(np.where(dm.ts.points == dm.ts.points[2, 1], np.nan, dm.ts.points)),
         "training set contains NaN or Inf"),
        ("KSPC", struct.pack("<Bd", 7, 2.0), "kernel family code 7"),
        ("KSPC", struct.pack("<Bd", 1, 0.0), "rbf bandwidth 0.0"),
        ("KSPC", struct.pack("<Bd", 0, 5.0), "linear kernel takes no bandwidth"),
    ]


def test_model_sections_must_agree(tmp_path):
    # CRC-valid sections that disagree are a damaged file, and the CLI
    # exits 3 on them
    dm, data, out = fitted_model(), tmp_path / "x.csv", str(tmp_path / "out")
    save_csv(data, two_arcs(7, seed=11))
    for i, (tag, payload, msg) in enumerate(_dual_sections(dm)):
        path = tmp_path / f"d{i}.kppca"
        save_model(path, dm)
        load_model(path)
        rewrite_section(path, tag, payload)
        with pytest.raises(CorruptFile, match=re.escape(msg)):
            load_model(path)
        assert main(["project", "--model", str(path), "--data", str(data), "--out", out]) == 3
        assert main(["report", "--model", str(path), "--out", out]) == 3


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
