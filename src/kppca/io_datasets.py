"""Data ingestion (CSV tables, MNIST IDX files) and model serialization.

Model container, version 2, all integers and floats little-endian: the
magic b"KPPCA\\0", a u32 version (2) and a kind byte b"D" (the dual model,
the only kind), then the six sections of the table _SECTIONS, each exactly
once and in its order. A section is a 4-byte ascii tag, a u64 payload byte
count, the payload (the section's fixed fields, then its f64 array in row
order) and a u32 zlib.crc32 of tag, count and payload. save_model writes
each array from its own buffer and load_model reads each into the array the
model keeps, so neither holds a second copy of a payload.

A file holds O(N (d_in + q)) numbers. A file of any other version,
version 1 included, raises VersionMismatch: re-fit it with `kppca fit`.

Loading refuses, as CorruptFile, a section that is missing, repeated, out
of order or unknown, a length that disagrees with the section's shape or
exceeds the file, bytes after the last section and a failed CRC32. It then
checks that the sections agree with each other: shapes against N, d_in and
q, 1 <= q <= N, finite sigma2 and tail >= 0, a finite, nonnegative,
descending EVAL, EVEC entries within [-1, 1], and a KSPC that KernelSpec
accepts.
"""

import csv
import gzip
import io
import math
import os
import struct
import sys
import zlib

import numpy as np

from ._decimal_reader import _PIECE_BYTES, _read_table
from .dual import DualModel
from .errors import (
    BadMagic,
    CorruptFile,
    CountMismatch,
    ParseError,
    RaggedRows,
    Truncated,
    VersionMismatch,
)
from .kernels import KernelSpec, TrainingSet

MODEL_MAGIC = b"KPPCA\x00"
MODEL_VERSION = 2
IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
_IDX_CHUNK = 1 << 24


# --- CSV ----------------------------------------------------------------


# loadtxt strips the ASCII information separators U+001C..U+001F around a
# number as whitespace, float() refuses them; tables holding one take the
# cell-by-cell path so that both paths accept exactly the same cells
_LOADTXT_ONLY_WHITESPACE = "\x1c\x1d\x1e\x1f"


def _is_number(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _parse_row(fields, path, rownum):
    out = []
    for j, tok in enumerate(fields):
        try:
            out.append(float(tok))
        except ValueError:
            raise ParseError(f"{path}: not a number: {tok!r}", row=rownum, col=j + 1) from None
    return out


def _parse_cells(lines, path, first_row):
    # cell-by-cell reference parser; the only source of the located errors
    rows = [row for row in csv.reader(lines) if row]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = [_parse_row(row, path, first_row + i) for i, row in enumerate(rows)]
    width = len(data[0])
    for i, row in enumerate(data):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {first_row + i} has {len(row)} fields, expected {width}")
    return np.asarray(data, dtype=float)


# load_csv reads a well-formed decimal table (an optional header line, then
# rows of plain decimal cells) in whole-array steps with _decimal_reader,
# which says which cells it certifies and which it hands to float(). Every
# other file, a pipe, and every file where _DIGIT_PATH is false take the
# text path below.


def _is_header(cells):
    # the first non-blank row is a header, and skipped, when none of its
    # cells is a number
    return not any(map(_is_number, cells))


def _body_start(head):
    # where the rows start in the file's first bytes: 0 when the first line
    # (as far as head holds it) has a number, after it when it is a header
    # (in csv syntax); None when it holds a CR, is blank, or is neither
    eol = head.find(b"\n")
    line = head if eol < 0 else head[:eol]
    if not line or b"\r" in line:
        return None
    try:
        reader = csv.reader([line.decode("utf-8") + "\n", "\n"])
        header = _is_header(next(reader))
    except (UnicodeDecodeError, csv.Error):
        return None
    if reader.line_num != 1 or (header and eol < 0):
        return None
    return eol + 1 if header else 0


def _read_text(path):
    # the text path: csv syntax, numpy's C tokenizer, the reference parser
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    try:
        rows = csv.reader(lines)
        first = next(filter(None, rows), None)
        if first is None:
            raise ParseError(f"{path}: empty file")
        header = _is_header(first)
        body = lines[rows.line_num:] if header else lines
        has_data = not header or next(filter(None, rows), None) is not None
        if has_data and not any(c in line for line in body for c in _LOADTXT_ONLY_WHITESPACE):
            # a well-formed table parses in numpy's C tokenizer; anything it
            # refuses gets the reference parser, which accepts or locates it
            try:
                return np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=float)
            except ValueError:
                pass
        return _parse_cells(body, path, first_row=2 if header else 1)
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_csv(path) -> np.ndarray:
    """Read a numeric table with one sample per row; returns samples as the
    columns of a d x N matrix.

    Blank lines are skipped. The first non-blank row is a header, and is
    skipped, when none of its cells is a number; a row that holds a number
    is data, so a bad cell in it is reported. A cell is a number when
    Python's float() accepts it, also inside csv quotes ("1.5"), and reads
    as float() reads it. Raises ParseError with the row (counting non-blank
    rows from 1) and column of the first cell that is not a number,
    RaggedRows when the rows differ in width, and ParseError for a file that
    is not UTF-8 or has no data row.
    """
    if _DIGIT_PATH:
        with open(path, "rb") as fh:
            # the reader reads a file twice, which a pipe does not allow
            head = fh.read(_PIECE_BYTES) if fh.seekable() else b""
            start = _body_start(head)
            table = None if start is None else _read_table(fh, head[start:])
        if table is not None:
            return table.T
    return _read_text(path).T


# save_csv writes each float as repr does: the shortest decimal that reads
# back to the same float and, of several that short, the one nearest to it,
# laid out by Python's 'r' rules. It formats a chunk of cells at a time in
# whole-array steps, and hands repr each cell whose digits those steps
# cannot certify.
#
# Digits. For finite x != 0 whose scale 10**s is exact in np.longdouble
# (|s| <= 27 with a 64-bit significand, so |x| in about [1e-11, 1e43]),
# Y = |x| 10**s lies in [1e16, 1e17) up to np.log10's error, after one
# rounding of at most 2**-8 (Y < 2**57). The floats that read back as x
# fill the rounding interval around it, of half-widths spacing(x)/2 (the
# lower one halved at a power of two), which scale by 10**s the same way.
# The answer is the multiple of 10**p strictly inside the interval for the
# largest p that has one, the one nearer to Y if two are; its digits are
# that multiple over 10**p. Each comparison that settles p or the choice
# must clear the interval's edge by _SLACK, and a tie (two distances) by
# twice that, or the cell goes to repr, as do non-finite cells, cells out
# of range, and every cell on a platform where np.longdouble has fewer than
# 63 mantissa bits or words are not little-endian.
#
# Layout. A cell's 17 digits, left-aligned, sit at bytes 7..23 of a
# 40-byte source row padded with '0'. Its text is that row shifted so the
# digits start at the cell's digit offset, except that the bytes before
# the decimal point come from the row shifted one byte less, which opens
# the point's slot; both shifts work on whole 64-bit words. The sign, the
# point, an exponent "e+dd" and the separator are then set byte by byte,
# and a boolean index keeps each row's text. Offset and columns come from
# tables indexed by the decimal point decpt (x = 0.ddd * 10**decpt) and
# the digit count nd.

_DIGIT_PATH = np.finfo(np.longdouble).nmant >= 63 and sys.byteorder == "little"
_MAX_SCALE = 27  # 10**27 = 2**27 * 5**27 and 5**27 < 2**63
_SLACK = 2.0**-8 + 2.0**-40  # Y's error, and the half-widths' (< 1e-14)
_POW10 = np.array([10**k for k in range(18)], dtype=np.int64)
_POW5 = np.array([5**k for k in range(_MAX_SCALE + 1)], dtype=np.uint64)
_POW10_LD = np.multiply.accumulate(np.r_[1, np.full(_MAX_SCALE, 10)].astype(np.longdouble))
# Y = |x| * _SCALE_UP[s + 27] / _SCALE_DOWN[s + 27]: one factor is 1
_SCALE_UP = np.r_[np.ones(_MAX_SCALE, np.longdouble), _POW10_LD]
_SCALE_DOWN = np.r_[_POW10_LD[:0:-1], np.ones(_MAX_SCALE + 1, np.longdouble)]
_SCALE_F64 = np.power(10.0, np.arange(-_MAX_SCALE, _MAX_SCALE + 1))
_MANTISSA = np.uint64((1 << 52) - 1)
_LARGEST = np.float64(np.finfo(float).max).view(np.uint64)

_WIDTH = 32  # bytes of a cell's text: a 24-byte repr and its separator fit
_DEC_LO, _DEC_HI = -12, 47  # holds every decpt the digit path gives


def _layout_tables():
    # _DIGITS[g]: the four digits of g as 4 bytes. _BEFORE[:, k]: the text
    # words with bytes 0..k-1 set. _UPTO[k]: text bytes 0..k. Indexed by
    # (decpt - _DEC_LO) * 18 + nd, for a cell without a sign: the digits'
    # offset and the columns of the point, the exponent and the separator.
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8) + ord("0")
    col = np.arange(_WIDTH)
    before = (col < np.arange(_WIDTH + 1)[:, None]).astype(np.uint8) * np.uint8(255)
    d = np.arange(_DEC_LO, _DEC_HI)[:, None]
    nd = np.arange(18)
    fixed = (d > -4) & (d <= 16)  # else d[.ddd]e+XX
    offset = np.where(fixed & (d <= 0), 1 - d, 0) + 0 * nd  # "0.000" before the digits
    point = np.where(fixed & (d > 0), d, 1) + 0 * nd
    exponent = np.where(fixed, np.maximum(nd, d + 1) + 1 + np.maximum(0, 1 - d), nd + (nd > 1))
    sep = np.where(fixed, exponent, exponent + 4)
    return (digits.view(np.uint32).ravel(),
            np.ascontiguousarray(before.view(np.uint64).T), col <= col[:, None],
            *(a.ravel() for a in (offset, point, exponent, sep)))


_DIGITS, _BEFORE, _UPTO, _OFFSET, _POINT, _EXPONENT_AT, _SEP_AT = _layout_tables()

# The cells per chunk: at most _CELL_BYTES of buffers and temporaries a
# cell (measured peak: about 280), so that a chunk stays within
# _FORMAT_BYTES.
_FORMAT_BYTES = 3 << 20
_CELL_BYTES = 320
_CHUNK_CELLS = _FORMAT_BYTES // _CELL_BYTES


def _gaps(down, up, lo, hi):
    # Candidates at distance down below and up above Y, for an interval of
    # half-widths lo (below) and hi (above): is the nearer one above, and
    # how far inside the edge (< 0) or outside (> 0) are the nearer and the
    # other one? A gap within _SLACK of 0 is not sure.
    above = up < down
    return above, np.where(above, up - hi, down - lo), np.where(above, down - lo, up - hi)


def _shortest_digits(ax, work):
    """Digits of the finite |x| in ax where work holds: returns (c, decpt,
    nd, certain), c the nd-digit integer with x = 0.c * 10**decpt. ax must
    be 1.0 where work does not hold."""
    s = 16 - np.floor(np.log10(ax)).astype(np.intp)
    work &= np.abs(s) <= _MAX_SCALE
    s[~work] = 16
    ax[~work] = 1.0
    s += _MAX_SCALE
    y = ax.astype(np.longdouble)
    y *= _SCALE_UP[s]
    if s.min() < _MAX_SCALE:  # |x| >= 1e16 somewhere
        y /= _SCALE_DOWN[s]
    yi = y.astype(np.int64)
    y -= yi
    f = y.astype(np.float64)  # exact: Y >= 2**53 keeps at most 11 fraction bits
    del y
    hi = np.spacing(ax)
    hi *= _SCALE_F64[s]
    hi *= 0.5
    lo = hi * np.where((ax.view(np.uint64) & _MANTISSA) == 0, 0.5, 1.0)
    s -= _MAX_SCALE
    # p = 0: both half-widths exceed Y 2**-54 > 0.55, so the integer nearer
    # to Y is inside; only a tie at .5 is left open
    certain = work & (yi >= 9 * _POW10[15])
    c = yi + (f > 0.5)
    # A tie is exact arithmetic for |x| < 1e16 (s >= 1): Y = m 5**s 2**-t
    # for the 53-bit significand m and 0 < t < 64, so the low t bits of
    # m 5**s, which its low 64 bits in uint64 hold, are Y's fraction
    tie = np.abs(f - 0.5) <= _SLACK
    at = np.flatnonzero(tie & work & (s >= 1))
    if at.size:
        m, e = np.frexp(ax[at])
        t = (53 - e - s[at]).astype(np.uint64)
        frac = (m * 2.0**53).astype(np.uint64) * _POW5[s[at]]
        half = np.uint64(1) << (t - np.uint64(1))
        frac &= (half << np.uint64(1)) - np.uint64(1)
        c[at] = yi[at] + (frac > half)
        tie[at] = frac == half
    # p = 1: the multiples of 10 either side of Y, which the interval (up
    # to 2 * 11.1 wide) may both hold; the nearer one wins when inside
    q = yi // 10
    r = (yi - 10 * q).astype(np.float64)
    down = r + f
    up = (10.0 - r) - f
    above, near, other = _gaps(down, up, lo, hi)
    tens = (near < 0.0) | (other < 0.0)
    other_sure = np.abs(other) > _SLACK
    certain &= (np.abs(near) > _SLACK) & np.where(
        tens, ((near < 0.0) | other_sure) & (np.abs(up - down) > 2 * _SLACK),
        other_sure & ~tie)
    c = np.where(tens, q + (above == (near < 0.0)), c)
    p = tens.astype(np.intp)
    # p >= 2: at most one multiple of 100 fits, and only when Y mod 100 is
    # within 11.1 of it; the largest power of 10 dividing it is 10**p
    q = yi // 100
    r = yi - 100 * q
    at = np.flatnonzero((r <= 11) | (r >= 88))
    ra = r[at].astype(np.float64)
    above, near, _ = _gaps(ra + f[at], (100.0 - ra) - f[at], lo[at], hi[at])
    certain[at] &= np.abs(near) > _SLACK
    at, above = at[near < 0.0], above[near < 0.0]
    m = q[at] + above
    k = np.full(at.size, 2)
    for z in (8, 4, 2, 1):
        whole = m % _POW10[z] == 0
        m = np.where(whole, m // _POW10[z], m)
        k += z * whole
    c[at] = m
    p[at] = k
    nd = 16 + (yi >= _POW10[16]) + (yi >= _POW10[17]) - p
    nd += c >= _POW10[nd]  # Y below 1e16 rounding up to 10**16
    return c, nd + p - s, nd, certain


class _CsvCells:
    """Formats float cells for save_csv, one chunk of at most _CHUNK_CELLS
    at a time, in buffers that every chunk reuses."""

    def __init__(self, cells):
        # word-major: row k holds word k of every cell, so that each
        # word-wide step runs along the cells
        self.source = np.full((5, cells), int.from_bytes(b"0" * 8, "little"), dtype=np.uint64)
        self.words = np.empty((3, _WIDTH // 8, cells), dtype=np.uint64)

    def format(self, block, row_ends):
        """The bytes of the 2-D float array block, row by row: cells joined
        by ',' and a row ended by '\\n' when row_ends, else by ','."""
        n, shape = block.size, block.shape
        source = self.source[:, :n]
        text, shifted, spill = self.words[:, :, :n]
        neg = np.signbit(block, out=np.empty(shape, dtype=bool)).ravel()
        ax = np.abs(block, out=np.empty(shape)).ravel()
        # classified by their bits: a float comparison with a signaling NaN
        # would raise the invalid-operation flag
        zero = ax.view(np.uint64) == 0
        work = (ax.view(np.uint64) - np.uint64(1) < _LARGEST) & _DIGIT_PATH  # finite, not 0
        ax[~work] = 1.0
        c, decpt, nd, certain = _shortest_digits(ax, work)
        c[~certain] = 0  # zero, and a placeholder for the cells repr writes
        nd[~certain] = 1
        decpt[~certain] = 1
        c *= _POW10[17 - nd]  # left-aligned in 17 digits
        top = c // _POW10[8]
        low = (c - top * _POW10[8]).astype(np.uint32)
        top = top.astype(np.uint32)
        halves = source.view(np.uint32)  # bytes 4k..4k+3 of a cell: halves[k // 2, k % 2::2]
        np.take(_DIGITS, top // 100000000, out=halves[0, 1::2], mode="clip")
        top %= 100000000
        np.take(_DIGITS, top // 10000, out=halves[1, 0::2], mode="clip")
        np.take(_DIGITS, top % 10000, out=halves[1, 1::2], mode="clip")
        np.take(_DIGITS, low // 10000, out=halves[2, 0::2], mode="clip")
        np.take(_DIGITS, low % 10000, out=halves[2, 1::2], mode="clip")
        key = (decpt - _DEC_LO) * 18 + nd
        lead = neg.view(np.uint8)
        point = _POINT[key] + lead
        end = _SEP_AT[key] + lead
        bits = (8 * (7 - lead - _OFFSET[key])).astype(np.uint64)
        np.right_shift(source[:4], bits, out=shifted)
        shifted |= np.left_shift(source[1:], 64 - bits, out=spill)
        bits -= 8
        np.right_shift(source[:4], bits, out=text)
        text |= np.left_shift(source[1:], 64 - bits, out=spill)
        shifted ^= text
        shifted &= np.take(_BEFORE, point, axis=1, out=spill, mode="clip")
        text ^= shifted
        chars = self.words[1].reshape(-1)[: 4 * n].reshape(n, 4).view(np.uint8)  # shifted's memory
        chars.view(np.uint64)[...] = text.T
        chars[:, 0] -= lead * np.uint8(ord("0") - ord("-"))
        flat = chars.ravel()
        base = np.arange(0, n * _WIDTH, _WIDTH)
        flat[base + point] = ord(".")
        sci = np.flatnonzero((decpt <= -4) | (decpt > 16))
        if sci.size:
            e = decpt[sci] - 1
            at = base[sci] + lead[sci] + _EXPONENT_AT[key[sci]]
            flat[at] = ord("e")
            flat[at + 1] = np.where(e < 0, ord("-"), ord("+"))
            e = np.abs(e)
            flat[at + 2] = ord("0") + e // 10
            flat[at + 3] = ord("0") + e % 10
        todo = np.flatnonzero(~(certain | zero))
        if todo.size:
            texts = list(map(repr, block[np.unravel_index(todo, shape)].tolist()))
            lens = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
            starts = np.repeat(base[todo] - (np.cumsum(lens) - lens), lens)
            blob = "".join(texts).encode("ascii")
            flat[starts + np.arange(starts.size)] = np.frombuffer(blob, dtype=np.uint8)
            end[todo] = lens
        end += base
        flat[end] = ord(",")
        if row_ends:
            flat[end.reshape(shape)[:, -1]] = ord("\n")
        end -= base
        keep = self.words[2].reshape(-1).view(bool)[: n * _WIDTH].reshape(n, _WIDTH)  # spill's memory
        return chars[np.take(_UPTO, end, axis=0, out=keep, mode="clip")]


def _csv_blocks(matrix):
    # (block, row_ends) pieces of matrix.T in row-major order, each of at
    # most _CHUNK_CELLS cells; a row wider than that comes in pieces
    d, n = matrix.shape
    per = max(1, _CHUNK_CELLS // d)
    width = min(d, _CHUNK_CELLS)
    for r0 in range(0, n, per):
        for c0 in range(0, d, width):
            yield matrix[c0 : c0 + width, r0 : r0 + per].T, c0 + width >= d


def save_csv(path, matrix, header=None):
    """Write a d x N matrix as N rows of d floats, each as Python's repr:
    the shortest decimal that reads back to the same float. The file holds
    the bytes of ",".join(map(repr, row)) + "\\n" for each row, formatted
    and written a chunk of cells at a time."""
    matrix = np.asarray(matrix, dtype=float)
    d, n = matrix.shape
    with open(path, "wb") as fh:
        if header is not None:
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerow(header)
            fh.write(text.getvalue().encode("utf-8"))
        if d == 0:
            fh.write(b"\n" * n)
            return
        cells = _CsvCells(min(d * n, _CHUNK_CELLS))
        for block, row_ends in _csv_blocks(matrix):
            fh.write(cells.format(block, row_ends))


# --- MNIST IDX ----------------------------------------------------------


def _idx_open(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count, path):
    # count comes from the file's header and may exceed memory or an index:
    # read chunks while the stream lasts, never more than count bytes
    data = bytearray()
    while len(data) < count:
        chunk = fh.read(min(count - len(data), _IDX_CHUNK))
        if not chunk:
            raise Truncated(f"{path}: expected {count} bytes, got {len(data)}")
        data += chunk
    return data


def load_mnist_idx(images_path, labels_path, label_filter=None, limit=None):
    """Load big-endian IDX image/label files as (d x N matrix, labels).

    Pixels are scaled to [0, 1]; samples are optionally restricted to a set
    of labels and truncated to `limit`, both in file order.
    """
    with _idx_open(images_path) as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise BadMagic(f"{images_path}: magic {magic}, expected {IDX_IMAGES_MAGIC}")
        pixels = np.frombuffer(_read_exact(fh, count * rows * cols, images_path), dtype=np.uint8)
    with _idx_open(labels_path) as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise BadMagic(f"{labels_path}: magic {magic}, expected {IDX_LABELS_MAGIC}")
        labels = np.frombuffer(_read_exact(fh, label_count, labels_path), dtype=np.uint8)
    if count != label_count:
        raise CountMismatch(f"{count} images but {label_count} labels")
    # slice while still uint8; the float conversion of a full train file
    # would otherwise cost hundreds of MB
    images = pixels.reshape(count, rows * cols)
    if label_filter is not None:
        keep = np.isin(labels, list(label_filter))
        images, labels = images[keep], labels[keep]
    if limit is not None:
        images, labels = images[:limit], labels[:limit]
    return images.astype(float).T / 255.0, labels.copy()


# --- model container ----------------------------------------------------


# The model file's sections, each exactly once and in this order: the tag,
# the struct format of the fixed fields, and the rank of the f64 array that
# follows them, whose shape is the fields' last `rank` values.
_SECTIONS = (
    ("HYPR", "<Idd", 0),  # q, sigma2, tail: the discarded spectrum's sum
    ("KSPC", "<Bd", 0),  # kernel family (0 linear, 1 rbf), gamma (0.0 when unused)
    ("EVAL", "<I", 1),  # the q leading eigenvalues
    ("EVEC", "<II", 2),  # their N x q eigenvectors
    ("GMNS", "<I", 1),  # the training Gram matrix's N column means, then its grand mean
    ("TSET", "<II", 2),  # the training points, one per row
)


def save_model(path, model):
    """Write a DualModel as a version 2 model file, each array straight
    from its own buffer (one copy only for an array not in C order)."""
    if not isinstance(model, DualModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    spec = model.spec
    payloads = ((model.q, model.sigma2, model.tail), (0 if spec.family == "linear" else 1, spec.gamma or 0.0),
                model.eigenvalues, model.e, model.means, model.ts.points)
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC + struct.pack("<I", MODEL_VERSION) + b"D")
        for (tag, fmt, rank), payload in zip(_SECTIONS, payloads):
            array = np.ascontiguousarray(payload if rank else (), dtype="<f8")
            fields = struct.pack(fmt, *(array.shape if rank else payload))
            head = tag.encode("ascii") + struct.pack("<Q", len(fields) + array.nbytes)
            crc = zlib.crc32(array, zlib.crc32(fields, zlib.crc32(head)))
            for part in (head, fields, array, struct.pack("<I", crc)):
                fh.write(part)


def _read_section(fh, path, tag, fmt, rank):
    # the fields as a tuple, or for rank > 0 the array, read into its own
    # memory once its declared length, shape and the bytes left agree
    head = fh.read(12)
    _check(len(head) == 12, path, f"file ends before section {tag}")
    _check(head[:4] == tag.encode("ascii"), path, f"section {head[:4]!r} where section {tag} belongs")
    (length,) = struct.unpack_from("<Q", head, 4)
    size = struct.calcsize(fmt)
    _check(length >= size, path, f"section {tag} payload ends prematurely")
    # a pipe has no size to compare with: there a length that no memory
    # holds fails in np.empty, as a MemoryError
    left = os.fstat(fh.fileno()).st_size - fh.tell() if fh.seekable() else sys.maxsize
    _check(length + 4 <= left, path, f"section {tag} longer than file")
    fields = fh.read(size)
    _check(len(fields) == size, path, f"section {tag} payload ends prematurely")
    values = struct.unpack(fmt, fields)
    shape = values[len(values) - rank :] if rank else (0,)
    _check(length == size + 8 * math.prod(shape), path,
           f"section {tag} length {length} disagrees with its shape {shape}")
    array = np.empty(shape, dtype="<f8")
    _check(fh.readinto(array) == array.nbytes, path, f"section {tag} payload ends prematurely")
    crc = zlib.crc32(array, zlib.crc32(fields, zlib.crc32(head)))
    _check(fh.read(4) == struct.pack("<I", crc), path, f"section {tag!r} fails its CRC32 check")
    return array if rank else values


def _check(ok, path, what):
    if not ok:
        raise CorruptFile(f"{path}: {what}")


def _check_shape(path, name, arr, shape):
    _check(arr.shape == shape, path, f"section {name} has shape {arr.shape}, expected {shape}")
    _check(bool(np.all(np.isfinite(arr))), path, f"section {name} holds NaN or Inf entries")


def _kernel_spec(family, gamma, path):
    _check(family in (0, 1), path, f"unknown kernel family code {family}")
    try:
        # a linear kernel's gamma is stored as 0.0
        return KernelSpec("linear", gamma or None) if family == 0 else KernelSpec("rbf", gamma)
    except ValueError as exc:
        raise CorruptFile(f"{path}: {exc}") from None


def load_model(path):
    """Read back a DualModel written by save_model; the round trip is
    lossless.

    The file is read one section at a time, each array into its own memory,
    which becomes the model's. Raises VersionMismatch when the file is not
    version 2, and CorruptFile when it is damaged: a section fails its
    CRC32, the kind byte is not b"D", a section is missing, repeated, out
    of order or unknown, its length disagrees with its shape or the file,
    bytes follow the last section, or the sections disagree.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(MODEL_MAGIC) + 5)
        if len(head) < len(MODEL_MAGIC) + 5 or head[: len(MODEL_MAGIC)] != MODEL_MAGIC:
            raise CorruptFile(f"{path}: not a model file")
        (version,) = struct.unpack_from("<I", head, 6)
        if version != MODEL_VERSION:
            raise VersionMismatch(f"{path}: version {version}, this build reads only version {MODEL_VERSION}; "
                                  "re-fit the model with `kppca fit`")
        _check(head[10:] == b"D", path, f"unknown model kind {head[10:]!r}")
        (q, sigma2, tail), kspc, lam, e, means, points = (_read_section(fh, path, *sec) for sec in _SECTIONS)
        _check(not fh.read(1), path, "bytes after the last section")
    spec = _kernel_spec(*kspc, path)
    n = points.shape[0]
    _check(1 <= q <= n, path, f"q={q} outside 1..N={n}")
    _check(np.isfinite(sigma2) and sigma2 >= 0.0, path, f"sigma2={sigma2} is not a finite value >= 0")
    _check(bool(np.all(np.isfinite(lam)) and np.all(lam >= 0.0) and np.all(np.diff(lam) <= 0.0)),
           path, "EVAL is not a finite, nonnegative, descending spectrum")
    _check(np.isfinite(tail) and tail >= 0.0, path, f"tail={tail} is not a finite value >= 0")
    _check_shape(path, "EVAL", lam, (q,))
    _check_shape(path, "EVEC", e, (n, q))
    _check_shape(path, "GMNS", means, (n + 1,))
    _check_shape(path, "TSET", points, (n, points.shape[1]))
    # unit eigenvectors have no entry beyond 1
    _check(float(np.max(np.abs(e), initial=0.0)) <= 1.0 + 1e-9, path, "EVEC has an entry beyond 1")
    return DualModel(sigma2=sigma2, eigenvalues=lam, e=e, tail=tail, means=means, spec=spec,
                     ts=TrainingSet(points))
