"""Data ingestion (CSV tables, MNIST IDX files) and model serialization:
the rules of each file. The decimal text of a CSV table, read and written
in whole-array steps, is _decimal's.

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
descending EVAL, EVEC entries within [-1, 1], a KSPC that KernelSpec
accepts and a TSET that TrainingSet accepts.
"""

import csv
import gzip
import io
import itertools
import math
import os
import struct
import sys
import zlib
from array import array

import numpy as np

from ._decimal import _PIECE_BYTES, _read_table, _write_table
from .dual import DualModel
from .errors import (
    BadMagic,
    CorruptFile,
    CountMismatch,
    NonFinite,
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


def _is_number(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _parse_row(fields, path, rownum):
    try:
        return list(map(float, fields))
    except ValueError:
        j = next(j for j, tok in enumerate(fields) if not _is_number(tok))
        raise ParseError(f"{path}: not a number: {fields[j]!r}", row=rownum, col=j + 1) from None


def _csv_rows(reader, path, row):
    # the non-blank rows of a csv reader, counted from row; a row csv
    # refuses (a cell over csv.field_size_limit()) is a ParseError at that
    # row; csv does not say in which column
    try:
        for fields in filter(None, reader):
            yield fields
            row += 1
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", row=row) from None


# load_csv reads a well-formed decimal table (an optional header line, then
# rows of plain decimal cells) in whole-array steps with _decimal, which
# says which cells it certifies and which it hands to float(). Every other
# file, a pipe, and every file on a platform without _decimal's digit path
# take the text path below.


def _is_header(cells):
    # the first non-blank row is a header, and skipped, when none of its
    # cells is a number
    return not any(map(_is_number, cells))


def _body(head):
    # the rows in the file's first bytes, which may open with one UTF-8
    # byte-order mark, and whether the first line ends in CRLF: from the
    # first line (as far as head holds it) when it has a number, after it
    # when it is a header (in csv syntax); None when it holds a CR other
    # than its end's, is blank, or is neither
    bom = 3 if head.startswith(b"\xef\xbb\xbf") else 0
    eol = head.find(b"\n", bom)
    line = head[bom:] if eol < 0 else head[bom:eol]
    crlf = eol >= 0 and line.endswith(b"\r")
    line = line[:-1] if crlf else line
    if not line or b"\r" in line:
        return None
    try:
        reader = csv.reader([line.decode("utf-8") + "\n", "\n"])
        header = _is_header(next(reader))
    except (UnicodeDecodeError, csv.Error):
        return None
    if reader.line_num != 1 or (header and eol < 0):
        return None
    return head[eol + 1 if header else bom :], crlf


def _read_text(path):
    # the text path, the reference parser: csv syntax, then float() on
    # every cell; it reads each row once, and locates each bad row and cell
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            # exc.start counts from the start of the chunk being decoded,
            # which ends where the file now stands; a pipe cannot say where
            where = f" (byte {fh.buffer.tell() - len(exc.object) + exc.start})" if fh.seekable() else ""
            raise ParseError(f"{path}: not UTF-8 text{where}") from None
    rows = _csv_rows(csv.reader(lines), path, 1)
    first = next(rows, None)
    if first is None:
        raise ParseError(f"{path}: empty file")
    header = _is_header(first)
    first_row = 2 if header else 1
    data, widths = array("d"), []
    try:
        for row, fields in enumerate(rows if header else itertools.chain([first], rows), first_row):
            data.extend(_parse_row(fields, path, row))
            widths.append(len(fields))
    except ParseError:
        for _ in rows:  # a row csv refuses, later in the file, is reported first
            pass
        raise
    if not widths:
        raise ParseError(f"{path}: no data rows")
    for i, width in enumerate(widths):
        if width != widths[0]:
            raise RaggedRows(f"{path}: row {first_row + i} has {width} fields, expected {widths[0]}")
    return np.frombuffer(data).reshape(len(widths), widths[0])


def load_csv(path) -> np.ndarray:
    """Read a numeric table with one sample per row; returns samples as the
    columns of a d x N matrix.

    Blank lines are skipped. The first non-blank row is a header, and is
    skipped, when none of its cells is a number; a row that holds a number
    is data, so a bad cell in it is reported. A cell is a number when
    Python's float() accepts it, also inside csv quotes ("1.5"), and reads
    as float() reads it. Raises ParseError with the row (counting non-blank
    rows from 1) and column of the first cell that is not a number, or
    with the row of a cell over csv.field_size_limit(), RaggedRows when the
    rows differ in width, and ParseError for a file that is not UTF-8 or
    has no data row. A leading UTF-8 byte-order mark is not part of the
    first cell.
    """
    with open(path, "rb") as fh:
        # the reader reads a file twice, which a pipe does not allow
        head = fh.read(_PIECE_BYTES) if fh.seekable() else b""
        body = _body(head)
        table = None if body is None else _read_table(fh, *body)
    return _read_text(path).T if table is None else table.T


def save_csv(path, matrix, header=None):
    """Write a d x N matrix as N rows of d floats, each as Python's repr:
    the shortest decimal that reads back to the same float. The file holds
    the bytes of ",".join(map(repr, row)) + "\\n" for each row, formatted
    and written a chunk of cells at a time."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "wb") as fh:
        if header is not None:
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerow(header)
            fh.write(text.getvalue().encode("utf-8"))
        _write_table(fh, matrix)


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


def _check_shape(path, name, arr, shape, finite=True):
    _check(arr.shape == shape, path, f"section {name} has shape {arr.shape}, expected {shape}")
    _check(not finite or bool(np.all(np.isfinite(arr))), path, f"section {name} holds NaN or Inf entries")


def _spec_and_points(family, gamma, points, path):
    # a value its type refuses, under a valid CRC32, is a damaged file
    _check(family in (0, 1), path, f"unknown kernel family code {family}")
    try:
        # a linear kernel's gamma is stored as 0.0
        spec = KernelSpec("linear", gamma or None) if family == 0 else KernelSpec("rbf", gamma)
        return spec, TrainingSet(points)
    except (ValueError, NonFinite) as exc:
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
    spec, ts = _spec_and_points(*kspc, points, path)
    n = points.shape[0]
    _check(1 <= q <= n, path, f"q={q} outside 1..N={n}")
    _check(np.isfinite(sigma2) and sigma2 >= 0.0, path, f"sigma2={sigma2} is not a finite value >= 0")
    _check(bool(np.all(np.isfinite(lam)) and np.all(lam >= 0.0) and np.all(np.diff(lam) <= 0.0)),
           path, "EVAL is not a finite, nonnegative, descending spectrum")
    _check(np.isfinite(tail) and tail >= 0.0, path, f"tail={tail} is not a finite value >= 0")
    _check_shape(path, "EVAL", lam, (q,), finite=False)  # finite: the spectrum's check
    _check_shape(path, "EVEC", e, (n, q))
    _check_shape(path, "GMNS", means, (n + 1,))
    # unit eigenvectors have no entry beyond 1
    _check(float(np.max(np.abs(e), initial=0.0)) <= 1.0 + 1e-9, path, "EVEC has an entry beyond 1")
    return DualModel(sigma2=sigma2, eigenvalues=lam, e=e, tail=tail, means=means, spec=spec, ts=ts)
