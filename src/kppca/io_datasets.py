"""Data ingestion (CSV tables, MNIST IDX files), model serialization, and run
metadata.

Model container layout (version 2, all integers and floats little-endian):

    magic   6 bytes   b"KPPCA\\0"
    version u32       2
    kind    1 byte    b"P" (primal) or b"D" (dual)
    then a sequence of sections, each
        tag     4 ascii bytes
        length  u64, payload byte count
        payload
        crc32   u32, zlib.crc32 of tag, length and payload

    vector payload:  u32 length, then that many f64
    matrix payload:  u32 rows, u32 cols, then rows*cols f64 row-major

    primal sections: HYPR (u32 q, f64 sigma2), MEAN (vector mu),
                     WMAT (matrix w), EVAL (vector eigenvalues),
                     VMAT (matrix v)
    dual sections:   HYPR (u32 q, f64 sigma2, f64 tail: the discarded
                     spectrum's sum), KSPC (u8 family: 0 linear 1 rbf,
                     f64 gamma, 0.0 when unused), EVAL (vector, the q
                     leading eigenvalues), EVEC (matrix, their N x q
                     eigenvectors), GMNS (vector, the training Gram
                     matrix's N column means then its grand mean), TSET
                     (matrix training points, one per row)

A dual file holds O(N (d_in + q)) numbers. Version 1 files (no CRC32; a
dual model kept the full spectrum EVAL, its N x N eigenvectors EVEC, the
loadings AMAT and the centered Gram matrix KCMT) still load, as the same
model in the version 2 form.

Loading checks every CRC32 and that the sections agree with each other:
shapes against N, d_in and q, 1 <= q <= N, finite sigma2 and tail >= 0, a
finite, nonnegative, descending EVAL, and EVEC entries within [-1, 1].
"""

import csv
import gzip
import json
import struct
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from ._version import __version__
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
from .kernels import KernelSpec, TrainingSet, gram
from .primal import PrimalModel
from .spectral import gram_means

MODEL_MAGIC = b"KPPCA\x00"
MODEL_VERSION = 2
IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049


@dataclass
class RunMetadata:
    """Provenance attached to every artifact a run produces."""

    seed: int | None
    kernel: KernelSpec | None
    q: int
    sigma2: float
    explained_variance: float | None
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    tool_version: str = __version__

    def to_dict(self):
        kern = None
        if self.kernel is not None:
            kern = {"family": self.kernel.family, "gamma": self.kernel.gamma}
        return {
            "seed": self.seed,
            "kernel": kern,
            "q": self.q,
            "sigma2": self.sigma2,
            "explained_variance": self.explained_variance,
            "timestamp": self.timestamp,
            "tool_version": self.tool_version,
        }


def write_metadata(path, meta: RunMetadata, extra: dict | None = None):
    payload = meta.to_dict()
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    return np.asarray(data, dtype=float).T


def load_csv(path) -> np.ndarray:
    """Read a numeric table with one sample per row; returns samples as the
    columns of a d x N matrix.

    Blank lines are skipped. The first non-blank row is a header, and is
    skipped, when none of its cells is a number; a row that holds a number
    is data, so a bad cell in it is reported. A cell is a number when
    Python's float() accepts it, also inside csv quotes ("1.5"). Raises
    ParseError with the row (counting non-blank rows from 1) and column of
    the first cell that is not a number, RaggedRows when the rows differ in
    width, and ParseError for a file that is not UTF-8 or has no data row.
    """
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
        header = not any(map(_is_number, first))
        body = lines[rows.line_num:] if header else lines
        has_data = not header or next(filter(None, rows), None) is not None
        if has_data and not any(c in line for line in body for c in _LOADTXT_ONLY_WHITESPACE):
            # a well-formed table parses in numpy's C tokenizer; anything it
            # refuses gets the reference parser, which accepts or locates it
            try:
                return np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=float).T
            except ValueError:
                pass
        return _parse_cells(body, path, first_row=2 if header else 1)
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_csv(path, matrix, header=None):
    """Write a d x N matrix as N rows of d floats, each as Python's repr:
    the shortest decimal that reads back to the same float."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            csv.writer(fh, lineterminator="\n").writerow(header)
        # one row per write: a single string for the whole table would hold
        # every cell as a str object at once
        for col in matrix.T:
            fh.write(",".join(map(repr, col.tolist())) + "\n")


# --- MNIST IDX ----------------------------------------------------------


def _idx_open(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count, path):
    data = fh.read(count)
    if len(data) != count:
        raise Truncated(f"{path}: expected {count} bytes, got {len(data)}")
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


def _pack_vec(v):
    v = np.asarray(v, dtype=float)
    return struct.pack("<I", v.size) + v.astype("<f8").tobytes()


def _pack_mat(m):
    m = np.asarray(m, dtype=float)
    return struct.pack("<II", m.shape[0], m.shape[1]) + m.astype("<f8").tobytes()


def _section(tag, payload):
    head = tag.encode("ascii") + struct.pack("<Q", len(payload))
    return head + payload + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head)))


def save_model(path, model):
    if isinstance(model, PrimalModel):
        kind = b"P"
        sections = [
            _section("HYPR", struct.pack("<Id", model.q, model.sigma2)),
            _section("MEAN", _pack_vec(model.mu)),
            _section("WMAT", _pack_mat(model.w)),
            _section("EVAL", _pack_vec(model.eigenvalues)),
            _section("VMAT", _pack_mat(model.v)),
        ]
    elif isinstance(model, DualModel):
        kind = b"D"
        family = 0 if model.spec.family == "linear" else 1
        gamma = model.spec.gamma if model.spec.gamma is not None else 0.0
        sections = [
            _section("HYPR", struct.pack("<Idd", model.q, model.sigma2, model.tail)),
            _section("KSPC", struct.pack("<Bd", family, gamma)),
            _section("EVAL", _pack_vec(model.eigenvalues)),
            _section("EVEC", _pack_mat(model.e)),
            _section("GMNS", _pack_vec(model.means)),
            _section("TSET", _pack_mat(model.ts.points)),
        ]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(kind)
        for sec in sections:
            fh.write(sec)


class _Cursor:
    def __init__(self, data, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, count):
        if self.pos + count > len(self.data):
            raise CorruptFile(f"{self.path}: section payload ends prematurely")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _unpack_vec(cur):
    # astype makes the array's one copy; a frombuffer view would pin the file
    (size,) = cur.unpack("<I")
    return np.frombuffer(cur.take(8 * size), dtype="<f8").astype(float)


def _unpack_mat(cur):
    rows, cols = cur.unpack("<II")
    flat = np.frombuffer(cur.take(8 * rows * cols), dtype="<f8").astype(float)
    return flat.reshape(rows, cols)


def _read_sections(blob, pos, path, checksummed):
    # payloads are slices of the caller's memoryview, not copies; a version 2
    # section ends in the CRC32 of its tag, length and payload
    trailer = 4 if checksummed else 0
    sections = {}
    while pos < len(blob):
        if pos + 12 > len(blob):
            raise CorruptFile(f"{path}: dangling bytes after last section")
        tag = bytes(blob[pos : pos + 4])
        (length,) = struct.unpack_from("<Q", blob, pos + 4)
        end = pos + 12 + length
        if end + trailer > len(blob):
            raise CorruptFile(f"{path}: section {tag!r} longer than file")
        if checksummed:
            (crc,) = struct.unpack_from("<I", blob, end)
            if zlib.crc32(blob[pos:end]) != crc:
                raise CorruptFile(f"{path}: section {tag!r} fails its CRC32 check")
        try:
            name = tag.decode("ascii")
        except UnicodeDecodeError:
            raise CorruptFile(f"{path}: bad section tag {tag!r}") from None
        sections[name] = blob[pos + 12 : end]
        pos = end + trailer
    return sections


def _need(sections, name, path):
    if name not in sections:
        raise CorruptFile(f"{path}: missing section {name}")
    return _Cursor(sections[name], path)


def _check(ok, path, what):
    if not ok:
        raise CorruptFile(f"{path}: {what}")


def _check_shape(path, name, arr, shape):
    _check(arr.shape == shape, path, f"section {name} has shape {arr.shape}, expected {shape}")
    _check(bool(np.all(np.isfinite(arr))), path, f"section {name} holds NaN or Inf entries")


def _check_hyper(path, q, sigma2, lam, n):
    _check(1 <= q <= n, path, f"q={q} outside 1..N={n}")
    _check(np.isfinite(sigma2) and sigma2 >= 0.0, path, f"sigma2={sigma2} is not a finite value >= 0")
    _check(bool(np.all(np.isfinite(lam)) and np.all(lam >= 0.0) and np.all(np.diff(lam) <= 0.0)),
           path, "EVAL is not a finite, nonnegative, descending spectrum")


def _load_primal(sections, path):
    q, sigma2 = _need(sections, "HYPR", path).unpack("<Id")
    lam = _unpack_vec(_need(sections, "EVAL", path))
    mu = _unpack_vec(_need(sections, "MEAN", path))
    w = _unpack_mat(_need(sections, "WMAT", path))
    v = _unpack_mat(_need(sections, "VMAT", path))
    _check_hyper(path, q, sigma2, lam, lam.size)
    _check_shape(path, "MEAN", mu, (mu.size,))
    _check_shape(path, "WMAT", w, (mu.size, q))
    _check_shape(path, "VMAT", v, (mu.size, q))
    return PrimalModel(mu=mu, w=w, sigma2=sigma2, q=q, eigenvalues=lam, v=v)


def _kernel_spec(sections, path):
    family, gamma = _need(sections, "KSPC", path).unpack("<Bd")
    _check(family in (0, 1), path, f"unknown kernel family code {family}")
    _check(family == 0 or (np.isfinite(gamma) and gamma > 0.0), path, f"rbf bandwidth {gamma} is not > 0")
    return KernelSpec("linear") if family == 0 else KernelSpec("rbf", gamma)


def _check_evec(path, e):
    # unit eigenvectors have no entry beyond 1
    _check(float(np.max(np.abs(e), initial=0.0)) <= 1.0 + 1e-9, path, "EVEC has an entry beyond 1")


def _load_dual(sections, path):
    q, sigma2, tail = _need(sections, "HYPR", path).unpack("<Idd")
    spec = _kernel_spec(sections, path)
    lam = _unpack_vec(_need(sections, "EVAL", path))
    e = _unpack_mat(_need(sections, "EVEC", path))
    means = _unpack_vec(_need(sections, "GMNS", path))
    points = _unpack_mat(_need(sections, "TSET", path))
    n = points.shape[0]
    _check_hyper(path, q, sigma2, lam, n)
    _check(np.isfinite(tail) and tail >= 0.0, path, f"tail={tail} is not a finite value >= 0")
    _check_shape(path, "EVAL", lam, (q,))
    _check_shape(path, "EVEC", e, (n, q))
    _check_shape(path, "GMNS", means, (n + 1,))
    _check_shape(path, "TSET", points, (n, points.shape[1]))
    _check_evec(path, e)
    return DualModel(sigma2=sigma2, eigenvalues=lam, e=e, tail=tail, means=means, spec=spec,
                     ts=TrainingSet(points))


def _load_dual_v1(sections, path):
    # Version 1 kept the whole spectrum, its eigenvectors, the centered Gram
    # matrix KCMT and the loadings AMAT; the model keeps the leading q
    # eigenpairs, the discarded spectrum's sum and the Gram means, which
    # come from the Gram matrix of TSET.
    q, sigma2 = _need(sections, "HYPR", path).unpack("<Id")
    spec = _kernel_spec(sections, path)
    lam = _unpack_vec(_need(sections, "EVAL", path))
    e = _unpack_mat(_need(sections, "EVEC", path))
    a = _unpack_mat(_need(sections, "AMAT", path))
    kc = _unpack_mat(_need(sections, "KCMT", path))
    points = _unpack_mat(_need(sections, "TSET", path))
    n = lam.size
    _check_hyper(path, q, sigma2, lam, n)
    _check_shape(path, "EVEC", e, (n, n))
    _check_shape(path, "AMAT", a, (n, q))
    _check_shape(path, "KCMT", kc, (n, n))
    _check_shape(path, "TSET", points, (n, points.shape[1]))
    _check_evec(path, e)
    scale = max(1.0, float(np.max(np.abs(kc), initial=0.0)))
    _check(float(np.max(np.abs(kc - kc.T), initial=0.0)) <= 1e-9 * scale, path, "KCMT is not symmetric")
    _check(abs(float(np.trace(kc)) - float(np.sum(lam))) <= 1e-6 * max(1.0, float(np.trace(kc))),
           path, "EVAL does not sum to the trace of KCMT")
    ts = TrainingSet(points)
    return DualModel(sigma2=sigma2, eigenvalues=lam[:q].copy(), e=e[:, :q].copy(),
                     tail=float(lam[q:].sum()), means=gram_means(gram(spec, ts)),
                     spec=spec, ts=ts)


def load_model(path):
    """Read back a model written by save_model; the round trip is lossless.
    A version 1 file, which kept the full spectrum of a dual model, loads
    as the same model in the version 2 form.

    Raises CorruptFile when the file is damaged (in version 2, a section
    fails its CRC32) or its sections disagree.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if len(blob) < len(MODEL_MAGIC) + 5 or blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise CorruptFile(f"{path}: not a model file")
    (version,) = struct.unpack_from("<I", blob, 6)
    if version not in (1, MODEL_VERSION):
        raise VersionMismatch(f"{path}: version {version}, this build reads 1 and {MODEL_VERSION}")
    kind = bytes(blob[10:11])
    sections = _read_sections(blob, 11, path, checksummed=version == MODEL_VERSION)
    loaders = {b"P": _load_primal, b"D": _load_dual if version == MODEL_VERSION else _load_dual_v1}
    if kind not in loaders:
        raise CorruptFile(f"{path}: unknown model kind {kind!r}")
    try:
        return loaders[kind](sections, path)
    except struct.error as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
