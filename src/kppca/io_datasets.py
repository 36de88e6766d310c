"""Data ingestion (CSV tables, MNIST IDX files), model serialization, and run
metadata.

Model container layout (version 1, all integers and floats little-endian):

    magic   6 bytes   b"KPPCA\\0"
    version u32       1
    kind    1 byte    b"P" (primal) or b"D" (dual)
    then a sequence of sections, each
        tag     4 ascii bytes
        length  u64, payload byte count
        payload

    vector payload:  u32 length, then that many f64
    matrix payload:  u32 rows, u32 cols, then rows*cols f64 row-major

    primal sections: HYPR (u32 q, f64 sigma2), MEAN (vector mu),
                     WMAT (matrix w), EVAL (vector eigenvalues),
                     VMAT (matrix v)
    dual sections:   HYPR (u32 q, f64 sigma2), KSPC (u8 family: 0 linear
                     1 rbf, f64 gamma, 0.0 when unused), EVAL (vector
                     eigenvalues), EVEC (matrix e), AMAT (matrix a),
                     KCMT (matrix centered Gram), TSET (matrix training
                     points, one per row)

Loading checks that the sections agree with each other: shapes against N,
d_in and q, 1 <= q <= N, a finite sigma2 >= 0 and a finite, nonnegative,
descending spectrum. AMAT is checked for shape only; the loadings are
derived from the spectrum and sigma2.
"""

import csv
import gzip
import json
import struct
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
from .kernels import KernelSpec, TrainingSet
from .primal import PrimalModel
from .spectral import SymMatrix

MODEL_MAGIC = b"KPPCA\x00"
MODEL_VERSION = 1
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


def load_csv(path) -> np.ndarray:
    """Read a numeric table with one sample per row; returns samples as the
    columns of a d x N matrix. A single non-numeric first row is treated as
    a header and skipped."""
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

    start = 0
    try:
        first = parse_row(rows[0], 1)
    except ParseError:
        start = 1
        first = None
    data = [] if first is None else [first]
    for i in range(start + len(data), len(rows)):
        data.append(parse_row(rows[i], i + 1))
    if not data:
        raise ParseError(f"{path}: no data rows")
    width = len(data[0])
    for i, row in enumerate(data):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {start + i + 1} has {len(row)} fields, expected {width}")
    return np.asarray(data, dtype=float).T


def save_csv(path, matrix, header=None):
    """Write a d x N matrix as N rows of d full-precision decimal floats."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for col in matrix.T:
            writer.writerow([repr(float(v)) for v in col])


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
    return tag.encode("ascii") + struct.pack("<Q", len(payload)) + payload


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
            _section("HYPR", struct.pack("<Id", model.q, model.sigma2)),
            _section("KSPC", struct.pack("<Bd", family, gamma)),
            _section("EVAL", _pack_vec(model.eigenvalues)),
            _section("EVEC", _pack_mat(model.e)),
            _section("AMAT", _pack_mat(model.a)),
            _section("KCMT", _pack_mat(model.kc.entries)),
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
    (size,) = cur.unpack("<I")
    return np.frombuffer(cur.take(8 * size), dtype="<f8").astype(float)


def _unpack_mat(cur):
    rows, cols = cur.unpack("<II")
    flat = np.frombuffer(cur.take(8 * rows * cols), dtype="<f8").astype(float)
    return flat.reshape(rows, cols)


def _read_sections(blob, path):
    sections = {}
    pos = 0
    while pos < len(blob):
        if pos + 12 > len(blob):
            raise CorruptFile(f"{path}: dangling bytes after last section")
        tag = blob[pos : pos + 4]
        (length,) = struct.unpack("<Q", blob[pos + 4 : pos + 12])
        pos += 12
        if pos + length > len(blob):
            raise CorruptFile(f"{path}: section {tag!r} longer than file")
        try:
            name = tag.decode("ascii")
        except UnicodeDecodeError:
            raise CorruptFile(f"{path}: bad section tag {tag!r}") from None
        sections[name] = blob[pos : pos + length]
        pos += length
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


def _check_hyper(path, q, sigma2, lam):
    n = lam.size
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
    _check_hyper(path, q, sigma2, lam)
    _check_shape(path, "MEAN", mu, (mu.size,))
    _check_shape(path, "WMAT", w, (mu.size, q))
    _check_shape(path, "VMAT", v, (mu.size, q))
    return PrimalModel(mu=mu, w=w, sigma2=sigma2, q=q, eigenvalues=lam, v=v)


def _load_dual(sections, path):
    q, sigma2 = _need(sections, "HYPR", path).unpack("<Id")
    family, gamma = _need(sections, "KSPC", path).unpack("<Bd")
    lam = _unpack_vec(_need(sections, "EVAL", path))
    e = _unpack_mat(_need(sections, "EVEC", path))
    a = _unpack_mat(_need(sections, "AMAT", path))
    kc = _unpack_mat(_need(sections, "KCMT", path))
    points = _unpack_mat(_need(sections, "TSET", path))
    _check_hyper(path, q, sigma2, lam)
    n = lam.size
    _check_shape(path, "EVEC", e, (n, n))
    _check_shape(path, "AMAT", a, (n, q))
    _check_shape(path, "KCMT", kc, (n, n))
    _check_shape(path, "TSET", points, (n, points.shape[1]))
    _check(family in (0, 1), path, f"unknown kernel family code {family}")
    _check(family == 0 or (np.isfinite(gamma) and gamma > 0.0), path, f"rbf bandwidth {gamma} is not > 0")
    spec = KernelSpec("linear") if family == 0 else KernelSpec("rbf", gamma)
    return DualModel(sigma2=sigma2, q=q, eigenvalues=lam, e=e, kc=SymMatrix(kc), spec=spec,
                     ts=TrainingSet(points))


def load_model(path):
    """Read back a model written by save_model; the round trip is lossless.

    Raises CorruptFile when the file is damaged or its sections disagree.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC) + 5 or blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise CorruptFile(f"{path}: not a model file")
    (version,) = struct.unpack("<I", blob[6:10])
    if version != MODEL_VERSION:
        raise VersionMismatch(f"{path}: version {version}, this build reads {MODEL_VERSION}")
    kind = blob[10:11]
    sections = _read_sections(blob[11:], path)
    loaders = {b"P": _load_primal, b"D": _load_dual}
    if kind not in loaders:
        raise CorruptFile(f"{path}: unknown model kind {kind!r}")
    try:
        return loaders[kind](sections, path)
    except struct.error as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
