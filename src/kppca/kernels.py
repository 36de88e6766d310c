"""Kernel evaluation, Gram assembly, and centered out-of-sample kernel vectors.

Only the two kernels actually exercised downstream are shipped: the linear
kernel k(x, y) = <x, y> and the RBF kernel k(x, y) = exp(-||x - y||^2 / (2 gamma^2)).

Every kernel block, the N x N Gram matrix included, is built in place in
one preallocated array: the product, the squared distances, the
exponential and the centering all overwrite the same buffer. Queries cut
their columns into blocks of about _BLOCK_BYTES (column_blocks), so a
query's working memory is O(N block_width(N)) however many columns it has.

A TrainingSet stores its points as rows; queries are d_in x M, one input
per column, and the kernel blocks read them as rows through the view x.T.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFinite
from .primal import _as_columns
from .spectral import center_in_place

FAMILIES = ("linear", "rbf")

# Bytes of one N x B float64 block of the column-block driver, and so the
# working memory of a query whatever its number of columns.
_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class KernelSpec:
    family: str
    gamma: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "linear":
            if self.gamma is not None:
                raise ValueError(f"the linear kernel takes no bandwidth, got gamma={self.gamma!r}")
        elif not (self.gamma is not None and self.gamma > 0 and 0.0 < _rbf_divisor(self.gamma) < math.inf):
            raise ValueError(f"rbf bandwidth {self.gamma!r} must be > 0 with 2 gamma^2 a finite float > 0")


def _rbf_divisor(gamma):
    # 2 gamma^2, the divisor of the RBF exponent; inf where it overflows
    try:
        return 2.0 * float(gamma) ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class TrainingSet:
    """N input vectors stored as the rows of an (N, d_in) array."""

    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"points must be an (N, d_in) array, got shape {p.shape}")
        if p.shape[0] < 1:
            raise ValueError("training set needs at least one point")
        if not np.all(np.isfinite(p)):
            raise NonFinite("training set contains NaN or Inf entries")
        object.__setattr__(self, "points", p)

    @classmethod
    def from_columns(cls, x):
        """Build from a d x N data matrix whose columns are the samples."""
        return cls(np.asarray(x, dtype=float).T)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d_in(self):
        return self.points.shape[1]

    @cached_property
    def _rbf_side(self):
        # the training side of the RBF blocks of every query, computed once:
        # the mean mu, the points measured from it and their squared norms
        mu = self.points.mean(axis=0)
        return (mu, *_rbf_rows(self.points, mu))


def block_width(n: int) -> int:
    """Columns per block for kernel columns of length n: as many as fit
    _BLOCK_BYTES of float64, and at least 64 so that BLAS still multiplies
    matrices. It depends on n alone, so re-runs cut the same blocks."""
    return max(64, _BLOCK_BYTES // (8 * n))


def column_blocks(n: int, m: int):
    """The column-block driver: split m columns of length n into runs of
    block_width(n) and yield (cols, buf) per run, cols the slice of the run
    and buf a C-contiguous n x width scratch array. Every block reuses the
    same memory, so the caller's working set is one n x block_width(n)
    array whatever m is; a block's contents are gone once the next one is
    yielded."""
    width = block_width(n)
    flat = np.empty(n * min(width, m))
    for start in range(0, m, width):
        stop = min(start + width, m)
        yield slice(start, stop), flat[: n * (stop - start)].reshape(n, stop - start)


def _kernel_into(spec: KernelSpec, ts: TrainingSet, xs, out) -> np.ndarray:
    """Fill out (N x M) with the uncentered kernel values k(x_i, xs[j]) of
    the rows of xs, in place; xs is ts.points itself for the Gram matrix.

    Raises NonFinite when a kernel value is NaN or Inf: xs holds NaN or Inf,
    or the inputs are too large for float64 products. An RBF distance that
    overflows to +Inf is still a kernel value of 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.family == "linear":
            np.matmul(ts.points, xs.T, out=out)
        else:
            if xs is ts.points:
                # The Gram matrix, built once per fit or sample, keeps no
                # training side. It multiplies a by its own transpose, which
                # BLAS does as a symmetric rank-k update in half the flops,
                # exactly symmetric.
                a, sq_a = _rbf_rows(ts.points, ts.points.mean(axis=0))
                b, sq_b = a, sq_a
            else:
                mu, a, sq_a = ts._rbf_side
                b, sq_b = _rbf_rows(xs, mu)
            # d2 = (sq_i + sq_j) - 2 a.b, one row block of sq_i + sq_j at a time
            np.matmul(a, b.T, out=out)
            out *= -2.0
            rows = block_width(max(out.shape[1], 1))
            for start in range(0, out.shape[0], rows):
                out[start : start + rows] += sq_a[start : start + rows, None] + sq_b
            np.maximum(out, 0.0, out=out)
            out /= -_rbf_divisor(spec.gamma)
            np.exp(out, out=out)
    if not np.all(np.isfinite(out)):
        raise NonFinite("kernel values are not finite: the inputs hold NaN or Inf, or overflow float64")
    return out


def _rbf_rows(xs, mu):
    # Distances do not change under translation; measured from the training
    # mean, the expansion ||a||^2 + ||b||^2 - 2 a.b does not cancel away the
    # precision of data that sit far from the origin.
    b = xs - mu
    return b, np.sum(b * b, axis=1)


def gram(spec: KernelSpec, ts: TrainingSet) -> np.ndarray:
    """Uncentered N x N kernel matrix K[i, j] = k(x_i, x_j), as a plain
    array built in place: exactly symmetric, so it needs no averaging."""
    k = _kernel_into(spec, ts, ts.points, np.empty((ts.n, ts.n)))
    if spec.family == "rbf":
        np.fill_diagonal(k, 1.0)  # exact zero distance of each point to itself
    return k


def centered_kernel_block(spec: KernelSpec, ts: TrainingSet, means, x, out) -> np.ndarray:
    """Fill out (N x M) with the centered kernel vectors of the columns of
    x (d_in x M), in place, and return it: the kernel values, then
    k_c(x, x_i) = k(x, x_i) - mean_l k(x, x_l) - m_i + g.
    x is not checked; centered_kernel_vectors is the checked entry."""
    return center_in_place(_kernel_into(spec, ts, x.T, out), means)


def centered_kernel_vectors(spec: KernelSpec, ts: TrainingSet, means, x) -> np.ndarray:
    """Out-of-sample centered kernel vectors, as an N x M matrix.

    means is the training Gram matrix's gram_means (its N column means m,
    then its grand mean g), which the model keeps from fit, so a query
    costs O(N d_in) and never the N x N Gram matrix. x is d_in x M, one
    input per column; column j of the result is the centered kernel vector
    of x[:, j], entry i
    k_c(x, x_i) = k(x, x_i) - mean_l k(x, x_l) - m_i + g.
    A single input is the d_in x 1 batch. This builds the whole N x M
    block at once; the CLI's queries go through column_blocks instead.
    """
    x = _as_columns(x, ts.d_in, "inputs")
    return centered_kernel_block(spec, ts, means, x, np.empty((ts.n, x.shape[1])))
