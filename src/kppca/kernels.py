"""Kernel evaluation, Gram assembly, and centered out-of-sample kernel vectors.

Only the two kernels actually exercised downstream are shipped: the linear
kernel k(x, y) = <x, y> and the RBF kernel k(x, y) = exp(-||x - y||^2 / (2 gamma^2)).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .spectral import SymMatrix

FAMILIES = ("linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    family: str
    gamma: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "rbf":
            if self.gamma is None or not self.gamma > 0:
                raise ValueError("rbf kernel needs a bandwidth gamma > 0")


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

    def columns(self):
        """The samples as a d_in x N matrix."""
        return self.points.T


def _kernel_block(spec: KernelSpec, ts: TrainingSet, xs) -> np.ndarray:
    """Uncentered N x M block K[i, j] = k(x_i, xs[j]) against the rows of xs.

    Raises NonFinite when a kernel value is NaN or Inf: xs holds NaN or Inf,
    or the inputs are too large for float64 products. An RBF distance that
    overflows to +Inf is still a kernel value of 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.family == "linear":
            k = ts.points @ xs.T
        else:
            # Distances do not change under translation; measured from the
            # training mean, the expansion ||a||^2 + ||b||^2 - 2 a.b does not
            # cancel away the precision of data that sit far from the origin.
            mu = ts.points.mean(axis=0)
            a = ts.points - mu
            # the Gram matrix's own block multiplies a by its transpose,
            # which BLAS does as a symmetric update in half the flops
            b = a if xs is ts.points else xs - mu
            d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
            k = np.exp(-np.maximum(d2, 0.0) / (2.0 * spec.gamma**2))
    if not np.all(np.isfinite(k)):
        raise NonFinite("kernel values are not finite: the inputs hold NaN or Inf, or overflow float64")
    return k


def gram(spec: KernelSpec, ts: TrainingSet) -> SymMatrix:
    """Uncentered N x N kernel matrix K[i, j] = k(x_i, x_j)."""
    k = _kernel_block(spec, ts, ts.points)
    if spec.family == "rbf":
        np.fill_diagonal(k, 1.0)  # exact zero distance of each point to itself
    return SymMatrix(k)


def centered_kernel_vectors(spec: KernelSpec, ts: TrainingSet, means, xs) -> np.ndarray:
    """Out-of-sample centered kernel vectors, as an N x M matrix.

    means is the training Gram matrix's gram_means (its N column means m,
    then its grand mean g), which the model keeps from fit, so a query
    costs O(N d_in) and never the N x N Gram matrix. xs is (M, d_in), one
    input per row; column j of the result is the centered kernel vector of
    xs[j], entry i
    k_c(x, x_i) = k(x, x_i) - mean_l k(x, x_l) - m_i + g.
    A single input is the (1, d_in) batch.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != ts.d_in:
        raise DimensionMismatch(f"inputs must be (M, {ts.d_in}), got shape {xs.shape}")
    kv = _kernel_block(spec, ts, xs)
    return kv - kv.mean(axis=0, keepdims=True) - means[:-1, None] + means[-1]
