"""Kernel-smoother preimaging: map columns of kernel weights back to input
space as normalized weighted averages of the training points.

The default configuration is the bare smoother x_hat = sum_i k_i x_i / sum_i k_i.
Centered kernel vectors sum to (near) zero, which makes that normalizer
blow up; the two stabilizers (an additive epsilon in the denominator and
clipping negative weights) are opt-in.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNormalizer, DimensionMismatch
from .kernels import TrainingSet, column_blocks

_NORMALIZER_FLOOR = 1e-12


@dataclass(frozen=True)
class PreimageConfig:
    epsilon: float = 0.0
    clip_negative: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be a finite value >= 0, got {self.epsilon!r}")


def kernel_smoother(ts: TrainingSet, k, cfg: PreimageConfig = PreimageConfig()) -> np.ndarray:
    """Weighted averages of the training points, one per column of the
    weights k (N x M); returns the d_in x M preimages.

    Runs one column block at a time (kernels.column_blocks), so its working
    memory is O(N B) besides k and the result, whatever M is; k is left as
    it is. Raises DegenerateNormalizer, naming the column, when the
    stabilized weight sum of any column is within 1e-12 of zero, which is
    the typical fate of centered weights with epsilon = 0.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != ts.n:
        raise DimensionMismatch(f"weights must be a {ts.n} x M matrix, got shape {k.shape}")
    points = np.empty((ts.d_in, k.shape[1]))
    for cols, block in column_blocks(ts.n, k.shape[1]):
        block[...] = k[:, cols]
        kernel_smoother_block(ts, block, cfg, points[:, cols], cols.start)
    return points


def kernel_smoother_block(ts: TrainingSet, w, cfg: PreimageConfig, out, first: int = 0) -> np.ndarray:
    """kernel_smoother of the N x B weights w into out (d_in x B), for the
    columns first, ..., first + B - 1 of a larger batch: clip_negative clips
    w in place, and an error names the column's index in the batch."""
    if cfg.clip_negative:
        np.maximum(w, 0.0, out=w)
    denom = w.sum(axis=0) + cfg.epsilon
    degenerate = np.flatnonzero(np.abs(denom) < _NORMALIZER_FLOOR)
    if degenerate.size:
        j = degenerate[0]
        raise DegenerateNormalizer(
            f"weight sum {denom[j]:.3e} of column {first + j} is numerically zero; "
            "set epsilon > 0 or clip_negative to stabilize"
        )
    return np.divide(ts.points.T @ w, denom, out=out)
