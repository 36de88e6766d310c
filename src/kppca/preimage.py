"""Kernel-smoother preimaging: map columns of kernel weights k back to input
space as weighted averages of the training points, sum_i w_i x_i /
(sum_i w_i + epsilon) with w_i = max(k_i, 0). Centered kernel vectors sum
to (near) zero, which makes the bare normalizer sum_i k_i blow up, so the
negative weights are always clipped and epsilon is 1e-3 N unless given.
"""

import numpy as np

from .errors import DegenerateNormalizer
from .kernels import TrainingSet, column_blocks
from .primal import _as_columns
from .spectral import rank_floor


def _resolve_epsilon(epsilon, n) -> float:
    # epsilon's one rule: 1e-3 N for N training points unless given, and a
    # given value is finite and >= 0
    if epsilon is not None and not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be a finite value >= 0, got {epsilon!r}")
    return 1e-3 * n if epsilon is None else float(epsilon)


def kernel_smoother(ts: TrainingSet, k, epsilon: float | None = None) -> np.ndarray:
    """Clipped weighted averages of the training points at epsilon (default
    1e-3 N), one per column of the weights k (N x M): d_in x M preimages.

    Runs one column block at a time (kernels.column_blocks), so its working
    memory is O(N B) besides k and the result, whatever M is; k is left as
    it is. Raises DegenerateNormalizer, naming the column, when a column's
    stabilized weight sum is at most rank_floor(N, max_i |k_ij|), which
    needs epsilon (near) 0.
    """
    epsilon = _resolve_epsilon(epsilon, ts.n)
    k = _as_columns(k, ts.n, "weights")
    points = np.empty((ts.d_in, k.shape[1]))
    for cols, block in column_blocks(ts.n, k.shape[1]):
        block[...] = k[:, cols]
        kernel_smoother_block(ts, block, epsilon, points[:, cols], cols.start)
    return points


def kernel_smoother_block(ts: TrainingSet, w, epsilon: float, out, first: int) -> np.ndarray:
    """kernel_smoother of the N x B weights w into out (d_in x B) with a
    resolved epsilon, for the columns first, ..., first + B - 1 of a larger
    batch: w is clipped in place, and an error names the column's index in
    the batch."""
    floor = rank_floor(ts.n, np.maximum(w.max(axis=0), -w.min(axis=0)))
    np.maximum(w, 0.0, out=w)
    denom = w.sum(axis=0) + epsilon
    degenerate = np.flatnonzero(denom <= floor)
    if degenerate.size:
        j = degenerate[0]
        raise DegenerateNormalizer(
            f"clipped weight sum {denom[j]:.3e} of column {first + j} is numerically zero; "
            "set epsilon > 0 to stabilize"
        )
    return np.divide(ts.points.T @ w, denom, out=out)
