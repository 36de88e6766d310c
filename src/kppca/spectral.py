"""Dense and leading-q symmetric eigendecompositions, and centering.

Everything downstream (primal and dual training, the sampling operator,
conditional covariances) is built on the decompositions produced here, so
this module pins down the conventions once: eigenvalues are sorted in
descending order, those at or below the one rank floor (rank_floor) are
clamped to zero, and eigenvector signs are made deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite


def _require_finite(a, what):
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{what} contains NaN or Inf entries")


@dataclass(frozen=True)
class EigenDecomposition:
    """Descending eigenpairs of a symmetric PSD matrix.

    eigenvalues[p] pairs with eigenvectors[:, p]. Values at or below the
    rank floor are stored as exactly 0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def rank(self):
        """Number of eigenvalues above the rank floor."""
        return int(np.count_nonzero(self.eigenvalues > 0.0))


def rank_floor(n: int, scale):
    """What counts as zero among the eigenvalues, pivots and weight sums of
    an n x n matrix whose largest diagonal entry as formed (before centering)
    is scale: numpy.linalg.matrix_rank's n eps scale, times 8 for margin."""
    return 8.0 * n * np.finfo(float).eps * np.maximum(scale, 0.0)


def sym_eig(a) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric PSD-up-to-noise N x N array:
    top_eig(a, N), whose conventions make repeated runs and
    cross-implementation comparisons deterministic."""
    a = np.asarray(a, dtype=float)
    return top_eig(a, a.shape[0] if a.ndim else 0)


_RESIDUAL_TOL = 1e-12  # of the largest Ritz value, for ||A x - theta x||


def _block_lanczos(a, count, width):
    # the leading Ritz values ascending and their vectors, or None once the
    # full solve is the cheaper way on
    n = a.shape[0]
    cap = n // 2 // width * width  # rows of the basis, whole blocks
    basis, t = np.empty((cap, n)), np.zeros((cap, cap))  # t: basis a basis^T, lower
    lead = slice(-count, None)  # eigh sorts ascending
    # the start: a times i j / phi mod 1 less 1/2, exact in uint64 (0x9E3779B9 = 2**32 / phi)
    ij = np.arange(1, width + 1, dtype=np.uint64)[:, None] * np.arange(1, n + 1, dtype=np.uint64)
    block = ((ij * np.uint64(0x9E3779B9) & np.uint64(0xFFFFFFFF)) * 2.0**-32 - 0.5) @ a
    k, check, last = 0, width, None
    while True:
        # orthonormal, then orthogonal to the basis once more: a block near
        # rank deficiency loses orthogonality in its normalization
        q = np.linalg.qr(block.T)[0].T
        q -= (q @ basis[:k].T) @ basis[:k]
        basis[k : k + width] = np.linalg.qr(q.T)[0].T
        k += width
        block = basis[k - width : k] @ a
        t[k - width : k, :k] = h = block @ basis[:k].T
        block -= h @ basis[:k]
        if k < check:
            continue
        theta, y = np.linalg.eigh(t[:k, :k])
        # a x - theta x for x = basis^T y is the new block times y's last rows
        worst = float(np.linalg.norm(y[-width:, lead].T @ block, axis=1).max())
        target = _RESIDUAL_TOL * theta[-1]
        if worst <= target:
            x = y[:, lead].T @ basis[:k]
            true = float(np.linalg.norm(x @ a - theta[lead, None] * x, axis=1).max())
            return (theta[lead], x.T) if true <= target else None
        ahead = width  # columns still needed at the rate since the last check
        if last is not None:
            gained = worst < last and target > 0.0
            ahead = (k - done) * np.log(worst / target) / np.log(last / worst) if gained else np.inf
        if k + max(ahead, width) > cap:
            return None
        done, last, check = k, worst, k + max(ahead / 2, width)


def top_eig(a, count: int, scale=None) -> EigenDecomposition:
    """The leading `count` eigenpairs of a symmetric PSD N x N array:
    eigenvalues descending, those at or below rank_floor(N, scale) set to 0,
    each eigenvector's largest-magnitude entry positive. scale is the matrix's
    largest diagonal entry before centering, a's own unless given.

    Block Lanczos with full reorthogonalization and Rayleigh-Ritz (Golub and
    Underwood 1977; Musco and Musco, NeurIPS 2015), in blocks of b = count + 5
    columns. The first is a times a fixed block, i j / phi mod 1 less 1/2 at
    32 bits (no random draw); each next is a times the last, orthogonalized
    twice against the basis. The Ritz pairs are returned once their Lanczos
    residual and then their true residual ||a x - theta x|| are below
    _RESIDUAL_TOL of the largest. A basis of N/2 columns costs about one full
    eigensolve (measured at one BLAS thread, N = 500 to 2000), so the full
    solve takes over when b > N/8, when the true residual fails, or when the
    columns built plus those predicted at the rate since the last check pass
    N/2; the next check comes after half those predicted. The same input and
    count give the same bits.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix of at least 1x1, got shape {a.shape}")
    _require_finite(a, "matrix")
    n = a.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"count={count} outside 1..{n}")
    floor = rank_floor(n, a.diagonal().max() if scale is None else scale)
    try:
        theta, vectors = (count + 5 <= n // 8 and _block_lanczos(a, count, count + 5)) or np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    values, vectors = theta[: -count - 1 : -1], vectors[:, : -count - 1 : -1].copy()
    # each column's largest-magnitude entry made positive; np.argmax takes
    # the first maximum, which breaks ties toward the lowest index
    vectors[:, vectors[np.argmax(np.abs(vectors), axis=0), np.arange(count)] < 0] *= -1.0
    return EigenDecomposition(eigenvalues=np.where(values <= floor, 0.0, values), eigenvectors=vectors)


def gram_means(a) -> np.ndarray:
    """The column means of a symmetric N x N Gram matrix followed by its
    grand mean: the N + 1 numbers that centering, in or out of sample,
    needs."""
    col = np.asarray(a, dtype=float).mean(axis=0)
    return np.append(col, col.mean())


def center_in_place(a, means) -> np.ndarray:
    """Double-center the N x M kernel columns a in place from the training
    Gram matrix's gram_means and return a: entry (i, j) becomes
    a_ij - mean_l a_lj - m_i + g. For the Gram matrix itself this is
    K_c = J K J with J = I - (1/N) 11^T."""
    a -= a.mean(axis=0)
    a -= means[:-1, None]
    a += means[-1]
    return a


def center_gram(k) -> np.ndarray:
    """Double-center a Gram matrix into a new array: K_c = J K J with
    J = I - (1/N) 11^T."""
    k = np.array(k, dtype=float)
    return center_in_place(k, gram_means(k))


def center_columns(x):
    """Subtract the column mean from a d x N matrix.

    Returns (centered, mean) where mean is the d-vector average over the N
    columns, measured from the first column so that identical columns
    center to exact zeros.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {x.shape}")
    _require_finite(x, "matrix")
    mean = x[:, 0] + (x - x[:, :1]).mean(axis=1)
    return x - mean[:, None], mean
