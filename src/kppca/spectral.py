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


def _fix_signs(vectors):
    # Largest-magnitude entry of each column is made positive; np.argmax
    # takes the first maximum, which breaks ties toward the lowest index.
    idx = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[idx, np.arange(vectors.shape[1])] < 0
    out = vectors.copy()
    out[:, flip] *= -1.0
    return out


def rank_floor(n: int, scale):
    """What counts as zero among the eigenvalues, pivots and weight sums of
    an n x n matrix whose largest diagonal entry as formed (before centering)
    is scale: numpy.linalg.matrix_rank's n eps scale, times 8 for margin."""
    return 8.0 * n * np.finfo(float).eps * np.maximum(scale, 0.0)


def _descending(values, vectors, floor):
    # ascending eigh output in the conventions of EigenDecomposition
    values = values[::-1].copy()
    return EigenDecomposition(eigenvalues=np.where(values <= floor, 0.0, values),
                              eigenvectors=_fix_signs(vectors[:, ::-1]))


def sym_eig(a) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric PSD-up-to-noise N x N array:
    top_eig(a, N), whose conventions make repeated runs and
    cross-implementation comparisons deterministic."""
    a = np.asarray(a, dtype=float)
    return top_eig(a, a.shape[0] if a.ndim else 0)


# Subspace iteration stops once every wanted Ritz pair has a residual
# ||A x - theta x|| below this fraction of the largest Ritz value.
_RESIDUAL_TOL = 1e-12


def _subspace_iteration(a, count, width, floor):
    # the leading pairs, or None once the full solve is the cheaper way on
    n = a.shape[0]
    image = a @ np.random.default_rng(0).standard_normal((n, width))
    lead = slice(width - count, width)  # eigh sorts ascending
    spent = 0
    while True:
        basis, _ = np.linalg.qr(image)
        image = a @ basis
        t = basis.T @ image
        theta, y = np.linalg.eigh((t + t.T) / 2.0)
        ritz = basis @ y
        image = image @ y  # a times the Ritz vectors: the next block
        worst = float(np.linalg.norm(image[:, lead] - ritz[:, lead] * theta[lead], axis=0).max())
        target = _RESIDUAL_TOL * theta[-1]
        if worst <= target:
            return _descending(theta[lead], ritz[:, lead], floor)
        spent += width
        if spent > width:
            # sweeps still needed at the last sweep's rate; a sweep that
            # gained nothing means the block will not get there
            rate = worst / last
            ahead = np.log(target / worst) / np.log(rate) if rate < 1.0 and target > 0.0 else np.inf
            if spent + width * ahead > 2 * n:
                return None
        last = worst


def top_eig(a, count: int, scale=None) -> EigenDecomposition:
    """The leading `count` eigenpairs of a symmetric PSD N x N array:
    eigenvalues descending, those at or below rank_floor(N, scale) set to 0,
    each eigenvector's largest-magnitude entry positive. scale is the matrix's
    largest diagonal entry before centering, a's own unless given.

    Subspace iteration with Rayleigh-Ritz, started from the randomized
    range finder (Halko, Martinsson and Tropp, SIAM Review 2011): a block of
    p = 2 count + 10 orthonormal columns spans a times a Gaussian matrix
    (fixed seed), and each sweep replaces it by the orthonormalized a-image
    of its Ritz vectors, until the leading `count` Ritz pairs pass the
    residual test. A sweep costs about p/(2N) of the full eigensolve, so
    the full solve takes over when the block is wider than N/8, or when the
    sweeps done plus those the last sweep's rate of convergence predicts
    would cost more than it. The same input and count give the same bits.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix of at least 1x1, got shape {a.shape}")
    _require_finite(a, "matrix")
    n = a.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"count={count} outside 1..{n}")
    floor = rank_floor(n, a.diagonal().max() if scale is None else scale)
    width = 2 * count + 10
    try:
        found = _subspace_iteration(a, count, width, floor) if width <= n // 8 else None
        if found is None:
            theta, vectors = np.linalg.eigh(a)
            found = _descending(theta[n - count :], vectors[:, n - count :], floor)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    return found


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
