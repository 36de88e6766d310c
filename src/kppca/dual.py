"""The kernel-side model: dual training on the centered Gram matrix, MAP
projection and reconstruction in kernel space, the marginal sampling operator,
and probabilistic generation of kernel representations.

The query functions work on batches, one query per column: N x M centered
kernel columns in, q x M latent codes out, and back. A single query is the
batch with one column. The loadings are a = E_q diag(s), so the latent
normal matrix a^T K_c a + sigma2 I is diag(s^2 lambda + sigma2) and K_c a is
E_q diag(lambda s); projecting or reconstructing M columns costs O(N q M).

A fitted DualModel keeps the full eigendecomposition of the centered Gram
matrix (generation needs the entire spectrum), the Gram matrix itself, and
the training inputs, so projecting new points and preimaging need no side
channel.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    LatentExceedsRank,
    NotCentered,
    RankDeficient,
    SigmaZero,
    ZeroSpectrum,
)
from .kernels import KernelSpec, TrainingSet
from .primal import _LOG_2PI, GaussianSpec, _as_columns, _posterior_factor, _resolve_latent
from .spectral import EigenDecomposition, SymMatrix, psd_sqrt_factor, sym_eig


@dataclass(frozen=True)
class DualModel:
    """Trained kernel-space model.

    The leading q eigenpairs (lambda_p, e_p) of the centered Gram matrix kc
    carry the latent space; the loadings a and their scales s follow from
    them and sigma2.
    """

    sigma2: float
    q: int
    eigenvalues: np.ndarray
    e: np.ndarray
    kc: SymMatrix
    spec: KernelSpec
    ts: TrainingSet

    @property
    def n(self):
        return self.eigenvalues.shape[0]

    @property
    def s(self):
        """Loading scales s_p = sqrt(1/N - sigma2 / lambda_p), clipped at 0."""
        return np.sqrt(np.maximum(1.0 / self.n - self.sigma2 / self.eigenvalues[: self.q], 0.0))

    @property
    def a(self):
        """Dual loadings a = E_q diag(s), one column per latent component."""
        return self.e[:, : self.q] * self.s

    def rank(self):
        return int(np.count_nonzero(self.eigenvalues > 0.0))


def fit_dual(kc: SymMatrix, spec: KernelSpec, ts: TrainingSet,
             q: int | None = None, sigma2: float | None = None) -> DualModel:
    """Closed-form fit from an already centered Gram matrix.

    Exactly one of q and sigma2 must be given, mirroring fit_primal. The
    latent dimension may not exceed the numerical rank of the Gram matrix
    (for a centered kernel this is at most N - 1, the constant direction is
    always in the null space).
    """
    n = kc.n
    if ts.n != n:
        raise DimensionMismatch(f"Gram matrix is {n} x {n} but training set has {ts.n} points")
    scale = max(1.0, float(np.max(np.abs(kc.entries))))
    row_sums = kc.entries.sum(axis=1)
    if np.max(np.abs(row_sums)) > 1e-6 * scale:
        raise NotCentered(f"row sums reach {np.max(np.abs(row_sums)):.3e}; center the Gram matrix first")
    eig = sym_eig(kc)
    rank = eig.rank()
    if rank == 0:
        raise ZeroSpectrum("centered Gram matrix has no positive eigenvalues")
    if q is not None and not 1 <= q <= rank:
        raise LatentExceedsRank(f"q={q} outside 1..rank={rank}")
    q, s2 = _resolve_latent(eig.eigenvalues, q, sigma2, rank, n)
    return DualModel(sigma2=s2, q=q, eigenvalues=eig.eigenvalues, e=eig.eigenvectors,
                     kc=kc, spec=spec, ts=ts)


def kpca_limit(m: DualModel) -> DualModel:
    """The same model in the noiseless limit: sigma2 = 0 with q unchanged,
    which turns MAP projection/reconstruction into classical kernel PCA."""
    return replace(m, sigma2=0.0)


def _normal_diagonal(m):
    # diagonal of the latent normal matrix a^T K_c a + sigma2 I
    return m.s**2 * m.eigenvalues[: m.q] + m.sigma2


def dual_latent_map(m: DualModel, k) -> np.ndarray:
    """MAP latent codes (q x M) of centered kernel columns k (N x M):
    (a^T K_c a + sigma2 I)^-1 a^T k = diag(s / (s^2 lambda + sigma2)) E_q^T k.

    For a maximum-likelihood model s_p^2 lambda_p + sigma2 = lambda_p / N,
    recovering the N Lambda^-1 a^T k_c shortcut.
    """
    k = _as_columns(k, m.n, "kernel columns")
    if m.eigenvalues[m.q - 1] <= 0.0:
        raise RankDeficient(f"lambda_{m.q} is at the clamp floor; reduce q")
    return (m.s / _normal_diagonal(m))[:, None] * (m.e[:, : m.q].T @ k)


def dual_reconstruct(m: DualModel, h) -> np.ndarray:
    """MAP kernel representations (N x M) of latent codes h (q x M):
    K_c a h = E_q diag(lambda s) h."""
    h = _as_columns(h, m.q, "latent codes")
    return m.e[:, : m.q] @ ((m.eigenvalues[: m.q] * m.s)[:, None] * h)


def _marginal_scales(m):
    # c_p = lambda_p / sqrt(N) over the retained components and
    # sigma sqrt(lambda_p) over the discarded ones; the marginal covariance
    # of kernel representations is E diag(c^2) E^T
    c = np.empty(m.n)
    c[: m.q] = m.eigenvalues[: m.q] / np.sqrt(m.n)
    c[m.q:] = np.sqrt(m.sigma2) * np.sqrt(m.eigenvalues[m.q:])
    return c


def build_sampler(m: DualModel) -> np.ndarray:
    """The symmetric square-root factor of the marginal kernel covariance.

    B = E diag(c) E^T with c_p = lambda_p / sqrt(N) over the retained
    components and c_p = sigma sqrt(lambda_p) over the discarded ones, so
    that B B^T matches the trained marginal covariance of kernel
    representations and k_c = B u with standard normal u samples from it.
    The second block keeps B invertible whenever sigma2 > 0 and the spectrum
    is positive.
    """
    return (m.e * _marginal_scales(m)) @ m.e.T


def samples_from_noise(m: DualModel, u) -> np.ndarray:
    """Deterministic sampling map: columns of u (N x M standard-normal draws)
    to columns of kernel representations. Exposed so callers can pin the
    noise, e.g. for grid sweeps or tests."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != m.n:
        raise DimensionMismatch(f"noise has {u.shape[0]} rows, model expects {m.n}")
    return build_sampler(m) @ u


def dual_sample(m: DualModel, rng, count: int) -> np.ndarray:
    """Draw `count` kernel representations from the trained marginal, as
    the columns of an N x count matrix.

    rng may be a seed or a numpy Generator; a fixed seed gives bit-identical
    output.
    """
    u = np.random.default_rng(rng).standard_normal((m.n, count))
    return samples_from_noise(m, u)


def dual_latent_posterior(m: DualModel, k) -> GaussianSpec:
    """Posterior of the latent code given one centered kernel vector; the
    mean coincides with dual_latent_map and the covariance is
    sigma2 (a^T K_c a + sigma2 I)^-1, as on the primal side."""
    if m.sigma2 <= 0.0:
        raise SigmaZero("posterior is degenerate at sigma2 == 0; use dual_latent_map")
    mean = dual_latent_map(m, np.reshape(k, (-1, 1)))[:, 0]
    factor = _posterior_factor(np.diag(_normal_diagonal(m)), m.sigma2)
    return GaussianSpec(mean=mean, cov_factor=factor, dim=m.q)


def _gram_eig(m):
    # the model already stores the eigendecomposition of kc; rewrap it
    floor = 1e-12 * max(1.0, float(m.eigenvalues[0]))
    return EigenDecomposition(eigenvalues=m.eigenvalues, eigenvectors=m.e,
                              clamp_floor=floor, raw_eigenvalues=m.eigenvalues)


def dual_conditional_kernel(m: DualModel, h) -> GaussianSpec:
    """Distribution of kernel representations given one latent code:
    mean K_c a h, covariance sigma2 K_c."""
    mean = dual_reconstruct(m, np.reshape(h, (-1, 1)))[:, 0]
    factor = np.sqrt(m.sigma2) * psd_sqrt_factor(_gram_eig(m))
    return GaussianSpec(mean=mean, cov_factor=factor, dim=m.n)


def dual_marginal_loglik(m: DualModel, k) -> float:
    """Log-density of one kernel representation under the trained marginal.

    The marginal covariance E diag(c^2) E^T is singular along the null
    directions of the spectrum, and a centered Gram matrix always has one:
    the constant vector. The density is that of the degenerate Gaussian on
    the rank directions (the pseudo-determinant replaces the determinant),
    so k must have no component along the null direction; a centered kernel
    vector has none. Only the log form is exposed: the normalizer multiplies
    up to N eigenvalues and underflows quickly as a raw density. Requires
    sigma2 > 0 and at most one null direction.
    """
    if m.sigma2 <= 0.0:
        raise SigmaZero("marginal density is degenerate at sigma2 == 0")
    rank = m.rank()
    if rank < m.n - 1:
        raise RankDeficient(f"marginal covariance has {m.n - rank} null directions; "
                            "at most one (the centering direction) is allowed")
    k = _as_columns(np.reshape(k, (-1, 1)), m.n, "kernel vector")[:, 0]
    coords = m.e.T @ k
    scale = max(float(np.linalg.norm(k)), float(np.sqrt(m.eigenvalues[0])))
    if np.any(np.abs(coords[rank:]) > 1e-8 * scale):
        raise NotCentered("kernel vector has a component along the null direction of the "
                          "marginal covariance (the constant vector for a centered Gram matrix)")
    c = _marginal_scales(m)[:rank]
    z = coords[:rank] / c
    return -0.5 * (rank * _LOG_2PI + 2.0 * float(np.sum(np.log(c))) + float(z @ z))
