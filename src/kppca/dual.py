"""The kernel-side model: dual training on the centered Gram matrix, MAP
projection and reconstruction in kernel space, and probabilistic generation
of kernel representations.

The query functions work on batches, one query per column: d_in x M inputs
or N x M centered kernel columns in, q x M latent codes out, and back. A
single query is the batch with one column. The loadings are a = E_q diag(s),
so the latent normal matrix a^T K_c a + sigma2 I is diag(s^2 lambda +
sigma2) and K_c a is E_q diag(lambda s); projecting or reconstructing M
columns costs O(N q M).

Those functions take and return whole N x M blocks and are the reference.
project_inputs and preimage_codes run the same steps from inputs or latent
codes to their q x M or d_in x M results through the column-block driver
(kernels.column_blocks), as preimage.kernel_smoother does from kernel
columns: each N x B block is built, mapped and preimaged in one reused
buffer, so their working memory is O(N B) on top of the inputs and
outputs, whatever M is; project_inputs maps each block with dual_latent_map.
Blocked results differ from the reference only by the rounding of BLAS
products over B instead of M columns.

A fitted DualModel is the dual solution itself: the leading q eigenpairs
(lambda_q, E_q) of the centered Gram matrix, sigma2, the sum of the
discarded eigenvalues, the training Gram matrix's column means and grand
mean (which center new kernel columns), and the training inputs. It holds
O(N (d_in + q)) numbers and nothing N x N; sampling, dual_conditional_kernel
and dual_marginal_loglik rebuild the Gram matrix, once per call. Only
_centered_gram (K_c) and _centered_gram_factor (J L, K = L L^T) build it.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import LatentExceedsRank, NotCentered, RankDeficient, SigmaZero
from .kernels import (
    KernelSpec,
    TrainingSet,
    centered_kernel_block,
    column_blocks,
    gram,
)
from .preimage import _resolve_epsilon, kernel_smoother_block
from .primal import (
    _LOG_2PI,
    GaussianSpec,
    _as_columns,
    _check_choice,
    _posterior_factor,
    _resolve,
)
from .spectral import center_in_place, gram_means, rank_floor, top_eig

@dataclass(frozen=True)
class DualModel:
    """Trained kernel-space model.

    The leading q eigenpairs (eigenvalues[p], e[:, p]) of the centered Gram
    matrix carry the latent space; the loadings a and their scales s follow
    from them and sigma2. tail is the sum of the discarded eigenvalues
    lambda_{q+1..N} (0 when lambda_{q+1} is at the rank floor), and means
    the training Gram matrix's gram_means.
    """

    sigma2: float
    eigenvalues: np.ndarray
    e: np.ndarray
    tail: float
    means: np.ndarray
    spec: KernelSpec
    ts: TrainingSet

    @property
    def q(self):
        return self.eigenvalues.shape[0]

    @property
    def n(self):
        return self.e.shape[0]

    @property
    def s(self):
        """Loading scales s_p = sqrt(1/N - sigma2 / lambda_p), clipped at 0."""
        return np.sqrt(np.maximum(1.0 / self.n - self.sigma2 / self.eigenvalues, 0.0))

    @property
    def a(self):
        """Dual loadings a = E_q diag(s), one column per latent component."""
        return self.e * self.s


def _centered_gram(spec, ts):
    # K_c = J K J, K's gram_means and the rank floor's scale max diag K,
    # taken before centering, where the rounding comes from
    kc = gram(spec, ts)
    scale = kc.diagonal().max()
    means = gram_means(kc)
    return center_in_place(kc, means), means, scale


def fit_dual(spec: KernelSpec, ts: TrainingSet,
             q: int | None = None, sigma2: float | None = None) -> DualModel:
    """Closed-form fit on a training set.

    Exactly one of q and sigma2 must be given, mirroring fit_primal. The
    Gram matrix is built once and centered in place; only its leading
    eigenpairs are computed (top_eig): one beyond q, or with sigma2 enough
    that the last has lambda_k / N < sigma2. With q given, sigma2 is the
    mean discarded eigenvalue (tr K_c - sum lambda_q) / (N (N - q)). The
    latent dimension may not exceed the numerical rank of the centered Gram
    matrix, which is at most N - 1: the constant direction is always in its
    null space. The rank counts the eigenvalues above
    spectral.rank_floor(N, max diag K), K the Gram matrix before centering.
    """
    _check_choice(q, sigma2)
    n = ts.n
    if q is not None and q > n:
        raise LatentExceedsRank(f"q={q} outside 1..N={n}")
    kc, means, scale = _centered_gram(spec, ts)
    # rounding can leave the trace below 0 when every eigenvalue is 0
    trace = max(float(np.trace(kc)), 0.0)
    if q is not None:
        count = min(q + 1, n)
    elif trace >= (n - 2) * n * sigma2:
        count = n
    else:
        # k eigenvalues with lambda / N >= sigma2 sum to at most the trace,
        # so the (trace / (N sigma2) + 1)-th already falls below; one more
        # keeps a tie at the threshold on the computed side
        count = int(trace / (n * sigma2)) + 2
    eig = top_eig(kc, count, scale)
    q, s2, tail = _resolve(eig.eigenvalues, trace, n, q, sigma2)
    return DualModel(sigma2=s2, eigenvalues=eig.eigenvalues[:q].copy(),
                     e=eig.eigenvectors[:, :q].copy(), tail=tail, means=means, spec=spec, ts=ts)


def kpca_limit(m: DualModel) -> DualModel:
    """The same model in the noiseless limit: sigma2 = 0 with q unchanged,
    which turns MAP projection/reconstruction into classical kernel PCA."""
    return replace(m, sigma2=0.0)


def _normal_diagonal(m):
    # diagonal of the latent normal matrix a^T K_c a + sigma2 I
    return m.s**2 * m.eigenvalues + m.sigma2


def _map_scales(m):
    # the latent map's diagonal s / (s^2 lambda + sigma2) on E_q^T k
    if m.eigenvalues[-1] <= 0.0:
        raise RankDeficient(f"lambda_{m.q} is at the clamp floor; reduce q")
    return m.s / _normal_diagonal(m)


def dual_latent_map(m: DualModel, k) -> np.ndarray:
    """MAP latent codes (q x M) of centered kernel columns k (N x M):
    (a^T K_c a + sigma2 I)^-1 a^T k = diag(s / (s^2 lambda + sigma2)) E_q^T k.

    For a maximum-likelihood model s_p^2 lambda_p + sigma2 = lambda_p / N,
    recovering the N Lambda^-1 a^T k_c shortcut.
    """
    k = _as_columns(k, m.n, "kernel columns")
    return _map_scales(m)[:, None] * (m.e.T @ k)


def dual_training_codes(m: DualModel) -> np.ndarray:
    """MAP latent codes (q x N) of the training points themselves: the
    dual_latent_map of the centered Gram matrix's columns, which by
    E_q^T K_c = Lambda_q E_q^T is diag(s lambda / (s^2 lambda + sigma2)) E_q^T
    and needs no N x N matrix."""
    return (_map_scales(m) * m.eigenvalues)[:, None] * m.e.T


def dual_reconstruct(m: DualModel, h) -> np.ndarray:
    """MAP kernel representations (N x M) of latent codes h (q x M):
    K_c a h = E_q diag(lambda s) h."""
    h = _as_columns(h, m.q, "latent codes")
    return _reconstruct_into(m, h, np.empty((m.n, h.shape[1])))


def _reconstruct_into(m, h, out):
    return np.matmul(m.e, (m.eigenvalues * m.s)[:, None] * h, out=out)


def project_inputs(m: DualModel, x) -> np.ndarray:
    """MAP latent codes (q x M) of the inputs x (d_in x M, one per column):
    dual_latent_map of their centered_kernel_vectors, one column block at
    a time."""
    x = _as_columns(x, m.ts.d_in, "inputs")
    h = np.empty((m.q, x.shape[1]))
    for cols, block in column_blocks(m.n, x.shape[1]):
        centered_kernel_block(m.spec, m.ts, m.means, x[:, cols], block)
        h[:, cols] = dual_latent_map(m, block)
    return h


def preimage_codes(m: DualModel, h, epsilon: float | None = None) -> np.ndarray:
    """Input-space preimages (d_in x M) of latent codes h (q x M): the
    kernel_smoother of their dual_reconstruct, with its epsilon (default
    1e-3 N), one column block at a time."""
    epsilon = _resolve_epsilon(epsilon, m.n)
    h = _as_columns(h, m.q, "latent codes")
    points = np.empty((m.ts.d_in, h.shape[1]))
    for cols, block in column_blocks(m.n, h.shape[1]):
        _reconstruct_into(m, h[:, cols], block)
        kernel_smoother_block(m.ts, block, epsilon, points[:, cols], cols.start)
    return points


def _centered_gram_factor(m):
    # J L with K = L L^T, so (J L)(J L)^T = J K J = K_c: LAPACK's L (r = N)
    # when K is numerically positive definite, else a greedy pivoted one on
    # the largest remaining diagonal entry, stopped at the rank floor
    k = gram(m.spec, m.ts)
    try:
        f = np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        d = k.diagonal().copy()
        stop = rank_floor(m.n, d.max())
        f = np.zeros((m.n, m.n))
        for j in range(m.n):
            i = int(np.argmax(d))
            if d[i] <= stop:
                f = f[:, :j]
                break
            col = (k[:, i] - f[:, :j] @ f[i, :j]) / np.sqrt(d[i])
            f[:, j] = col
            d -= col * col
    f -= f.mean(axis=0)
    return f


def _noise_factor(m):
    # sigma J L: the factor of the conditional covariance sigma2 K_c, shared
    # by dual_sample and dual_conditional_kernel
    jl = _centered_gram_factor(m)
    jl *= np.sqrt(m.sigma2)
    return jl


def samples_from_noise(m: DualModel, u, factor) -> np.ndarray:
    """Deterministic sampling map from noise columns to kernel
    representations (N x M), the model's ancestral draw:

        k = K_c a u[:q] + factor u[q:],

    the dual_reconstruct of the prior codes h = u[:q] plus the conditional
    noise, where factor is dual_conditional_kernel's N x r cov_factor
    sigma J L and u is (q + r) x M. With standard-normal u the covariance
    of k is K_c a a^T K_c + sigma2 K_c = E diag(c^2) E^T, the trained
    marginal over the whole spectrum: c_p = lambda_p / sqrt(N) on the
    retained components and sigma sqrt(lambda_p) on the discarded ones,
    whenever sigma2 <= lambda_q / N, as for every model that fit_dual or
    kpca_limit returns. Exposed so callers can pin the noise, e.g. in tests.
    """
    u = _as_columns(u, m.q + factor.shape[1], "noise")
    k = _reconstruct_into(m, u[: m.q], np.empty((m.n, u.shape[1])))
    k += factor @ u[m.q :]
    return k


def dual_sample(m: DualModel, rng, count: int) -> np.ndarray:
    """Draw `count` kernel representations from the trained marginal, as
    the columns of an N x count matrix: latent codes from the prior, then
    kernel columns from dual_conditional_kernel at those codes.

    rng may be a seed or a numpy Generator; a fixed seed gives bit-identical
    output.
    """
    factor = _noise_factor(m)
    u = np.random.default_rng(rng).standard_normal((m.q + factor.shape[1], count))
    return samples_from_noise(m, u, factor)


def dual_latent_posterior(m: DualModel, k) -> GaussianSpec:
    """Posterior of the latent codes of centered kernel columns k (N x M):
    means dual_latent_map's q x M codes and, shared by every column,
    covariance sigma2 (a^T K_c a + sigma2 I)^-1, as on the primal side."""
    if m.sigma2 <= 0.0:
        raise SigmaZero("posterior is degenerate at sigma2 == 0; use dual_latent_map")
    return GaussianSpec(mean=dual_latent_map(m, k),
                        cov_factor=_posterior_factor(_normal_diagonal(m), np.eye(m.q), m.sigma2))


def dual_conditional_kernel(m: DualModel, h) -> GaussianSpec:
    """Distribution of kernel representations given latent codes h (q x M):
    means K_c a h (N x M) and, shared by every column, covariance
    sigma2 K_c, factored as sigma J L (N x r, r the numerical rank of the
    Gram matrix)."""
    return GaussianSpec(mean=dual_reconstruct(m, h), cov_factor=_noise_factor(m))


def dual_marginal_loglik(m: DualModel, k) -> np.ndarray:
    """Log-densities (length M) of kernel representations k (N x M) under
    the trained marginal; a data set's log-likelihood is their sum.

    The marginal covariance E diag(c^2) E^T needs the whole spectrum: once
    per call, whatever M is, this rebuilds the centered Gram matrix as
    fit_dual does and runs top_eig for all N pairs (the full eigensolve).
    A centered Gram matrix always has the constant vector in its null
    space, so this is the degenerate Gaussian's density on the rank
    directions (the pseudo-determinant replaces the determinant), and a
    column with a component along a null direction is refused; a centered
    kernel vector has none. Only the log form is exposed: the normalizer
    multiplies up to N eigenvalues and underflows as a raw density. Needs
    sigma2 > 0 and at most one null direction.
    """
    if m.sigma2 <= 0.0:
        raise SigmaZero("marginal density is degenerate at sigma2 == 0")
    k = _as_columns(k, m.n, "kernel columns")
    kc, _, scale = _centered_gram(m.spec, m.ts)
    eig = top_eig(kc, m.n, scale)
    lam, e = eig.eigenvalues, eig.eigenvectors
    rank = eig.rank()
    if rank < m.n - 1:
        raise RankDeficient(f"marginal covariance has {m.n - rank} null directions; "
                            "at most one (the centering direction) is allowed")
    coords = e.T @ k
    size = np.maximum(np.linalg.norm(k, axis=0), np.sqrt(lam[0]))
    off = np.flatnonzero((np.abs(coords[rank:]) > 1e-8 * size).any(axis=0))
    if off.size:
        raise NotCentered(f"kernel column {off[0]} has a component along the null direction of the "
                          "marginal covariance (the constant vector for a centered Gram matrix)")
    c = np.concatenate([lam[: m.q] / np.sqrt(m.n), np.sqrt(m.sigma2 * lam[m.q : rank])])
    z = coords[:rank] / c[:, None]
    return -0.5 * (rank * _LOG_2PI + 2.0 * float(np.sum(np.log(c))) + np.sum(z * z, axis=0))
