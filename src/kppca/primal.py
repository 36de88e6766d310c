"""Probabilistic PCA over explicit features: closed-form training, the latent
posterior, MAP projection and reconstruction, and the marginal
log-likelihood. The library's reference for the dual model, which shares
its noise estimator, (q | sigma2) resolution, posterior factor and
explained variance; the CLI and the model file know only the dual model.

Conventions: data matrices are d x N with one sample per column, the centered
covariance is the unnormalized X_c X_c^T (the 1/N lives inside the loading
formula), and q is at most its numerical rank, in both fits. The loadings
are defined only up to a rotation (Tipping and Bishop, JRSS-B 1999), so
every formula reads them alone, through their thin SVD w = U diag(s) V^T:
loadings w R give the same density and codes rotated by R^T.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    LatentExceedsRank,
    SigmaTooLarge,
    SigmaZero,
    ZeroSpectrum,
)
from .spectral import center_columns, sym_eig

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GaussianSpec:
    """A Gaussian as mean plus a covariance factor B with covariance = B B^T."""

    mean: np.ndarray
    cov_factor: np.ndarray

    def covariance(self):
        return self.cov_factor @ self.cov_factor.T


@dataclass(frozen=True)
class PrimalModel:
    """Trained feature-space model.

    w holds the d x q loadings; fit_primal's column p is
    sqrt(lambda_p / N - sigma2) v_p, with v_p the p-th eigenvector of the
    centered covariance, and any w R with R orthogonal is the same model.
    eigenvalues is the full length-N spectrum of the centered covariance
    (padded with zeros when d < N), which explained_variance needs.
    """

    mu: np.ndarray
    w: np.ndarray
    sigma2: float
    eigenvalues: np.ndarray

    @property
    def d(self):
        return self.mu.shape[0]

    @property
    def q(self):
        return self.w.shape[1]

    @property
    def tail(self):
        """Sum of the discarded eigenvalues lambda_{q+1..N}."""
        return float(self.eigenvalues[self.q :].sum())


def _sigma2_from_tail(tail, n, q):
    # the maximum-likelihood sigma2, sum_{p>q} lambda_p / (N (N - q)); 0 at q == N
    return tail / (n * (n - q)) if q < n else 0.0


def _check_choice(q, sigma2):
    """Exactly one of q and sigma2, a q of at least 1, and a sigma2 that is
    a finite value >= 0."""
    if (q is None) == (sigma2 is None):
        raise ValueError("exactly one of q and sigma2 must be given")
    if q is not None and q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    if sigma2 is not None and not (np.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError(f"sigma2 must be a finite value >= 0, got {sigma2}")


def _resolve(lam, trace, n, q, sigma2):
    """(q, sigma2, tail) of a fit on N samples from one of q and sigma2, the
    trace of the centered covariance or Gram matrix and its leading clamped
    eigenvalues lam: one beyond q, or with sigma2 all N or until one has
    lambda / N < sigma2. q is at most the rank, the count of positive lam;
    sigma2 implies the count with lambda / N >= sigma2. The tail,
    trace - sum lambda_q, is 0 when lambda_{q+1} is at the rank floor."""
    rank = int(np.count_nonzero(lam > 0.0))
    if rank == 0:
        raise ZeroSpectrum("every eigenvalue of the centered data is 0")
    if q is None:
        if sigma2 > lam[0] / n:
            raise SigmaTooLarge(f"sigma2={sigma2} exceeds lambda_1/N={lam[0] / n}")
        q = int(np.count_nonzero(lam[:rank] / n >= sigma2))
    elif q > rank:
        raise LatentExceedsRank(f"q={q} outside 1..rank={rank}")
    tail = 0.0
    if q < lam.size and lam[q] > 0.0:
        tail = max(trace - float(lam[:q].sum()), 0.0)
    return q, _sigma2_from_tail(tail, n, q) if sigma2 is None else float(sigma2), tail


def explained_variance(m) -> float:
    """Fraction of the total spectrum captured by the q retained components
    of a primal or dual model: sum lambda_q / (sum lambda_q + tail)."""
    retained = float(m.eigenvalues[: m.q].sum())
    total = retained + m.tail
    if total <= 0.0:
        raise ZeroSpectrum("all eigenvalues are zero")
    return retained / total


def fit_primal(x, q: int | None = None, sigma2: float | None = None) -> PrimalModel:
    """Closed-form maximum-likelihood fit on a d x N data matrix.

    Exactly one of q (latent dimension, noise deduced) and sigma2 (noise,
    latent dimension deduced as the largest p with lambda_p / N >= sigma2)
    must be supplied; q may not exceed the numerical rank of the centered
    data, as in fit_dual.
    """
    _check_choice(q, sigma2)
    xc, mu = center_columns(x)
    d, n = xc.shape
    cov = xc @ xc.T
    eig = sym_eig(cov)
    # The model keeps the length-N spectrum: the d x d covariance and the
    # N x N Gram share their nonzero eigenvalues, everything further is 0.
    lam = np.zeros(n)
    m = min(d, n)
    lam[:m] = eig.eigenvalues[:m]
    q, s2, _ = _resolve(lam, float(np.trace(cov)), n, q, sigma2)
    scales = np.sqrt(np.maximum(lam[:q] / n - s2, 0.0))
    return PrimalModel(mu=mu, w=eig.eigenvectors[:, :q] * scales, sigma2=s2, eigenvalues=lam)


def _as_columns(x, rows, what):
    """x as a float matrix with `rows` rows, one sample per column; a single
    sample is the matrix with one column."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != rows:
        raise DimensionMismatch(f"{what} must be a {rows} x M matrix, got shape {x.shape}")
    return x


def _posterior_factor(vals, vecs, sigma2):
    """Symmetric factor of the latent posterior covariance sigma2 g^-1,
    where g = vecs diag(vals) vecs^T is the q x q normal matrix of the
    latent map."""
    return np.sqrt(sigma2) * (vecs / np.sqrt(vals)) @ vecs.T


def latent_posterior(m: PrimalModel, phi) -> GaussianSpec:
    """Posterior of the latent codes of feature columns phi (d x M): means
    latent_map's (w^T w + sigma2 I)^-1 w^T (phi - mu) (q x M) and, shared by
    every column, covariance sigma2 times that same inverse. Needs
    sigma2 > 0; at sigma2 == 0 the posterior collapses and latent_map is
    the right tool."""
    if m.sigma2 <= 0.0:
        raise SigmaZero("posterior is degenerate at sigma2 == 0; use latent_map")
    # all q right singular vectors: the full SVD adds w's null directions when q > d
    _, s, vt = np.linalg.svd(m.w)
    vals = np.append(s * s, np.zeros(m.q - s.size)) + m.sigma2
    return GaussianSpec(mean=latent_map(m, phi), cov_factor=_posterior_factor(vals, vt.T, m.sigma2))


def latent_map(m: PrimalModel, phi) -> np.ndarray:
    """MAP latent codes (q x M) of the feature vectors in the columns of phi
    (d x M): (w^T w + sigma2 I)^-1 w^T (phi - mu) = V diag(s / (s^2 +
    sigma2)) U^T (phi - mu), the posterior mean when sigma2 > 0 and the
    pseudo-inverse projection in the noiseless limit. A component whose
    sqrt(s^2 + sigma2) is at most 1e-10 s_1 maps to 0."""
    resid = _as_columns(phi, m.d, "feature vectors") - m.mu[:, None]
    u, s, vt = np.linalg.svd(m.w, full_matrices=False)
    g = s * s + m.sigma2
    cutoff = (1e-10 * s[0]) ** 2 if s.size else 0.0
    scale = np.divide(s, g, out=np.zeros_like(s), where=g > cutoff)
    return vt.T @ (scale[:, None] * (u.T @ resid))


def feature_reconstruct(m: PrimalModel, h) -> np.ndarray:
    """Map latent codes (q x M) back to feature space (d x M): w h + mu."""
    return m.w @ _as_columns(h, m.q, "latent codes") + m.mu[:, None]


def marginal_loglik(m: PrimalModel, x) -> np.ndarray:
    """Log-densities (length M) of the columns of x (d x M) under the
    marginal N(mu, w w^T + sigma2 I); a data set's log-likelihood is their
    sum.

    Evaluated through the thin SVD w = U diag(s) V^T (the directions of U
    contribute s_p^2 + sigma2, the remaining ones sigma2), so no dense
    d x d inverse is ever formed.
    """
    if m.sigma2 <= 0.0:
        raise SigmaZero("marginal density is degenerate at sigma2 == 0")
    resid = _as_columns(x, m.d, "data") - m.mu[:, None]
    u, s, _ = np.linalg.svd(m.w, full_matrices=False)
    coords = u.T @ resid
    denom = s * s + m.sigma2
    quad = np.sum(coords**2 / denom[:, None], axis=0)
    quad += (np.sum(resid**2, axis=0) - np.sum(coords**2, axis=0)) / m.sigma2
    logdet = float(np.sum(np.log(denom)) + (m.d - s.size) * np.log(m.sigma2))
    return -0.5 * (m.d * _LOG_2PI + logdet + quad)
