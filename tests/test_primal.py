from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from kppca import (
    PrimalModel,
    center_columns,
    explained_variance,
    feature_reconstruct,
    fit_primal,
    latent_map,
    latent_posterior,
    marginal_loglik,
)
from kppca.errors import (
    DimensionMismatch,
    LatentExceedsRank,
    NonFinite,
    SigmaTooLarge,
    SigmaZero,
)
from kppca.primal import _sigma2_from_tail

from conftest import align_columns


def svd_fit_oracle(x, q):
    """Independent closed-form fit through the SVD of the centered data."""
    xc, mu = center_columns(x)
    u, s, _ = np.linalg.svd(xc, full_matrices=False)
    n = x.shape[1]
    lam = np.zeros(n)
    lam[: s.size] = s**2
    s2 = lam[q:].sum() / (n * (n - q)) if q < n else 0.0
    w = u[:, :q] * np.sqrt(np.maximum(lam[:q] / n - s2, 0.0))
    return mu, w, s2, lam


# --- the noise estimator ------------------------------------------------


def test_sigma2_ml_known_value():
    lam = np.array([4.0, 2.0, 1.0, 1.0])
    assert _sigma2_from_tail(lam[2:].sum(), 4, 2) == 0.25


def test_sigma2_ml_zero_tail():
    lam = np.array([5.0, 3.0, 0.0, 0.0])
    assert _sigma2_from_tail(lam[2:].sum(), 4, 2) == 0.0


def test_sigma2_ml_equals_scaled_mean_of_discarded(rng):
    for _ in range(20):
        n = int(rng.integers(3, 12))
        q = int(rng.integers(1, n))
        lam = np.sort(rng.uniform(0.0, 10.0, n))[::-1]
        expected = lam[q:].mean() / n
        assert abs(_sigma2_from_tail(lam[q:].sum(), n, q) - expected) <= 1e-12


@given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=12), st.data())
@settings(max_examples=80, deadline=None)
def test_sigma2_ml_never_exceeds_lambda_q_over_n(lam, data):
    lam = np.sort(np.array(lam))[::-1]
    n = lam.size
    q = data.draw(st.integers(1, n - 1))
    assert _sigma2_from_tail(lam[q:].sum(), n, q) <= lam[q - 1] / n + 1e-12


# --- fit ----------------------------------------------------------------


def test_fit_rank_one_data(rng):
    direction = np.array([3.0, 4.0]) / 5.0
    coeffs = rng.standard_normal(6)
    x = np.outer(direction, coeffs)
    m = fit_primal(x, q=1)
    assert m.sigma2 == 0.0
    lam1 = m.eigenvalues[0]
    expected = np.sqrt(lam1 / 6.0)
    col = m.w[:, 0]
    assert abs(np.linalg.norm(col) - expected) <= 1e-10
    assert abs(abs(col @ direction) - np.linalg.norm(col)) <= 1e-10


def test_fit_full_latent_dimension_recovers_whole_spectrum(rng):
    x = rng.standard_normal((3, 7))
    m = fit_primal(x, q=3)
    assert m.sigma2 == 0.0
    # at full rank the loadings carry the whole sample covariance
    xc, _ = center_columns(x)
    npt.assert_allclose(m.w @ m.w.T, xc @ xc.T / 7.0, atol=1e-12)
    npt.assert_allclose(np.linalg.svd(m.w, compute_uv=False), np.sqrt(m.eigenvalues[:3] / 7.0), atol=1e-12)


def test_fit_matches_svd_oracle(rng):
    x = rng.standard_normal((3, 8))
    m = fit_primal(x, q=2)
    mu_o, w_o, s2_o, lam_o = svd_fit_oracle(x, 2)
    npt.assert_allclose(m.mu, mu_o, atol=1e-12)
    assert abs(m.sigma2 - s2_o) <= 1e-12
    npt.assert_allclose(m.eigenvalues, lam_o, atol=1e-10)
    aligned, _ = align_columns(m.w, w_o)
    assert np.abs(m.w - aligned).max() <= 1e-9


def test_fit_sigma2_constraint_holds(rng):
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(3, 10))
        q = int(rng.integers(1, min(d, n) + 1))
        x = rng.standard_normal((d, n))
        if q > min(d, n - 1):  # the centered rank of generic data
            with pytest.raises(LatentExceedsRank):
                fit_primal(x, q=q)
            continue
        m = fit_primal(x, q=q)
        assert m.sigma2 <= m.eigenvalues[q - 1] / n + 1e-12


def test_fit_loadings_orthogonal(rng):
    m = fit_primal(rng.standard_normal((5, 9)), q=3)
    g = m.w.T @ m.w
    assert np.abs(g - np.diag(np.diag(g))).max() <= 1e-10
    s = np.linalg.svd(m.w, compute_uv=False)
    assert np.all(np.diff(s) <= 1e-12)  # descending loading scales


def test_fit_more_features_than_samples(rng):
    # d > N: the spectrum is the length-N head of the covariance spectrum
    x = rng.standard_normal((10, 4))
    m = fit_primal(x, q=2)
    assert m.eigenvalues.shape == (4,)
    assert m.eigenvalues[3] == 0.0  # centering removes one direction
    mu_o, w_o, s2_o, _ = svd_fit_oracle(x, 2)
    aligned, _ = align_columns(m.w, w_o)
    assert np.abs(m.w - aligned).max() <= 1e-9
    assert abs(m.sigma2 - s2_o) <= 1e-12


def test_fit_given_sigma2_deduces_q(rng):
    x = rng.standard_normal((4, 9))
    probe = fit_primal(x, q=4)
    lam_over_n = probe.eigenvalues / 9.0
    s2 = (lam_over_n[1] + lam_over_n[2]) / 2.0
    m = fit_primal(x, sigma2=s2)
    assert m.q == 2
    # exact boundary is inclusive
    m_edge = fit_primal(x, sigma2=lam_over_n[2])
    assert m_edge.q == 3


def test_explained_variance_of_a_primal_model(rng):
    x = rng.standard_normal((4, 9))
    m = fit_primal(x, q=2)
    xc, _ = center_columns(x)
    lam = np.linalg.svd(xc, compute_uv=False) ** 2
    assert abs(m.tail - lam[2:].sum()) <= 1e-12
    assert abs(explained_variance(m) - lam[:2].sum() / lam.sum()) <= 1e-12


def test_fit_error_paths(rng):
    x = rng.standard_normal((3, 5))
    with pytest.raises(LatentExceedsRank):
        fit_primal(x, q=4)
    with pytest.raises(ValueError):
        fit_primal(x, q=0)
    with pytest.raises(SigmaTooLarge):
        fit_primal(x, sigma2=1e9)
    with pytest.raises(ValueError):
        fit_primal(x)
    with pytest.raises(ValueError):
        fit_primal(x, q=1, sigma2=0.1)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(NonFinite):
        fit_primal(bad, q=1)


# --- posterior / MAP ----------------------------------------------------


def test_posterior_at_mean_is_zero(rng):
    m = fit_primal(rng.standard_normal((3, 8)), q=2)
    post = latent_posterior(m, m.mu[:, None])
    npt.assert_allclose(post.mean, 0.0, atol=1e-14)


def test_posterior_one_dimensional_closed_form(rng):
    x = rng.standard_normal((4, 7))
    m = fit_primal(x, q=1)
    phi = rng.standard_normal((4, 1))
    s1 = np.linalg.svd(m.w, compute_uv=False)[0]
    v1 = m.w[:, 0] / s1
    expected = s1 * (v1 @ (phi[:, 0] - m.mu)) / (s1**2 + m.sigma2)
    post = latent_posterior(m, phi)
    assert abs(post.mean[0, 0] - expected) <= 1e-12


def test_posterior_covariance_ml_closed_form(rng):
    x = rng.standard_normal((4, 9))
    m = fit_primal(x, q=2)
    post = latent_posterior(m, x[:, :1])
    expected = 9 * m.sigma2 / m.eigenvalues[:2]
    npt.assert_allclose(np.diag(post.covariance()), expected, rtol=1e-10)
    off = post.covariance() - np.diag(np.diag(post.covariance()))
    assert np.abs(off).max() <= 1e-12


def test_posterior_needs_noise(rng):
    x = np.outer(np.ones(2), rng.standard_normal(4))
    m = fit_primal(x, q=1)
    assert m.sigma2 == 0.0
    with pytest.raises(SigmaZero):
        latent_posterior(m, x[:, :1])


def test_latent_map_at_mean_is_zero(rng):
    m = fit_primal(rng.standard_normal((3, 6)), q=2)
    npt.assert_allclose(latent_map(m, m.mu[:, None]), 0.0, atol=1e-14)


def test_latent_map_matches_ridge_oracle(rng):
    m = fit_primal(rng.standard_normal((4, 8)), q=2)
    phi = rng.standard_normal((4, 3))
    # independent path: ridge least squares on the stacked system
    aug = np.vstack([m.w, np.sqrt(m.sigma2) * np.eye(2)])
    target = np.concatenate([phi - m.mu[:, None], np.zeros((2, 3))])
    oracle, *_ = np.linalg.lstsq(aug, target, rcond=None)
    npt.assert_allclose(latent_map(m, phi), oracle, atol=1e-10)


def test_latent_map_noiseless_uses_pseudo_inverse(rng):
    x = rng.standard_normal((3, 9))
    m = fit_primal(x, q=3)
    assert m.sigma2 == 0.0
    phi = rng.standard_normal((3, 4))
    oracle = np.linalg.pinv(m.w, rcond=1e-10) @ (phi - m.mu[:, None])
    npt.assert_allclose(latent_map(m, phi), oracle, atol=1e-10)


def test_noiseless_full_rank_roundtrip_is_projection(rng):
    x = rng.standard_normal((3, 9))
    m = fit_primal(x, q=3)
    xc, _ = center_columns(x)
    u, s, _ = np.linalg.svd(xc, full_matrices=False)
    basis = u[:, s > 1e-10 * s[0]]
    proj = basis @ basis.T
    phi = rng.standard_normal((3, 4))
    rec = feature_reconstruct(m, latent_map(m, phi))
    npt.assert_allclose(rec - m.mu[:, None], proj @ (phi - m.mu[:, None]), atol=1e-10)


def test_latent_roundtrip_identity_noiseless(rng):
    x = rng.standard_normal((4, 10))
    m = fit_primal(x, q=3)
    m = replace(m, sigma2=0.0)
    h = rng.standard_normal((3, 4))
    npt.assert_allclose(latent_map(m, feature_reconstruct(m, h)), h, atol=1e-10)


def test_feature_reconstruct_basics(rng):
    m = fit_primal(rng.standard_normal((3, 6)), q=2)
    npt.assert_allclose(feature_reconstruct(m, np.zeros((2, 1))), m.mu[:, None])
    h = rng.standard_normal((2, 4))
    oracle = np.array([[sum(m.w[i, p] * h[p, c] for p in range(2)) + m.mu[i] for c in range(4)]
                       for i in range(3)])
    npt.assert_allclose(feature_reconstruct(m, h), oracle, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        feature_reconstruct(m, np.zeros((3, 1)))
    with pytest.raises(DimensionMismatch):
        feature_reconstruct(m, np.zeros(2))  # a single code is a q x 1 column


def test_reconstruction_rotation_invariant(rng):
    m = fit_primal(rng.standard_normal((4, 8)), q=3)
    theta = 0.7
    r = np.eye(3)
    r[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    rotated = replace(m, w=m.w @ r)
    h = rng.standard_normal((3, 1))
    a = feature_reconstruct(m, h)
    b = feature_reconstruct(rotated, r.T @ h)
    assert np.abs(a - b).max() <= 1e-12


def _loadings(m, change):
    # the fitted loadings rotated by 0.7 rad (the same model), or with one
    # entry perturbed (another model)
    if change == "rotated":
        c, s = np.cos(0.7), np.sin(0.7)
        return m.w @ np.array([[c, -s], [s, c]])
    w = m.w.copy()
    w[1, 0] += 0.3
    return w


def _map_oracle(m, phi):
    g = m.w.T @ m.w + m.sigma2 * np.eye(m.q)
    return np.linalg.solve(g, m.w.T @ (phi - m.mu[:, None]))


# each formula against its dense oracle, as (result, oracle, atol)
_DENSE_ORACLES = {
    "noiseless_map": lambda m, phi, x: (latent_map(replace(m, sigma2=0.0), phi),
                                        np.linalg.pinv(m.w) @ (phi - m.mu[:, None]), 1e-10),
    "map": lambda m, phi, x: (latent_map(m, phi), _map_oracle(m, phi), 1e-10),
    "posterior_mean": lambda m, phi, x: (latent_posterior(m, phi).mean, _map_oracle(m, phi), 1e-10),
    "posterior_covariance": lambda m, phi, x: (
        latent_posterior(m, phi).covariance(),
        m.sigma2 * np.linalg.inv(m.w.T @ m.w + m.sigma2 * np.eye(m.q)), 1e-12),
    "loglik": lambda m, phi, x: (
        marginal_loglik(m, x),
        multivariate_normal(mean=m.mu, cov=m.w @ m.w.T + m.sigma2 * np.eye(m.d)).logpdf(x.T), 1e-10),
    # the scales every formula reads, against the normal matrix w^T w
    "singular_values": lambda m, phi, x: (np.linalg.svd(m.w, compute_uv=False),
                                          np.sqrt(np.linalg.eigvalsh(m.w.T @ m.w)[::-1]), 1e-14),
}


@pytest.mark.parametrize("formula", sorted(_DENSE_ORACLES))
@pytest.mark.parametrize("change", ["rotated", "perturbed"])
def test_formulas_read_the_loadings_alone(rng, change, formula):
    x = rng.standard_normal((4, 12))
    m = fit_primal(x, q=2)
    m = replace(m, w=_loadings(m, change))
    got, want, atol = _DENSE_ORACLES[formula](m, rng.standard_normal((4, 5)), x)
    npt.assert_allclose(got, want, atol=atol)


def test_posterior_with_more_latent_than_feature_dimensions(rng):
    # q > d: the normal matrix has w's null directions at eigenvalue sigma2
    w = rng.standard_normal((2, 3))
    m = PrimalModel(mu=np.zeros(2), w=w, sigma2=0.4, eigenvalues=np.zeros(4))
    g = w.T @ w + 0.4 * np.eye(3)
    phi = rng.standard_normal((2, 2))
    post = latent_posterior(m, phi)
    npt.assert_allclose(post.mean, np.linalg.solve(g, w.T @ phi), atol=1e-12)
    npt.assert_allclose(post.covariance(), 0.4 * np.linalg.inv(g), atol=1e-12)
    oracle = multivariate_normal(mean=m.mu, cov=w @ w.T + 0.4 * np.eye(2)).logpdf(phi.T)
    npt.assert_allclose(marginal_loglik(m, phi), oracle, atol=1e-12)


# --- marginal log-likelihood --------------------------------------------


def test_loglik_scalar_gaussian_at_mean():
    m = PrimalModel(mu=np.array([2.0]), w=np.zeros((1, 1)), sigma2=0.3, eigenvalues=np.array([0.0]))
    got = marginal_loglik(m, np.array([[2.0]]))
    assert got.shape == (1,) and abs(got[0] - (-0.5 * np.log(2 * np.pi * 0.3))) <= 1e-12


def test_loglik_matches_dense_oracle(rng):
    for _ in range(10):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(3, 9))
        q = int(rng.integers(1, min(d, n) + 1))
        x = rng.standard_normal((d, n))
        if q > min(d, n - 1):  # the centered rank of generic data
            with pytest.raises(LatentExceedsRank):
                fit_primal(x, q=q)
            continue
        m = fit_primal(x, q=q)
        if m.sigma2 <= 1e-12:
            continue
        cov = m.w @ m.w.T + m.sigma2 * np.eye(d)
        oracle = multivariate_normal(mean=m.mu, cov=cov).logpdf(x.T).sum()
        assert abs(marginal_loglik(m, x).sum() - oracle) <= 1e-8


def test_loglik_extra_sample_at_mean_adds_normalizer(rng):
    x = rng.standard_normal((3, 7))
    m = fit_primal(x, q=1)
    base = marginal_loglik(m, x).sum()
    extended = np.concatenate([x, m.mu[:, None]], axis=1)
    s2 = np.sum(m.w**2, axis=0)
    logdet = np.log(s2 + m.sigma2).sum() + (3 - 1) * np.log(m.sigma2)
    normalizer = -0.5 * (3 * np.log(2 * np.pi) + logdet)
    assert abs(marginal_loglik(m, extended).sum() - base - normalizer) <= 1e-10


def test_loglik_requires_noise(rng):
    x = rng.standard_normal((2, 5))
    m = fit_primal(x, q=2)
    assert m.sigma2 == 0.0
    with pytest.raises(SigmaZero):
        marginal_loglik(m, x)


def test_fitted_loadings_are_local_likelihood_maximum(rng):
    x = rng.standard_normal((3, 7))
    m = fit_primal(x, q=1)
    base = marginal_loglik(m, x).sum()
    for i in range(3):
        for delta in (1e-3, -1e-3):
            w = m.w.copy()
            w[i, 0] += delta
            perturbed_ll = marginal_loglik(replace(m, w=w), x).sum()
            assert perturbed_ll <= base + 1e-9 * abs(base)

