from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.stats import multivariate_normal

from kppca import (
    KernelSpec,
    TrainingSet,
    build_sampler,
    center_columns,
    center_gram,
    centered_kernel_vectors,
    dual_conditional_kernel,
    dual_latent_map,
    dual_latent_posterior,
    dual_marginal_loglik,
    dual_reconstruct,
    dual_sample,
    explained_variance,
    fit_dual,
    fit_primal,
    gram,
    kpca_limit,
    latent_map,
    latent_posterior,
    samples_from_noise,
    sigma2_ml,
)
from kppca.errors import (
    DimensionMismatch,
    LatentExceedsRank,
    NotCentered,
    RankDeficient,
    SigmaTooLarge,
    SigmaZero,
    ZeroSpectrum,
)

from conftest import align_columns, toy_dual_model


def fitted_rbf_model(rng, n=9, q=3, gamma=1.5):
    ts = TrainingSet(rng.standard_normal((n, 2)))
    spec = KernelSpec("rbf", gamma)
    kc = center_gram(gram(spec, ts))
    return fit_dual(kc, spec, ts, q=q)


def fitted_linear_pair(rng, d=3, n=8, q=2):
    x = rng.standard_normal((d, n))
    spec = KernelSpec("linear")
    ts = TrainingSet.from_columns(x)
    kc = center_gram(gram(spec, ts))
    return x, fit_primal(x, q=q), fit_dual(kc, spec, ts, q=q)


# --- fitting ------------------------------------------------------------


def test_fit_noiseless_gives_classical_loadings(rng):
    ts = TrainingSet(rng.standard_normal((7, 2)))
    spec = KernelSpec("rbf", 1.0)
    kc = center_gram(gram(spec, ts))
    m = fit_dual(kc, spec, ts, sigma2=0.0)
    assert m.sigma2 == 0.0
    assert m.q == m.rank()
    npt.assert_allclose(m.a, m.e[:, : m.q] / np.sqrt(7.0), atol=1e-12)


def test_fit_sigma2_at_boundary_zeroes_last_column(rng):
    m0 = fitted_rbf_model(rng, n=8, q=4)
    s2 = m0.eigenvalues[3] / 8.0
    m = fit_dual(m0.kc, m0.spec, m0.ts, sigma2=s2)
    assert m.q == 4
    npt.assert_allclose(m.a[:, 3], 0.0, atol=1e-12)


def test_fit_matches_primal_through_weight_identity(rng):
    x, pm, dm = fitted_linear_pair(rng, d=4, n=6, q=2)
    xc, _ = center_columns(x)
    w_from_dual = xc @ dm.a
    aligned, _ = align_columns(pm.w, w_from_dual)
    assert np.abs(pm.w - aligned).max() <= 1e-10
    assert abs(pm.sigma2 - dm.sigma2) <= 1e-12


def test_fit_shares_noise_estimator_with_primal(rng):
    m = fitted_rbf_model(rng, n=9, q=3)
    assert abs(m.sigma2 - sigma2_ml(m.eigenvalues, 3, 9)) <= 1e-15


def test_fit_rejects_uncentered(rng):
    ts = TrainingSet(rng.standard_normal((5, 2)))
    spec = KernelSpec("rbf", 1.0)
    with pytest.raises(NotCentered):
        fit_dual(gram(spec, ts), spec, ts, q=1)


def test_fit_rejects_bad_latent(rng):
    ts = TrainingSet(rng.standard_normal((6, 2)))
    spec = KernelSpec("rbf", 1.0)
    kc = center_gram(gram(spec, ts))
    with pytest.raises(LatentExceedsRank):
        fit_dual(kc, spec, ts, q=6)  # centered Gram has rank at most 5
    with pytest.raises(LatentExceedsRank):
        fit_dual(kc, spec, ts, q=0)
    with pytest.raises(SigmaTooLarge):
        fit_dual(kc, spec, ts, sigma2=1e9)
    with pytest.raises(ValueError):
        fit_dual(kc, spec, ts)
    with pytest.raises(ValueError):
        fit_dual(kc, spec, ts, q=1, sigma2=0.1)


def test_fit_rejects_mismatched_training_set(rng):
    ts = TrainingSet(rng.standard_normal((5, 2)))
    other = TrainingSet(rng.standard_normal((6, 2)))
    spec = KernelSpec("rbf", 1.0)
    kc = center_gram(gram(spec, ts))
    with pytest.raises(DimensionMismatch):
        fit_dual(kc, spec, other, q=1)


def test_dual_loadings_are_gram_orthogonal(rng):
    m = fitted_rbf_model(rng, n=9, q=4)
    g = m.a.T @ m.kc.entries @ m.a
    off = g - np.diag(np.diag(g))
    assert np.abs(off).max() <= 1e-8
    assert m.sigma2 <= m.eigenvalues[m.q - 1] / m.n + 1e-12


# --- latent map and reconstruction --------------------------------------


def test_latent_map_zero_vector(rng):
    m = fitted_rbf_model(rng)
    out = dual_latent_map(m, np.zeros((m.n, 1)))
    assert out.shape == (m.q, 1)
    npt.assert_allclose(out, 0.0)


def test_latent_map_general_path_matches_ml_shortcut(rng):
    # the closed form against the general (a^T K_c a + sigma2 I)^-1 a^T k,
    # solved column by column, and the maximum-likelihood shortcut
    m = fitted_rbf_model(rng, n=10, q=4)
    k = np.concatenate([m.kc.entries[:, :3], rng.standard_normal((10, 2))], axis=1)
    batch = dual_latent_map(m, k)
    g = m.a.T @ m.kc.entries @ m.a + m.sigma2 * np.eye(4)
    for j in range(k.shape[1]):
        general = np.linalg.solve(g, m.a.T @ k[:, j])
        assert np.abs(batch[:, j] - general).max() <= 1e-8
    shortcut = m.n * (m.a.T @ k) / m.eigenvalues[:4, None]
    assert np.abs(batch - shortcut).max() <= 1e-8


def test_latent_map_matches_primal_in_sample(rng):
    x, pm, dm = fitted_linear_pair(rng)
    xc, _ = center_columns(x)
    _, signs = align_columns(pm.w, xc @ dm.a)
    h_p = latent_map(pm, x)
    h_d = dual_latent_map(dm, dm.kc.entries)
    assert np.abs(h_p - signs[:, None] * h_d).max() <= 1e-8


def test_latent_map_noiseless_is_scaled_kpca_projection(rng):
    m = fitted_rbf_model(rng, n=8, q=3)
    lim = kpca_limit(m)
    kvec = m.kc.entries[:, 1:2]
    h = dual_latent_map(lim, kvec)
    # classical projection is lambda^{-1/2} e^T k; the latent code carries
    # an extra sqrt(N / lambda_p) from the 1/sqrt(N) loading scale
    lam = m.eigenvalues[:3, None]
    classical = (m.e[:, :3].T @ kvec) / np.sqrt(lam)
    npt.assert_allclose(h, np.sqrt(m.n / lam) * classical, atol=1e-10)


def test_reconstruct_zero_latent(rng):
    m = fitted_rbf_model(rng)
    out = dual_reconstruct(m, np.zeros((m.q, 1)))
    assert out.shape == (m.n, 1)
    npt.assert_allclose(out, 0.0)


def test_reconstruct_dense_product_oracle(rng):
    # the closed form E_q diag(lambda s) h against K_c a h, entry by entry
    m = toy_dual_model(n=5, q=2, sigma2=0.02, seed=3)
    h = rng.standard_normal((2, 3))
    oracle = np.array([[
        sum(m.kc.entries[i, j] * sum(m.a[j, p] * h[p, c] for p in range(2)) for j in range(5))
        for c in range(3)] for i in range(5)
    ])
    npt.assert_allclose(dual_reconstruct(m, h), oracle, atol=1e-10)


def test_noiseless_full_rank_roundtrip_identity(rng):
    ts = TrainingSet(rng.standard_normal((7, 2)))
    spec = KernelSpec("rbf", 1.2)
    kc = center_gram(gram(spec, ts))
    m = fit_dual(kc, spec, ts, sigma2=0.0)
    probes = centered_kernel_vectors(spec, ts, rng.standard_normal((1, 2)))
    for k in (kc.entries, probes):
        rec = dual_reconstruct(m, dual_latent_map(m, k))
        assert np.abs(rec - k).max() <= 1e-8


# --- sampler -------------------------------------------------------------


def test_sampler_noiseless_full_latent_form():
    m = toy_dual_model(n=5, q=5, sigma2=0.0, seed=1)
    b = build_sampler(m)
    expected = (m.e * m.eigenvalues) @ m.e.T / np.sqrt(5.0)
    npt.assert_allclose(b, expected, atol=1e-12)


def test_sampler_full_latent_ignores_sigma():
    m = toy_dual_model(n=5, q=5, sigma2=0.3, seed=2)
    b = build_sampler(m)
    expected = (m.e * m.eigenvalues) @ m.e.T / np.sqrt(5.0)
    npt.assert_allclose(b, expected, atol=1e-12)


def test_sampler_covariance_identity_oracle():
    # B B^T must equal the marginal covariance of kernel representations,
    # i.e. K_c (A A^T + sigma2 K_c^+) K_c, assembled densely
    m = toy_dual_model(n=3, q=1, sigma2=0.1, seed=4, spectrum=[4.0, 2.0, 1.0])
    b = build_sampler(m)
    kc = m.kc.entries
    kc_pinv = np.linalg.pinv(kc)
    oracle = kc @ (m.a @ m.a.T + m.sigma2 * kc_pinv) @ kc
    assert np.abs(b @ b.T - oracle).max() <= 1e-8


def test_sampler_spectral_covariance_form():
    m = toy_dual_model(n=6, q=2, sigma2=0.05, seed=5)
    b = build_sampler(m)
    lam = m.eigenvalues
    coeff = np.concatenate([lam[:2] ** 2 / 6.0, m.sigma2 * lam[2:]])
    target = (m.e * coeff) @ m.e.T
    assert np.abs(b @ b.T - target).max() <= 1e-8


def test_sampler_self_adjoint_and_bijective():
    m = toy_dual_model(n=7, q=3, sigma2=0.02, seed=6)
    b = build_sampler(m)
    assert np.abs(b - b.T).max() <= 1e-10
    assert np.linalg.matrix_rank(b) == 7


def test_sampler_zero_noise_hook():
    m = toy_dual_model(n=6, q=2, sigma2=0.05, seed=7)
    out = samples_from_noise(m, np.zeros((6, 3)))
    npt.assert_array_equal(out, np.zeros((6, 3)))


def test_sample_deterministic_columns():
    m = toy_dual_model(n=6, q=2, sigma2=0.05, seed=8)
    a = dual_sample(m, 99, 4)
    assert a.shape == (6, 4)
    npt.assert_array_equal(a, dual_sample(m, 99, 4))
    assert dual_sample(m, 99, 0).shape == (6, 0)


def test_sample_monte_carlo_covariance():
    m = toy_dual_model(n=8, q=3, sigma2=0.05, seed=9)
    mat = dual_sample(m, 1234, 100_000)
    emp = mat @ mat.T / mat.shape[1]
    b = build_sampler(m)
    target = b @ b.T
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel <= 0.05


# --- explained variance ---------------------------------------------------


def test_explained_variance_full():
    m = toy_dual_model(n=5, q=5, sigma2=0.0, seed=10)
    assert explained_variance(m) == 1.0


def test_explained_variance_rank_one(rng):
    ts = TrainingSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
    spec = KernelSpec("linear")
    kc = center_gram(gram(spec, ts))
    m = fit_dual(kc, spec, ts, q=1)
    assert explained_variance(m) == 1.0


def test_explained_variance_known_spectrum():
    m = toy_dual_model(n=4, q=2, sigma2=0.0, seed=11, spectrum=[4.0, 2.0, 1.0, 1.0])
    assert abs(explained_variance(m) - 0.75) <= 1e-12


def test_explained_variance_zero_spectrum(rng):
    m = toy_dual_model(n=3, q=1, sigma2=0.0, seed=12)
    broken = replace(m, eigenvalues=np.zeros(3))
    with pytest.raises(ZeroSpectrum):
        explained_variance(broken)


def test_monotonicity_in_q(rng):
    m0 = fitted_rbf_model(rng, n=10, q=1)
    evs, s2s = [], []
    for q in range(1, m0.rank() + 1):
        m = fit_dual(m0.kc, m0.spec, m0.ts, q=q)
        evs.append(explained_variance(m))
        s2s.append(m.sigma2)
    assert all(b >= a for a, b in zip(evs, evs[1:]))
    assert all(b <= a for a, b in zip(s2s, s2s[1:]))


# --- posterior and conditional -------------------------------------------


def test_posterior_zero_vector(rng):
    m = fitted_rbf_model(rng)
    post = dual_latent_posterior(m, np.zeros(m.n))
    npt.assert_allclose(post.mean, 0.0)


def test_posterior_mean_is_map(rng):
    m = fitted_rbf_model(rng, n=8, q=3)
    kvec = m.kc.entries[:, 4]
    post = dual_latent_posterior(m, kvec)
    assert np.abs(post.mean - dual_latent_map(m, kvec[:, None])[:, 0]).max() <= 1e-10


def test_posterior_covariance_convention(rng):
    # sigma2 G^-1 with G = a^T K_c a + sigma2 I, the primal convention
    m = fitted_rbf_model(rng, n=8, q=2)
    post = dual_latent_posterior(m, m.kc.entries[:, 0])
    g = m.a.T @ m.kc.entries @ m.a + m.sigma2 * np.eye(2)
    npt.assert_allclose(post.covariance(), m.sigma2 * np.linalg.inv(g), atol=1e-10)


def test_posterior_mean_matches_primal(rng):
    x, pm, dm = fitted_linear_pair(rng, d=3, n=9, q=2)
    xc, _ = center_columns(x)
    _, signs = align_columns(pm.w, xc @ dm.a)
    probe = rng.standard_normal(3)
    post_p = latent_posterior(pm, probe)
    post_d = dual_latent_posterior(dm, centered_kernel_vectors(dm.spec, dm.ts, probe[None, :])[:, 0])
    assert np.abs(post_p.mean - signs * post_d.mean).max() <= 1e-8
    flip = np.outer(signs, signs)
    cov_p, cov_d = post_p.covariance(), flip * post_d.covariance()
    assert np.abs(cov_p - cov_d).max() <= 1e-8 * np.abs(cov_p).max()


def test_posterior_requires_noise():
    m = toy_dual_model(n=5, q=2, sigma2=0.0, seed=13)
    with pytest.raises(SigmaZero):
        dual_latent_posterior(m, np.zeros(5))


def test_conditional_kernel_degenerate_at_zero():
    m = toy_dual_model(n=5, q=2, sigma2=0.0, seed=14)
    cond = dual_conditional_kernel(m, np.zeros(2))
    npt.assert_allclose(cond.mean, 0.0)
    npt.assert_allclose(cond.covariance(), 0.0, atol=1e-14)


def test_conditional_kernel_mean_and_covariance(rng):
    m = fitted_rbf_model(rng, n=7, q=3)
    h = rng.standard_normal(3)
    cond = dual_conditional_kernel(m, h)
    npt.assert_array_equal(cond.mean, dual_reconstruct(m, h[:, None])[:, 0])
    assert np.abs(cond.covariance() - m.sigma2 * m.kc.entries).max() <= 1e-10


# --- marginal log-density -------------------------------------------------


def test_marginal_loglik_matches_dense_oracle(rng):
    m = toy_dual_model(n=6, q=2, sigma2=0.03, seed=15)
    b = build_sampler(m)
    cov = b @ b.T
    for k in dual_sample(m, 5, 3).T:
        oracle = multivariate_normal(mean=np.zeros(6), cov=cov).logpdf(k)
        assert abs(dual_marginal_loglik(m, k) - oracle) <= 1e-8


def test_marginal_loglik_guards(rng):
    m0 = toy_dual_model(n=5, q=2, sigma2=0.0, seed=16)
    with pytest.raises(SigmaZero):
        dual_marginal_loglik(m0, np.zeros(5))
    m1 = fitted_rbf_model(rng, n=6, q=2)  # centered Gram: rank-deficient
    with pytest.raises(RankDeficient):
        dual_marginal_loglik(m1, np.zeros(6))


def test_dimension_checks(rng):
    m = fitted_rbf_model(rng)
    with pytest.raises(DimensionMismatch):
        dual_latent_map(m, np.zeros((m.n + 1, 1)))
    with pytest.raises(DimensionMismatch):
        dual_latent_map(m, np.zeros(m.n))  # a single query is an N x 1 column
    with pytest.raises(DimensionMismatch):
        dual_reconstruct(m, np.zeros((m.q + 1, 1)))
    with pytest.raises(DimensionMismatch):
        samples_from_noise(m, np.zeros((m.n + 2, 1)))
