from dataclasses import replace
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from kppca import (
    GaussianSpec,
    KernelSpec,
    TrainingSet,
    center_columns,
    center_gram,
    centered_kernel_vectors,
    dual_conditional_kernel,
    dual_latent_map,
    dual_latent_posterior,
    dual_marginal_loglik,
    dual_reconstruct,
    dual_sample,
    dual_training_codes,
    explained_variance,
    feature_reconstruct,
    fit_dual,
    fit_primal,
    gram,
    kernel_smoother,
    kpca_limit,
    latent_map,
    latent_posterior,
    marginal_loglik,
    samples_from_noise,
    two_arcs,
)
from kppca import dual, kernels
from kppca.dual import preimage_codes, project_inputs
from kppca.errors import (
    DegenerateNormalizer,
    DimensionMismatch,
    KppcaError,
    LatentExceedsRank,
    NotCentered,
    RankDeficient,
    SigmaTooLarge,
    SigmaZero,
    ZeroSpectrum,
)
from kppca.spectral import rank_floor

from conftest import (
    align_columns,
    arcs_model,
    bumps_model,
    centered_gram,
    full_spectrum,
    marginal_covariance,
    sampler_map,
)


@pytest.fixture(autouse=True, scope="module")
def fits_meet_the_sampler_premise():
    # every fit_dual model in this file has sigma2 <= lambda_q / N, the
    # premise under which the sampler's covariance is the trained marginal
    real = dual._resolve

    def checked(lam, trace, n, q, sigma2):
        q, s2, tail = real(lam, trace, n, q, sigma2)
        assert s2 <= lam[q - 1] / n, f"sigma2={s2} exceeds lambda_q / N={lam[q - 1] / n}"
        return q, s2, tail

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dual, "_resolve", checked)
        yield


def fitted_rbf_model(rng, n=9, q=3, gamma=1.5):
    ts = TrainingSet(rng.standard_normal((n, 2)))
    return fit_dual(KernelSpec("rbf", gamma), ts, q=q)


def fitted_linear_pair(rng, d=3, n=8, q=2):
    x = rng.standard_normal((d, n))
    return x, fit_primal(x, q=q), fit_dual(KernelSpec("linear"), TrainingSet.from_columns(x), q=q)


def rank(m):
    return full_spectrum(m).rank()


# --- fitting ------------------------------------------------------------


def test_fit_noiseless_gives_classical_loadings(rng):
    ts = TrainingSet(rng.standard_normal((7, 2)))
    m = fit_dual(KernelSpec("rbf", 1.0), ts, sigma2=0.0)
    assert m.sigma2 == 0.0
    assert m.q == rank(m)
    npt.assert_allclose(m.a, m.e / np.sqrt(7.0), atol=1e-12)


def test_fit_sigma2_at_boundary_zeroes_last_column(rng):
    m0 = fitted_rbf_model(rng, n=8, q=4)
    s2 = m0.eigenvalues[3] / 8.0
    m = fit_dual(m0.spec, m0.ts, sigma2=s2)
    assert m.q == 4
    npt.assert_allclose(m.a[:, 3], 0.0, atol=1e-12)


def test_fit_matches_primal_through_weight_identity(rng):
    x, pm, dm = fitted_linear_pair(rng, d=4, n=6, q=2)
    xc, _ = center_columns(x)
    w_from_dual = xc @ dm.a
    aligned, _ = align_columns(pm.w, w_from_dual)
    assert np.abs(pm.w - aligned).max() <= 1e-10
    assert abs(pm.sigma2 - dm.sigma2) <= 1e-12


def _resolution(fit, **choice):
    # the (q, sigma2) a fit resolves, or the class of the error it raises
    try:
        m = fit(**choice)
    except KppcaError as exc:
        return type(exc)
    return m.q, m.sigma2


@pytest.mark.parametrize("data", ["wide", "repeated"])
@given(n=st.integers(3, 9), extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_primal_and_linear_dual_resolve_alike(data, n, extra, seed):
    # one (q | sigma2) rule for both fits, on data with d >= N and on
    # repeated points (identical ones included), for every q and sigma2 = 0
    rng = np.random.default_rng(seed)
    if data == "wide":
        x = rng.standard_normal((n + extra, n))
    else:
        distinct = rng.standard_normal((2 + extra, int(rng.integers(1, n + 1))))
        x = distinct[:, rng.integers(0, distinct.shape[1], n)]
    ts = TrainingSet.from_columns(x)
    lam1 = float(np.linalg.svd(x - x.mean(axis=1, keepdims=True), compute_uv=False)[0] ** 2)
    for choice in [{"q": q} for q in range(1, min(x.shape) + 1)] + [{"sigma2": 0.0}]:
        primal = _resolution(partial(fit_primal, x), **choice)
        dual = _resolution(partial(fit_dual, KernelSpec("linear"), ts), **choice)
        if isinstance(primal, type) or isinstance(dual, type):
            assert primal == dual, choice
            continue
        assert primal[0] == dual[0], choice
        # an eigensolver fixes each eigenvalue, and so sigma2, to about eps lambda_1
        assert abs(primal[1] - dual[1]) <= 1e-12 * lam1 / n, choice


def test_fit_identical_points_has_zero_spectrum():
    # the centered Gram matrix of identical points is 0 up to rounding,
    # which can leave its trace below 0
    x = np.repeat([[-0.109290919821088], [0.5230815980385289], [-0.31328872960146675]], 7, axis=1)
    ts = TrainingSet.from_columns(x)
    for choice in ({"q": 1}, {"sigma2": 0.0}, {"sigma2": 0.1}):
        with pytest.raises(ZeroSpectrum):
            fit_dual(KernelSpec("linear"), ts, **choice)
        with pytest.raises(ZeroSpectrum):
            fit_primal(x, **choice)


def test_fits_do_not_depend_on_the_data_units():
    # the rank floor is relative to the Gram matrix's (or the covariance's)
    # own scale: two-arcs scaled by 10^k fits q = 2 at every k, with the
    # linear kernel in both fits. The latent prior is N(0, I), so the codes
    # do not scale; the primal reconstructions scale by 10^k.
    base = two_arcs(200, seed=0)
    fits = {}
    for k in range(-8, 9):
        x = base * 10.0**k
        ts = TrainingSet.from_columns(x)
        pm, dm = fit_primal(x, q=2), fit_dual(KernelSpec("linear"), ts, q=2)
        assert fit_primal(x, sigma2=0.0).q == fit_dual(KernelSpec("linear"), ts, sigma2=0.0).q == 2, k
        h = latent_map(pm, x)
        fits[k] = (h, dual_training_codes(dm), feature_reconstruct(pm, h) / 10.0**k)
    for k, got in fits.items():
        for g, want in zip(got, fits[0]):
            assert np.abs(g - want).max() <= 1e-10 * np.abs(want).max(), k
    # RBF: data times s with the bandwidth times s is the same kernel
    want = dual_training_codes(fit_dual(KernelSpec("rbf", 0.5), TrainingSet.from_columns(base), q=2))
    for k in (-8, -4, 4, 8):
        m = fit_dual(KernelSpec("rbf", 0.5 * 10.0**k), TrainingSet.from_columns(base * 10.0**k), q=2)
        assert np.abs(dual_training_codes(m) - want).max() <= 1e-10 * np.abs(want).max(), k


def test_linear_dual_rank_ignores_the_rounding_of_an_offset_gram():
    # points far from the origin: the Gram matrix's entries are 5e10 and
    # their rounding, left after centering, is not rank
    x = np.random.default_rng(0).standard_normal((200, 5)) * (3, 2, 1, 0.5, 0.2) + 1e5
    assert fit_dual(KernelSpec("linear"), TrainingSet(x), sigma2=0.0).q == fit_primal(x.T, sigma2=0.0).q == 5


def test_model_and_noise_factor_share_one_rank():
    # the eigenvalue clamp and the pivoted factor's stop rule are one rank
    # floor, so the rank of the model and of its sampler's noise factor agree
    m = fit_dual(KernelSpec("rbf", 0.5), TrainingSet.from_columns(two_arcs(500, seed=7)), q=5)
    assert abs(dual._noise_factor(m).shape[1] - fit_dual(m.spec, m.ts, sigma2=0.0).q) <= 3


def test_fit_shares_noise_estimator_with_primal(rng):
    # (tr K_c - sum lambda_q) / (N (N - q)) is the primal estimator on the
    # full spectrum, sum_{p>q} lambda_p / (N (N - q))
    m = fitted_rbf_model(rng, n=9, q=3)
    lam = full_spectrum(m).eigenvalues
    assert abs(m.sigma2 - lam[3:].sum() / (9 * (9 - 3))) <= 1e-15


def test_fit_centers_its_own_gram(rng):
    # fit_dual builds and centers the Gram matrix itself and keeps its means
    ts = TrainingSet(rng.standard_normal((7, 2)) + 5.0)
    spec = KernelSpec("linear")
    m = fit_dual(spec, ts, q=2)
    k = gram(spec, ts)
    npt.assert_allclose(m.means, np.append(k.mean(axis=0), k.mean()), rtol=1e-14)
    assert np.abs(m.e.sum(axis=0)).max() <= 1e-12  # the retained directions are centered
    oracle = full_spectrum(m)
    npt.assert_allclose(m.eigenvalues, oracle.eigenvalues[:2], rtol=1e-12)


def test_fit_rejects_bad_latent(rng):
    ts = TrainingSet(rng.standard_normal((6, 2)))
    spec = KernelSpec("rbf", 1.0)
    with pytest.raises(LatentExceedsRank):
        fit_dual(spec, ts, q=6)  # centered Gram has rank at most 5
    with pytest.raises(ValueError):
        fit_dual(spec, ts, q=0)
    with pytest.raises(SigmaTooLarge):
        fit_dual(spec, ts, sigma2=1e9)
    with pytest.raises(ValueError):
        fit_dual(spec, ts)
    with pytest.raises(ValueError):
        fit_dual(spec, ts, q=1, sigma2=0.1)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fit_dual(spec, ts, sigma2=bad)


def test_top_q_fit_matches_full_eigh_oracle():
    # q mode (by block Lanczos at these sizes): lambda_q, E_q up to
    # sign and sigma2 = sum_{p>q} lambda_p / (N (N - q)) of the full
    # spectrum; sigma2 mode: the oracle's q, also for a sigma2 a hair above
    # or below lambda_k / N, and for 0 (q at the rank)
    for m in (arcs_model(n=400, q=5), bumps_model(n=300, gamma=2.0, q=5)):
        oracle = full_spectrum(m)
        lam, n = oracle.eigenvalues, m.n
        npt.assert_allclose(m.eigenvalues, lam[:5], rtol=1e-12)
        aligned, _ = align_columns(oracle.eigenvectors[:, :5], m.e)
        assert np.abs(aligned - oracle.eigenvectors[:, :5]).max() <= 1e-9
        # the oracle drops eigenvalues at or below the rank floor (an RBF
        # Gram matrix's scale is 1) from the tail
        floor = rank_floor(n, 1.0)
        npt.assert_allclose(m.sigma2, lam[5:].sum() / (n * (n - 5)), rtol=1e-12, atol=floor / (n - 5))
        npt.assert_allclose(explained_variance(m), lam[:5].sum() / lam.sum(), rtol=1e-12,
                            atol=n * floor / lam.sum())
        for k in (1, 4, 9, 17):
            for sigma2 in (lam[k] / n * (1 + 1e-9), lam[k] / n * (1 - 1e-9)):
                fit = fit_dual(m.spec, m.ts, sigma2=sigma2)
                assert fit.q == np.count_nonzero(lam[: oracle.rank()] / n >= sigma2)
                assert fit.sigma2 == sigma2
        assert fit_dual(m.spec, m.ts, sigma2=0.0).q == oracle.rank()


def test_training_codes_are_the_gram_columns_codes():
    # E_q^T K_c = Lambda_q E_q^T: no N x N matrix for the training points
    for m in (arcs_model(q=4), kpca_limit(bumps_model(n=12, q=3))):
        npt.assert_allclose(dual_training_codes(m), dual_latent_map(m, centered_gram(m)),
                            atol=1e-11 * np.abs(dual_training_codes(m)).max())


def test_dual_loadings_are_gram_orthogonal(rng):
    m = fitted_rbf_model(rng, n=9, q=4)
    g = m.a.T @ centered_gram(m) @ m.a
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
    kc = centered_gram(m)
    k = np.concatenate([kc[:, :3], rng.standard_normal((10, 2))], axis=1)
    batch = dual_latent_map(m, k)
    g = m.a.T @ kc @ m.a + m.sigma2 * np.eye(4)
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
    h_d = dual_latent_map(dm, centered_gram(dm))
    assert np.abs(h_p - signs[:, None] * h_d).max() <= 1e-8


def test_latent_map_noiseless_is_scaled_kpca_projection(rng):
    m = fitted_rbf_model(rng, n=8, q=3)
    lim = kpca_limit(m)
    kvec = centered_gram(m)[:, 1:2]
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
    m = bumps_model(n=5, q=2)
    kc = centered_gram(m)
    h = rng.standard_normal((2, 3))
    oracle = np.array([[
        sum(kc[i, j] * sum(m.a[j, p] * h[p, c] for p in range(2)) for j in range(5))
        for c in range(3)] for i in range(5)
    ])
    npt.assert_allclose(dual_reconstruct(m, h), oracle, atol=1e-10)


def test_noiseless_full_rank_roundtrip_identity(rng):
    ts = TrainingSet(rng.standard_normal((7, 2)))
    spec = KernelSpec("rbf", 1.2)
    kc = center_gram(gram(spec, ts))
    m = fit_dual(spec, ts, sigma2=0.0)
    probes = centered_kernel_vectors(spec, ts, m.means, rng.standard_normal((2, 1)))
    for k in (kc, probes):
        rec = dual_reconstruct(m, dual_latent_map(m, k))
        assert np.abs(rec - k).max() <= 1e-8


# --- sampler -------------------------------------------------------------
#
# k = K_c a h + sigma J L v with K = L L^T and h, v standard normal; the
# covariance must be the marginal E diag(c^2) E^T of the full spectrum.


def test_centered_gram_factor_both_branches(monkeypatch):
    # J L with K = L L^T: LAPACK's L on bump images (positive definite),
    # the pivoted loop when LAPACK fails, and on two arcs (rank deficient)
    m = bumps_model(n=8)
    kc = centered_gram(m)
    l = np.linalg.cholesky(gram(m.spec, m.ts))
    npt.assert_array_equal(dual._centered_gram_factor(m), l - l.mean(axis=0))  # J L
    def fail(a):
        raise np.linalg.LinAlgError("not positive definite")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", fail)
        f = dual._centered_gram_factor(m)  # the pivoted loop runs to all N columns
    assert f.shape == (8, 8)
    assert np.abs(f @ f.T - kc).max() <= 1e-12 * np.abs(kc).max()
    m = arcs_model()
    kc = centered_gram(m)
    f = dual._centered_gram_factor(m)  # singular: one column per rank direction
    assert f.shape[1] < m.n
    assert np.abs(f @ f.T - kc).max() <= 1e-12 * np.abs(kc).max()


def test_sampler_noiseless_full_latent_form():
    # at sigma2 = 0 the noise factor vanishes and the map is
    # K_c a = E_q diag(lambda_q / sqrt(N))
    m = kpca_limit(bumps_model(n=6, q=2))
    b, r = sampler_map(m)
    npt.assert_allclose(b[:, :2], m.e * m.eigenvalues / np.sqrt(6.0), atol=1e-15)
    npt.assert_array_equal(b[:, 2:], 0.0)


def test_sampler_full_latent_ignores_sigma():
    # with q at the full rank nothing is discarded, whatever sigma2 up to
    # lambda_q / N says: the noise gives back what the loadings lose
    m0 = bumps_model(n=6, sigma2=0.0)
    assert m0.q == 5
    expected = (m0.e * m0.eigenvalues**2) @ m0.e.T / 6.0
    for share in (0.5, 1.0):
        m = replace(m0, sigma2=share * m0.eigenvalues[-1] / 6.0)
        b, _ = sampler_map(m)
        npt.assert_allclose(b @ b.T, expected, atol=1e-12)


def test_sampler_is_the_conditional_at_prior_codes():
    # the sampler is the model's ancestral draw: prior codes u[:q] through
    # the conditional mean K_c a h, plus the conditional's noise sigma J L
    for m in (arcs_model(), bumps_model()):
        factor = dual._noise_factor(m)
        u = np.random.default_rng(3).standard_normal((m.q + factor.shape[1], 4))
        cond = dual_conditional_kernel(m, u[: m.q])
        want = cond.mean + cond.cov_factor @ u[m.q :]
        assert np.abs(samples_from_noise(m, u, factor) - want).max() <= 1e-12 * np.abs(want).max()


def test_sampler_covariance_identity_oracle():
    # the map's outer product must equal the marginal covariance of kernel
    # representations, K_c (A A^T + sigma2 K_c^+) K_c, assembled densely
    m = bumps_model(n=5, q=1)
    b, _ = sampler_map(m)
    kc = centered_gram(m)
    oracle = kc @ (m.a @ m.a.T + m.sigma2 * np.linalg.pinv(kc)) @ kc
    assert np.abs(b @ b.T - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_sampler_spectral_covariance_form():
    # both factorizations of K: LAPACK's Cholesky (bump images, positive
    # definite) and the pivoted one (two arcs, rank deficient)
    for m, full_rank in ((bumps_model(n=12, q=3), True), (arcs_model(q=4), False)):
        b, r = sampler_map(m)
        assert (r == m.n) == full_rank
        target = marginal_covariance(m)
        assert np.abs(b @ b.T - target).max() <= 1e-12 * np.abs(target).max()


def test_sampler_map_spans_marginal_range():
    # samples are centered kernel vectors; with sigma2 > 0 and a positive
    # definite K the noise reaches all N - 1 centered directions
    for m in (bumps_model(n=9, q=2), arcs_model(q=2)):
        b, _ = sampler_map(m)
        assert np.abs(b.sum(axis=0)).max() <= 1e-12 * np.abs(b).max()
    m = bumps_model(n=9, q=2)
    assert np.linalg.matrix_rank(sampler_map(m)[0]) == 8


def test_sampler_zero_noise_hook():
    m = bumps_model(n=6, q=2)
    factor = dual._noise_factor(m)
    out = samples_from_noise(m, np.zeros((2 + factor.shape[1], 3)), factor)
    npt.assert_array_equal(out, np.zeros((6, 3)))
    # at sigma2 = 0 the noise factor is 0: noise beyond the codes moves nothing
    limit = kpca_limit(m)
    factor = dual._noise_factor(limit)
    u = np.vstack([np.zeros((2, 3)), np.ones((factor.shape[1], 3))])
    npt.assert_array_equal(samples_from_noise(limit, u, factor), np.zeros((6, 3)))


def test_sample_deterministic_columns():
    m = arcs_model(q=2)
    a = dual_sample(m, 99, 4)
    assert a.shape == (60, 4)
    npt.assert_array_equal(a, dual_sample(m, 99, 4))
    assert dual_sample(m, 99, 0).shape == (60, 0)


def test_sample_monte_carlo_covariance():
    for m in (bumps_model(n=8, q=3), arcs_model(n=30, gamma=5.0, q=3)):
        mat = dual_sample(m, 1234, 100_000)
        emp = mat @ mat.T / mat.shape[1]
        target = marginal_covariance(m)
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel <= 0.05


# --- explained variance ---------------------------------------------------


def test_explained_variance_full():
    m = bumps_model(n=5, sigma2=0.0)  # q at the full rank: nothing discarded
    assert m.tail == 0.0
    assert explained_variance(m) == 1.0


def test_explained_variance_rank_one(rng):
    ts = TrainingSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
    m = fit_dual(KernelSpec("linear"), ts, q=1)
    assert explained_variance(m) == 1.0


def test_explained_variance_known_spectrum():
    # retained spectrum [4, 2], discarded [1, 1]
    m = replace(bumps_model(n=4, q=2), eigenvalues=np.array([4.0, 2.0]), tail=2.0)
    assert abs(explained_variance(m) - 0.75) <= 1e-12


def test_explained_variance_zero_spectrum(rng):
    m = bumps_model(n=3, q=1)
    broken = replace(m, eigenvalues=np.zeros(1), tail=0.0)
    with pytest.raises(ZeroSpectrum):
        explained_variance(broken)


def test_monotonicity_in_q(rng):
    m0 = fitted_rbf_model(rng, n=10, q=1)
    evs, s2s = [], []
    for q in range(1, rank(m0) + 1):
        m = fit_dual(m0.spec, m0.ts, q=q)
        evs.append(explained_variance(m))
        s2s.append(m.sigma2)
    assert all(b >= a for a, b in zip(evs, evs[1:]))
    assert all(b <= a for a, b in zip(s2s, s2s[1:]))


# --- posterior and conditional -------------------------------------------


def test_posterior_zero_vector(rng):
    m = fitted_rbf_model(rng)
    post = dual_latent_posterior(m, np.zeros((m.n, 1)))
    npt.assert_allclose(post.mean, 0.0)


def test_posterior_mean_is_map(rng):
    m = fitted_rbf_model(rng, n=8, q=3)
    kvec = centered_gram(m)[:, 4:5]
    post = dual_latent_posterior(m, kvec)
    assert np.abs(post.mean - dual_latent_map(m, kvec)).max() <= 1e-10


def test_posterior_covariance_convention(rng):
    # sigma2 G^-1 with G = a^T K_c a + sigma2 I, the primal convention
    m = fitted_rbf_model(rng, n=8, q=2)
    kc = centered_gram(m)
    post = dual_latent_posterior(m, kc[:, :1])
    g = m.a.T @ kc @ m.a + m.sigma2 * np.eye(2)
    npt.assert_allclose(post.covariance(), m.sigma2 * np.linalg.inv(g), atol=1e-10)


def test_posterior_mean_matches_primal(rng):
    x, pm, dm = fitted_linear_pair(rng, d=3, n=9, q=2)
    xc, _ = center_columns(x)
    _, signs = align_columns(pm.w, xc @ dm.a)
    probe = rng.standard_normal((3, 1))
    post_p = latent_posterior(pm, probe)
    post_d = dual_latent_posterior(dm, centered_kernel_vectors(dm.spec, dm.ts, dm.means, probe))
    assert np.abs(post_p.mean - signs[:, None] * post_d.mean).max() <= 1e-8
    flip = np.outer(signs, signs)
    cov_p, cov_d = post_p.covariance(), flip * post_d.covariance()
    assert np.abs(cov_p - cov_d).max() <= 1e-8 * np.abs(cov_p).max()


def test_posterior_requires_noise():
    m = kpca_limit(bumps_model(n=5, q=2))
    with pytest.raises(SigmaZero):
        dual_latent_posterior(m, np.zeros((5, 1)))


def test_conditional_kernel_degenerate_at_zero():
    m = kpca_limit(bumps_model(n=5, q=2))
    cond = dual_conditional_kernel(m, np.zeros((2, 1)))
    npt.assert_allclose(cond.mean, 0.0)
    npt.assert_allclose(cond.covariance(), 0.0, atol=1e-14)


def test_conditional_kernel_mean_and_covariance(rng):
    m = fitted_rbf_model(rng, n=7, q=3)
    h = rng.standard_normal((3, 1))
    cond = dual_conditional_kernel(m, h)
    npt.assert_array_equal(cond.mean, dual_reconstruct(m, h))
    assert np.abs(cond.covariance() - m.sigma2 * centered_gram(m)).max() <= 1e-10


# --- marginal log-density -------------------------------------------------


def test_marginal_loglik_matches_dense_oracle(rng):
    # against the covariance of the sampler's own noise-to-sample map
    m = bumps_model(n=6, q=2)
    b, _ = sampler_map(m)
    oracle = multivariate_normal(mean=np.zeros(6), cov=b @ b.T, allow_singular=True)
    k = dual_sample(m, 5, 3)
    assert np.abs(dual_marginal_loglik(m, k) - oracle.logpdf(k.T)).max() <= 1e-8


def test_marginal_loglik_on_fitted_model_matches_singular_oracle(rng):
    # a centered Gram matrix has the constant vector as its one null
    # direction; the density lives on its complement
    m = fitted_rbf_model(rng, n=10, q=2, gamma=0.3)
    assert rank(m) == m.n - 1
    oracle = multivariate_normal(mean=np.zeros(m.n), cov=marginal_covariance(m), allow_singular=True)
    queries = centered_kernel_vectors(m.spec, m.ts, m.means, rng.standard_normal((2, 3)))
    k = np.hstack([dual_sample(m, 5, 3), queries])
    assert np.abs(k.sum(axis=0)).max() <= 1e-12
    assert np.abs(dual_marginal_loglik(m, k) - oracle.logpdf(k.T)).max() <= 1e-8


def test_marginal_loglik_guards(rng):
    m0 = kpca_limit(bumps_model(n=5, q=2))
    with pytest.raises(SigmaZero):
        dual_marginal_loglik(m0, np.zeros((5, 1)))
    m1 = fitted_rbf_model(rng, n=6, q=2)  # centered Gram: null space is the constant vector
    assert np.isfinite(dual_marginal_loglik(m1, np.zeros((6, 1)))).all()
    with pytest.raises(NotCentered, match="column 1 "):
        dual_marginal_loglik(m1, np.hstack([np.zeros((6, 1)), np.ones((6, 1))]))
    # three distinct points, each twice: singular beyond the centering direction
    ts = TrainingSet(np.repeat(rng.standard_normal((3, 2)), 2, axis=0))
    m2 = fit_dual(KernelSpec("rbf", 1.5), ts, q=1)
    assert rank(m2) == 2
    with pytest.raises(RankDeficient):
        dual_marginal_loglik(m2, np.zeros((6, 1)))


def test_dimension_checks(rng):
    m = fitted_rbf_model(rng)
    with pytest.raises(DimensionMismatch):
        dual_latent_map(m, np.zeros((m.n + 1, 1)))
    with pytest.raises(DimensionMismatch):
        dual_reconstruct(m, np.zeros((m.q + 1, 1)))
    factor = dual._noise_factor(m)
    with pytest.raises(DimensionMismatch):
        samples_from_noise(m, np.zeros((m.q + factor.shape[1] + 1, 1)), factor)  # q + r rows
    with pytest.raises(DimensionMismatch):
        samples_from_noise(m, np.zeros((m.q, 1)), factor)  # the codes alone


def test_blocked_preimage_names_the_batch_column():
    # at epsilon = 0 a column in the second block with no positive weight is
    # reported by its index in the whole batch; the kernel columns
    # themselves are left as they were, and the blocked batch equals
    # one-column calls on both sides of the block boundary
    m = arcs_model(n=40)
    width = kernels.block_width(m.n)
    k = np.ones((m.n, width + 5))
    k[:, width + 2] = -np.abs(centered_gram(m)[:, 0])  # clips to all zeros
    with pytest.raises(DegenerateNormalizer, match=f"column {width + 2} "):
        kernel_smoother(m.ts, k, epsilon=0)
    k += np.random.default_rng(4).uniform(-1.5, 0.5, k.shape)  # some weights to clip
    before = k.copy()
    batch = kernel_smoother(m.ts, k)
    npt.assert_array_equal(k, before)
    for j in (0, width - 1, width, width + 4):
        npt.assert_allclose(batch[:, j], kernel_smoother(m.ts, k[:, [j]])[:, 0], rtol=1e-13, atol=1e-15)


# --- the batch convention ---------------------------------------------------


def _query_batches():
    # every public query function as (function of a batch, a 5-column batch)
    rng = np.random.default_rng(21)
    dm = fitted_rbf_model(rng, n=9, q=3)
    pm = fit_primal(rng.standard_normal((4, 9)), q=2)
    inputs = rng.standard_normal((dm.ts.d_in, 5))
    kc = centered_kernel_vectors(dm.spec, dm.ts, dm.means, inputs)
    codes = rng.standard_normal((dm.q, 5))
    feats = rng.standard_normal((pm.d, 5))
    factor = dual._noise_factor(dm)
    return {
        "project_inputs": (lambda b: project_inputs(dm, b), inputs),
        "centered_kernel_vectors": (lambda b: centered_kernel_vectors(dm.spec, dm.ts, dm.means, b), inputs),
        "preimage_codes": (lambda b: preimage_codes(dm, b), codes),
        "dual_latent_map": (lambda b: dual_latent_map(dm, b), kc),
        "dual_reconstruct": (lambda b: dual_reconstruct(dm, b), codes),
        "latent_map": (lambda b: latent_map(pm, b), feats),
        "feature_reconstruct": (lambda b: feature_reconstruct(pm, b), rng.standard_normal((pm.q, 5))),
        "kernel_smoother": (lambda b: kernel_smoother(dm.ts, b), rng.uniform(0.1, 1.0, (dm.n, 5))),
        "samples_from_noise": (lambda b: samples_from_noise(dm, b, factor),
                               rng.standard_normal((dm.q + factor.shape[1], 5))),
        "dual_latent_posterior": (lambda b: dual_latent_posterior(dm, b), kc),
        "latent_posterior": (lambda b: latent_posterior(pm, b), feats),
        "dual_conditional_kernel": (lambda b: dual_conditional_kernel(dm, b), codes),
        "dual_marginal_loglik": (lambda b: dual_marginal_loglik(dm, b), kc),
        "marginal_loglik": (lambda b: marginal_loglik(pm, b), feats),
    }


@pytest.mark.parametrize("name", list(_query_batches()))
def test_query_takes_one_query_per_column(name):
    # an M-column batch is M one-column calls, and one query is the batch
    # with one column: a 1-D argument is refused
    run, batch = _query_batches()[name]
    out = run(batch)
    for j in range(batch.shape[1]):
        one = run(batch[:, j : j + 1])
        if isinstance(out, GaussianSpec):
            npt.assert_array_equal(out.cov_factor, one.cov_factor)
            got, want = out.mean[:, j], one.mean[:, 0]
        else:
            got, want = out[..., j], one[..., 0]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(DimensionMismatch):
        run(batch[:, 0])


def test_a_square_batch_is_read_by_columns():
    # with d_in = M = 2, as in README's quickstart, a batch read by rows
    # passes every shape check: each column must be its own input
    m = arcs_model(n=20)
    x = np.array([[0.5, 1.0], [0.3, -0.2]])  # the inputs (0.5, 0.3) and (1.0, -0.2)
    for run in (lambda b: project_inputs(m, b), lambda b: centered_kernel_vectors(m.spec, m.ts, m.means, b)):
        out = run(x)
        for j in range(2):
            want = run(x[:, j : j + 1])[:, 0]
            assert np.abs(out[:, j] - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(run(x.T) - out).max() > 1e-3 * np.abs(out).max()
        with pytest.raises(DimensionMismatch):
            run(np.ones((3, 2)))  # three inputs, one per row


def test_marginal_loglik_builds_the_spectrum_once(rng, monkeypatch):
    m = fitted_rbf_model(rng, n=8, q=2)
    calls = []
    for name in ("gram", "top_eig"):
        real = getattr(dual, name)
        monkeypatch.setattr(dual, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    k = centered_kernel_vectors(m.spec, m.ts, m.means, rng.standard_normal((2, 7)))
    assert dual_marginal_loglik(m, k).shape == (7,)
    assert calls == ["gram", "top_eig"]
