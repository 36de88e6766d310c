import numpy as np
import numpy.testing as npt
import pytest

from kppca import center_columns, center_gram, sym_eig, top_eig
from kppca.errors import NoConvergence, NonFinite

from conftest import arcs_model, bumps_model, centered_gram, random_psd


def test_eig_validates_shape_and_values():
    for solve in (sym_eig, lambda a: top_eig(a, 1)):
        for bad in (np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(3), np.float64(1.0)):
            with pytest.raises(ValueError):
                solve(bad)
        with pytest.raises(NonFinite):
            solve(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sym_eig_identity():
    e = sym_eig(np.eye(3))
    npt.assert_allclose(e.eigenvalues, [1.0, 1.0, 1.0])
    # fully degenerate spectrum: any orthonormal basis is acceptable, so
    # compare the subspace projector rather than the vectors
    npt.assert_allclose(e.eigenvectors @ e.eigenvectors.T, np.eye(3), atol=1e-14)


def test_sym_eig_diagonal():
    e = sym_eig(np.diag([2.0, 1.0]))
    npt.assert_allclose(e.eigenvalues, [2.0, 1.0])
    npt.assert_allclose(e.eigenvectors, np.eye(2), atol=1e-14)


def test_sym_eig_two_by_two_hand_solved():
    # char poly of [[2,1],[1,2]]: (2-l)^2 - 1 = 0 -> l in {3, 1}
    e = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    npt.assert_allclose(e.eigenvalues, [3.0, 1.0], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    npt.assert_allclose(e.eigenvectors[:, 0], [s, s], atol=1e-12)
    npt.assert_allclose(e.eigenvectors[:, 1], [s, -s], atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_sym_eig_invariants_random(rng, n):
    m = random_psd(rng, n)
    e = sym_eig(m)
    assert np.all(np.diff(e.eigenvalues) <= 0)
    assert np.all(e.eigenvalues >= 0)
    npt.assert_allclose(e.eigenvectors.T @ e.eigenvectors, np.eye(n), atol=1e-10)
    recon = (e.eigenvectors * e.eigenvalues) @ e.eigenvectors.T
    scale = max(1.0, np.abs(m).max())
    assert np.abs(recon - m).max() <= 1e-8 * scale


def test_sym_eig_sign_convention(rng):
    m = random_psd(rng, 6)
    e = sym_eig(m)
    for p in range(6):
        col = e.eigenvectors[:, p]
        assert col[np.argmax(np.abs(col))] > 0


def test_sym_eig_clamps_tiny_negatives(rng):
    # rank-deficient PSD: floating point makes trailing eigenvalues tiny
    # and often negative; they must come back as exact zeros
    m = random_psd(rng, 8, rank=3)
    e = sym_eig(m)
    assert np.all(e.eigenvalues[3:] == 0.0)
    assert e.rank() == 3


def test_sym_eig_nonfinite_and_noconvergence(monkeypatch):
    with pytest.raises(NonFinite):
        sym_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def boom(_):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    with pytest.raises(NoConvergence):
        sym_eig(np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_center_gram_all_ones_is_zero(n):
    kc = center_gram(np.ones((n, n)))
    npt.assert_allclose(kc, 0.0, atol=1e-14)


def test_center_gram_single_point():
    npt.assert_allclose(center_gram(np.array([[3.7]])), [[0.0]])


def test_center_gram_matches_triple_product_oracle(rng):
    k = random_psd(rng, 3)
    n = 3
    j = np.eye(n) - np.ones((n, n)) / n
    oracle = j @ k @ j
    kc = center_gram(k)
    assert np.abs(kc - oracle).max() <= 1e-12
    assert np.abs(kc.sum(axis=0)).max() <= 1e-10
    assert np.abs(kc.sum(axis=1)).max() <= 1e-10


def test_center_gram_idempotent(rng):
    k = random_psd(rng, 6)
    once = center_gram(k)
    twice = center_gram(once)
    assert np.abs(twice - once).max() <= 1e-12


def test_center_columns_identical_columns():
    x = np.tile(np.array([[1.0], [2.0]]), (1, 5))
    centered, mean = center_columns(x)
    npt.assert_allclose(centered, 0.0)
    npt.assert_allclose(mean, [1.0, 2.0])


def test_center_columns_rejects_a_vector():
    with pytest.raises(ValueError):
        center_columns(np.ones(3))


def test_center_columns_already_centered():
    centered, mean = center_columns(np.array([[1.0, -1.0]]))
    npt.assert_allclose(centered, [[1.0, -1.0]])
    npt.assert_allclose(mean, [0.0])


def test_center_columns_elementwise_oracle(rng):
    x = rng.standard_normal((4, 7))
    centered, mean = center_columns(x)
    for i in range(4):
        row_mean = sum(x[i, j] for j in range(7)) / 7
        assert abs(mean[i] - row_mean) <= 1e-12
        for j in range(7):
            assert abs(centered[i, j] - (x[i, j] - row_mean)) <= 1e-12
    assert np.abs(centered.sum(axis=1)).max() <= 1e-10


def test_shared_spectrum_and_transport(rng):
    # covariance X_c X_c^T and Gram X_c^T X_c share their nonzero spectrum,
    # and eigenvectors transport as v_p = lambda_p^{-1/2} X_c eps_p
    d, n = 4, 9
    xc, _ = center_columns(rng.standard_normal((d, n)))
    cov_eig = sym_eig(xc @ xc.T)
    gram_eig = sym_eig(xc.T @ xc)
    m = min(d, n)
    lam_c = cov_eig.eigenvalues[:m]
    lam_g = gram_eig.eigenvalues[:m]
    scale = max(1.0, lam_c[0])
    npt.assert_allclose(lam_c, lam_g, rtol=1e-8, atol=1e-10 * scale)
    for p in range(m):
        if lam_g[p] <= 1e-8:
            continue
        transported = xc @ gram_eig.eigenvectors[:, p] / np.sqrt(lam_g[p])
        v = cov_eig.eigenvectors[:, p]
        if transported @ v < 0:
            transported = -transported
        assert np.linalg.norm(v - transported) <= 1e-6


def test_center_gram_commutes_with_column_centering(rng):
    from kppca import KernelSpec, TrainingSet, gram

    x = rng.standard_normal((3, 6))
    spec = KernelSpec("linear")
    via_gram = center_gram(gram(spec, TrainingSet.from_columns(x)))
    centered, _ = center_columns(x)
    via_features = gram(spec, TrainingSet.from_columns(centered))
    assert np.abs(via_gram - via_features).max() <= 1e-10


# --- leading eigenpairs and Cholesky factors --------------------------------


def aligned_error(vectors, reference):
    # largest entry difference after flipping each column to the reference's sign
    signs = np.sign(np.sum(vectors * reference, axis=0))
    return float(np.abs(vectors * signs - reference).max())


def full_solves(monkeypatch):
    """Record the size of every np.linalg.eigh call: N for a full solve."""
    sizes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(m.shape[0]) or eigh(m))
    return sizes


def test_top_eig_matches_eigh_on_fitted_grams(monkeypatch):
    # centered Gram matrices of two-arcs points (spectrum falling to the
    # rounding level) and of bump images (slowly decaying), by block
    # Lanczos: no full solve
    for m in (arcs_model(n=300), bumps_model(n=300, gamma=2.0)):
        kc = centered_gram(m)
        values, vectors = np.linalg.eigh(kc)
        values, vectors = values[::-1], vectors[:, ::-1]
        sizes = full_solves(monkeypatch)
        for count in (1, 4, 8):
            e = top_eig(kc, count)
            assert e.eigenvalues.shape == (count,) and e.eigenvectors.shape == (m.n, count)
            assert np.abs(e.eigenvalues - values[:count]).max() <= 1e-12 * values[0]
            assert aligned_error(e.eigenvectors, vectors[:, :count]) <= 1e-9
        assert m.n not in sizes
        monkeypatch.undo()


def test_top_eig_tight_gap(rng, monkeypatch):
    # lambda_3 and lambda_4 one part in 10^6 apart, either side of the cut
    n = 200
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([[10.0, 6.0, 3.0 * (1 + 1e-6), 3.0], 2.0 * 0.8 ** np.arange(n - 4)])
    a = (basis * lam) @ basis.T
    sizes = full_solves(monkeypatch)
    for count in (3, 4):
        e = top_eig(a, count)
        assert np.abs(e.eigenvalues - lam[:count]).max() <= 1e-12 * lam[0]
        assert aligned_error(e.eigenvectors, basis[:, :count]) <= 1e-6
    assert n not in sizes


def test_top_eig_conventions_match_sym_eig(rng):
    # a block wider than N / 8: the full solve, with sym_eig's order, rank
    # floor and signs
    m = random_psd(rng, 9, rank=4)
    full = sym_eig(m)
    e = top_eig(m, 9)
    npt.assert_allclose(e.eigenvalues, full.eigenvalues, atol=1e-12 * full.eigenvalues[0])
    assert e.rank() == full.rank() == 4
    npt.assert_allclose(e.eigenvectors[:, :4], full.eigenvectors[:, :4], atol=1e-10)
    again = top_eig(m, 9)
    npt.assert_array_equal(again.eigenvectors, e.eigenvectors)  # same bits


def test_top_eig_gives_way_to_full_solve_on_slow_decay(rng, monkeypatch):
    # a spectrum that decays slowly past the wanted pairs: the rate of the
    # first checks predicts more Krylov work than the full solve, which
    # takes over while the basis holds at most N/8 columns (each check is
    # one projected eigh as wide as the basis; the cap is N/2)
    n = 200
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 1.0 / (1.0 + 0.01 * np.arange(n))
    a = (basis * lam) @ basis.T
    sizes = full_solves(monkeypatch)
    e = top_eig(a, 3)
    assert sizes[-1] == n and sizes.count(n) == 1 and max(sizes[:-1]) <= n // 8
    assert np.abs(e.eigenvalues - lam[:3]).max() <= 1e-12
    assert aligned_error(e.eigenvectors, basis[:, :3]) <= 1e-8


def projector(vectors):
    return vectors @ vectors.T


def assert_like_eigh(a, count, monkeypatch, groups):
    """top_eig(a, count) by the iteration against the full eigh: values to
    1e-12 of the largest, orthonormal vectors, and for each group of
    columns (a whole eigenspace) the same projector to 1e-9."""
    values, vectors = np.linalg.eigh(a)
    values, vectors = values[::-1], vectors[:, ::-1]
    sizes = full_solves(monkeypatch)
    e = top_eig(a, count)
    monkeypatch.undo()
    assert a.shape[0] not in sizes
    scale = max(values[0], 1.0)
    expected = np.where(values[:count] <= 1e-12 * scale, 0.0, values[:count])
    assert np.abs(e.eigenvalues - expected).max() <= 1e-12 * scale
    npt.assert_allclose(e.eigenvectors.T @ e.eigenvectors, np.eye(count), atol=1e-12)
    for group in groups:
        assert np.abs(projector(e.eigenvectors[:, group]) - projector(vectors[:, group])).max() <= 1e-9
    return e


@pytest.mark.parametrize("multiplicity", [1, 2, 4, 6])
def test_top_eig_repeated_top_eigenvalue(rng, monkeypatch, multiplicity):
    # the top eigenvalue repeated up to `count` times above a decaying tail
    n, count = 200, 6
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([np.full(multiplicity, 5.0), 2.0 * 0.7 ** np.arange(n - multiplicity)])
    e = assert_like_eigh((basis * lam) @ basis.T, count, monkeypatch,
                         [slice(0, multiplicity)] + [slice(p, p + 1) for p in range(multiplicity, count)])
    npt.assert_allclose(e.eigenvalues[:multiplicity], 5.0, rtol=1e-12)


def test_top_eig_every_eigenvalue_twice(rng, monkeypatch):
    # two identical diagonal blocks: each eigenvector of one block, put in
    # either half, so every eigenvalue is double; whole pairs are compared
    half = 100
    basis, _ = np.linalg.qr(rng.standard_normal((half, half)))
    b = (basis * 3.0 * 0.6 ** np.arange(half)) @ basis.T
    a = np.zeros((2 * half, 2 * half))
    a[:half, :half] = a[half:, half:] = b
    for count in (4, 6):
        assert_like_eigh(a, count, monkeypatch, [slice(p, p + 2) for p in range(0, count, 2)])


def test_top_eig_rank_below_count(rng, monkeypatch):
    # the linear kernel on 2-D points: rank 2, so all but two of the pairs
    # are at the rank floor, set to 0, with orthonormal vectors in the null
    # space; and the zero matrix, all of whose pairs are
    from kppca import KernelSpec, TrainingSet, gram

    x, _ = center_columns(rng.standard_normal((2, 200)) * [[3.0], [1.0]])
    kc = center_gram(gram(KernelSpec("linear"), TrainingSet.from_columns(x)))
    e = assert_like_eigh(kc, 5, monkeypatch, [slice(0, 1), slice(1, 2)])
    assert e.rank() == 2 and np.all(e.eigenvalues[2:] == 0.0)
    assert np.abs(kc @ e.eigenvectors[:, 2:]).max() <= 1e-12 * e.eigenvalues[0]
    zero = top_eig(np.zeros((100, 100)), 3)
    assert np.all(zero.eigenvalues == 0.0)
    npt.assert_allclose(zero.eigenvectors.T @ zero.eigenvectors, np.eye(3), atol=1e-15)


def test_top_eig_identity(monkeypatch):
    # one eigenspace, the whole space: any orthonormal vectors will do
    assert_like_eigh(np.eye(120), 4, monkeypatch, [])


def test_top_eig_repeats_its_bits(rng):
    # the iteration starts from a fixed block and draws nothing: the same
    # matrix gives the same bits, on a fitted Gram matrix and on a random one
    for a in (centered_gram(bumps_model(n=300, gamma=2.0)), random_psd(rng, 200, rank=40)):
        first, again = top_eig(a, 6), top_eig(a.copy(), 6)
        assert first.eigenvalues.tobytes() == again.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == again.eigenvectors.tobytes()


def test_top_eig_rejects_bad_input():
    with pytest.raises(NonFinite):
        top_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)
    for count in (0, 3):
        with pytest.raises(ValueError):
            top_eig(np.eye(2), count)
