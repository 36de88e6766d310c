import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kppca import (
    KernelSpec,
    TrainingSet,
    center_columns,
    center_gram,
    centered_kernel_vectors,
    gram,
    gram_means,
)
from kppca import kernels, two_arcs
from kppca.errors import DimensionMismatch

from conftest import bump_images


def centered_vectors(spec, ts, x):
    """centered_kernel_vectors with the Gram means that a fitted model keeps."""
    return centered_kernel_vectors(spec, ts, gram_means(gram(spec, ts)), x)


def kernel_eval(spec, x, y):
    """Pointwise oracle: k(x, y) straight from the definition."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if spec.family == "linear":
        return float(x @ y)
    return float(np.exp(-np.sum((x - y) ** 2) / (2.0 * spec.gamma**2)))


def test_kernel_spec_validation():
    KernelSpec("linear")
    KernelSpec("rbf", 2.0)
    with pytest.raises(ValueError):
        KernelSpec("poly")
    with pytest.raises(ValueError):
        KernelSpec("rbf")
    with pytest.raises(ValueError):
        KernelSpec("rbf", -1.0)
    # 2 gamma^2 must be a finite float > 0: 1e300 overflows, 1e-300 underflows
    for family, gamma in (("rbf", np.inf), ("rbf", np.nan), ("rbf", 1e300), ("rbf", 1e-300),
                          ("linear", 5.0)):
        with pytest.raises(ValueError):
            KernelSpec(family, gamma)


def test_training_set_shapes(rng):
    ts = TrainingSet(rng.standard_normal((5, 3)))
    assert ts.n == 5 and ts.d_in == 3
    x = rng.standard_normal((3, 5))
    npt.assert_array_equal(TrainingSet.from_columns(x).points, x.T)
    with pytest.raises(ValueError):
        TrainingSet(np.empty((0, 2)))
    with pytest.raises(ValueError):
        TrainingSet(np.zeros(3))  # one point is a 1 x d_in array
    with pytest.raises(ValueError):
        two_arcs(0)


def pair(x, y):
    return TrainingSet(np.array([x, y], dtype=float))


def test_kernel_eval_rbf_zero_distance():
    x = [0.3, -1.2]
    assert kernel_eval(KernelSpec("rbf", 0.7), x, x) == 1.0
    npt.assert_array_equal(gram(KernelSpec("rbf", 0.7), pair(x, x)), np.ones((2, 2)))


def test_kernel_eval_rbf_known_value():
    # gamma=2 and distance 2: exp(-4 / (2 * 4)) = exp(-1/2)
    spec = KernelSpec("rbf", 2.0)
    assert abs(kernel_eval(spec, [0.0, 0.0], [2.0, 0.0]) - np.exp(-0.5)) <= 1e-15
    assert abs(gram(spec, pair([0.0, 0.0], [2.0, 0.0]))[0, 1] - np.exp(-0.5)) <= 1e-15


def test_kernel_eval_linear_dot():
    assert kernel_eval(KernelSpec("linear"), [1.0, 2.0], [3.0, -1.0]) == 1.0
    assert gram(KernelSpec("linear"), pair([1.0, 2.0], [3.0, -1.0]))[0, 1] == 1.0


def test_kernel_eval_dimension_mismatch():
    # a 2-wide input against 1-wide training points
    with pytest.raises(DimensionMismatch):
        centered_vectors(KernelSpec("linear"), TrainingSet(np.ones((2, 1))), np.ones((2, 1)))


@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    st.floats(0.5, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_rbf_symmetric_and_bounded(xs, ys, g):
    # ranges keep the exponent above the double-precision underflow cliff,
    # where the mathematical bound 0 < k would be unobservable anyway
    k = gram(KernelSpec("rbf", g), pair(xs, ys))
    assert 0.0 < k[0, 1] <= 1.0
    assert k[0, 1] == k[1, 0]


@given(st.floats(-1e12, 1e12), st.floats(0.0, 2.0 * np.pi), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rbf_precision_independent_of_offset(offset, angle, seed):
    # distances do not change under translation, so neither may the kernel
    # values: compare against direct differences of the stored points
    rng = np.random.default_rng(seed)
    shift = offset * np.array([np.cos(angle), np.sin(angle)])
    points = rng.standard_normal((30, 2)) + shift
    queries = rng.standard_normal((5, 2)) + shift
    spec = KernelSpec("rbf", 1.0)
    ts = TrainingSet(points)
    direct = np.exp(-np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2) / 2.0)
    assert np.abs(gram(spec, ts) - direct).max() <= 1e-12
    cross = np.exp(-np.sum((points[:, None, :] - queries[None, :, :]) ** 2, axis=2) / 2.0)
    centered = cross - cross.mean(axis=0) - direct.mean(axis=0)[:, None] + direct.mean()
    assert np.abs(centered_vectors(spec, ts, queries.T) - centered).max() <= 1e-12


def test_gram_single_point_rbf():
    k = gram(KernelSpec("rbf", 1.0), TrainingSet(np.array([[0.5, 0.5]])))
    npt.assert_allclose(k, [[1.0]])


def test_gram_linear_is_xtx(rng):
    x = rng.standard_normal((3, 6))
    k = gram(KernelSpec("linear"), TrainingSet.from_columns(x))
    assert np.abs(k - x.T @ x).max() <= 1e-12


def test_gram_rbf_identical_points_all_ones():
    p = np.array([[1.0, 2.0], [1.0, 2.0]])
    k = gram(KernelSpec("rbf", 3.0), TrainingSet(p))
    npt.assert_allclose(k, np.ones((2, 2)))


def test_gram_rbf_diagonal_ones_and_psd(rng):
    ts = TrainingSet(rng.standard_normal((9, 4)))
    k = gram(KernelSpec("rbf", 1.5), ts)
    npt.assert_array_equal(np.diag(k), np.ones(9))
    w = np.linalg.eigvalsh(k)
    assert w.min() >= -1e-10


def test_block_width_comes_from_the_byte_budget():
    # about 2 MiB of float64 per N x B block, never narrower than 64 columns
    assert kernels.block_width(300) == 873
    assert kernels.block_width(10**6) == 64


def expression_block(spec, ts, xs):
    """The uncentered kernel block as one whole-array expression, the form
    the in-place routine replaced: the bit-level oracle of its order of
    operations. xs is ts.points for the Gram matrix."""
    p = ts.points
    if spec.family == "linear":
        return p @ xs.T
    mu = p.mean(axis=0)
    a = p - mu
    b = a if xs is p else xs - mu
    d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.exp(-np.maximum(d2, 0.0) / (2.0 * spec.gamma**2))


@pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", 1.3)])
def test_in_place_kernels_keep_the_expression_bits(spec):
    # N = 600 adds the squared-norm sums in two row blocks
    assert kernels.block_width(600) < 600
    for points in (two_arcs(600, seed=2).T, bump_images(600)):
        ts = TrainingSet(points)
        k = gram(spec, ts)
        oracle = expression_block(spec, ts, ts.points)
        if spec.family == "rbf":
            np.fill_diagonal(oracle, 1.0)
        npt.assert_array_equal(k, (oracle + oracle.T) / 2.0)
        npt.assert_array_equal(k, k.T)
        means = gram_means(k)
        xs = points[::7] + 0.01
        kv = expression_block(spec, ts, xs)
        npt.assert_array_equal(centered_kernel_vectors(spec, ts, means, xs.T),
                               kv - kv.mean(axis=0, keepdims=True) - means[:-1, None] + means[-1])


def test_kernel_vector_matches_pointwise_eval(rng):
    for spec in (KernelSpec("linear"), KernelSpec("rbf", 0.8)):
        ts = TrainingSet(rng.standard_normal((6, 3)))
        probes = rng.standard_normal((2, 3))
        k = np.array([[kernel_eval(spec, p, x) for p in probes] for x in ts.points])
        k_train = np.array([[kernel_eval(spec, x, y) for y in ts.points] for x in ts.points])
        npt.assert_allclose(gram(spec, ts), k_train, atol=1e-14)
        oracle = k - k.mean(axis=0) - k_train.mean(axis=0)[:, None] + k_train.mean()
        npt.assert_allclose(centered_vectors(spec, ts, probes.T), oracle, atol=1e-14)


def test_centered_vector_matches_gram_columns(rng):
    for spec in (KernelSpec("linear"), KernelSpec("rbf", 1.3)):
        ts = TrainingSet(rng.standard_normal((7, 3)))
        kc = center_gram(gram(spec, ts))
        vecs = centered_vectors(spec, ts, ts.points.T)
        assert np.abs(vecs - kc).max() <= 1e-12


def test_centered_vector_single_point_linear():
    ts = TrainingSet(np.array([[2.0, -1.0]]))
    vec = centered_vectors(KernelSpec("linear"), ts, np.array([[5.0], [5.0]]))
    npt.assert_allclose(vec, [[0.0]], atol=1e-14)


def test_centered_vector_linear_feature_oracle(rng):
    x = rng.standard_normal((4, 6))
    ts = TrainingSet.from_columns(x)
    xc, mean = center_columns(x)
    probes = rng.standard_normal((4, 5))
    vecs = centered_vectors(KernelSpec("linear"), ts, probes)
    oracle = xc.T @ (probes - mean[:, None])
    assert np.abs(vecs - oracle).max() <= 1e-10


def test_centered_vectors_batch_matches_single(rng):
    spec = KernelSpec("rbf", 0.9)
    ts = TrainingSet(rng.standard_normal((6, 2)))
    probes = rng.standard_normal((2, 4))
    batch = centered_vectors(spec, ts, probes)
    for i in range(4):
        single = centered_vectors(spec, ts, probes[:, i : i + 1])
        npt.assert_allclose(batch[:, i : i + 1], single, atol=1e-14)


def test_centered_vector_dimension_mismatch(rng):
    ts = TrainingSet(rng.standard_normal((5, 3)))
    with pytest.raises(DimensionMismatch):
        centered_vectors(KernelSpec("linear"), ts, np.zeros((2, 1)))
    with pytest.raises(DimensionMismatch):
        centered_vectors(KernelSpec("linear"), ts, np.zeros(3))  # one input is a d_in x 1 column


def test_centered_vectors_use_cached_means(rng, monkeypatch):
    # the means stand in for the N x N training Gram matrix, which a query
    # never builds
    spec = KernelSpec("rbf", 1.1)
    ts = TrainingSet(rng.standard_normal((8, 3)))
    probes = rng.standard_normal((3, 4))
    means = gram_means(gram(spec, ts))
    expected = centered_kernel_vectors(spec, ts, means, probes)

    def refuse(*args, **kwargs):
        raise AssertionError("a query built the training Gram matrix")

    monkeypatch.setattr(kernels, "gram", refuse)
    npt.assert_array_equal(centered_kernel_vectors(spec, ts, means, probes), expected)
