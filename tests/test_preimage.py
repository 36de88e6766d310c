import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kppca import (
    TrainingSet,
    kernel_smoother,
    two_arcs,
)
from kppca.errors import DegenerateNormalizer, DimensionMismatch


@pytest.fixture
def arcs():
    return TrainingSet.from_columns(two_arcs(12, seed=3))


def test_one_hot_recovers_training_point(arcs):
    npt.assert_array_equal(kernel_smoother(arcs, np.eye(12), epsilon=0), arcs.points.T)


def test_uniform_weights_give_mean(arcs):
    out = kernel_smoother(arcs, np.ones((12, 1)), epsilon=0)
    npt.assert_allclose(out[:, 0], arcs.points.mean(axis=0), atol=1e-14)


def test_centered_weights_degenerate_without_stabilizer(arcs, rng):
    # a column with no positive weight clips to a zero weight sum; at
    # epsilon = 0 one such column among good ones is enough to reject the
    # batch, and the default epsilon maps it to the origin
    batch = np.concatenate([np.ones((12, 2)), -rng.uniform(0.0, 1.0, (12, 1))], axis=1)
    with pytest.raises(DegenerateNormalizer, match="column 2"):
        kernel_smoother(arcs, batch, epsilon=0)
    out = kernel_smoother(arcs, batch)
    assert np.all(np.isfinite(out))
    npt.assert_array_equal(out[:, 2], 0.0)


def test_degenerate_normalizer_is_relative_to_the_column(arcs):
    # at epsilon = 0 the weight sum is compared with the rank floor of the
    # column's own largest |weight|: tiny uniform weights are still the
    # mean, while a sum at rounding level of the column's scale is refused
    for tiny in (1e-14, 1e-300):
        out = kernel_smoother(arcs, np.full((12, 1), tiny), epsilon=0)
        npt.assert_allclose(out[:, 0], arcs.points.mean(axis=0), atol=1e-14)
    col = -np.ones((12, 1))
    col[4] = 1e-17
    with pytest.raises(DegenerateNormalizer, match="column 0"):
        kernel_smoother(arcs, col, epsilon=0)


def test_output_in_bounding_box_for_nonnegative_weights(arcs, rng):
    k = rng.uniform(0.0, 1.0, (12, 10))
    out = kernel_smoother(arcs, k, epsilon=0)
    lo = arcs.points.min(axis=0)[:, None]
    hi = arcs.points.max(axis=0)[:, None]
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_batch_matches_column_by_column(arcs, rng):
    # the clipped weighted average of one column at a time, written out as
    # a loop, at a given epsilon and at the default 1e-3 N
    k = rng.standard_normal((12, 7))
    for epsilon, added in ((0.5, 0.5), (None, 12e-3)):
        out = kernel_smoother(arcs, k, epsilon)
        for j in range(7):
            w = np.maximum(k[:, j], 0.0)
            expected = sum(w[i] * arcs.points[i] for i in range(12)) / (w.sum() + added)
            npt.assert_allclose(out[:, j], expected, rtol=1e-12, atol=1e-12)


@given(st.floats(1e-3, 1e3))
@settings(max_examples=40, deadline=None)
def test_scale_invariance(c):
    ts = TrainingSet.from_columns(two_arcs(8, seed=4))
    k = np.linspace(0.1, 1.0, 8)[:, None]
    base = kernel_smoother(ts, k, epsilon=0)
    scaled = kernel_smoother(ts, c * k, epsilon=0)
    npt.assert_allclose(scaled, base, rtol=1e-9, atol=1e-12)


def test_clip_negative_stabilizes(arcs, rng):
    # signed weights are clipped, so even at epsilon = 0 every preimage is
    # a convex combination of the training points
    k = rng.standard_normal((12, 10))
    k[rng.integers(0, 12, 10), np.arange(10)] = 0.5  # one clearly positive weight per column
    out = kernel_smoother(arcs, k, epsilon=0)
    assert np.all(np.isfinite(out))
    lo = arcs.points.min(axis=0)[:, None]
    hi = arcs.points.max(axis=0)[:, None]
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_dimension_mismatch(arcs):
    with pytest.raises(DimensionMismatch):
        kernel_smoother(arcs, np.ones((5, 1)))
    with pytest.raises(DimensionMismatch):
        kernel_smoother(arcs, np.ones(12))  # one weight vector is a 12 x 1 column


def test_config_validation(arcs):
    for eps in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            kernel_smoother(arcs, np.ones((12, 1)), epsilon=eps)
