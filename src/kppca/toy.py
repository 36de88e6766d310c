"""Synthetic 2-D benchmark data for the demos and the test suite."""

import numpy as np

_NOISE = 0.05  # standard deviation of the Gaussian jitter on every point


def two_arcs(n: int = 20, seed=0) -> np.ndarray:
    """Two interleaved half-circle arcs with Gaussian jitter, as a 2 x n matrix.

    A synthetic stand-in generated locally; it does not reproduce any
    published dataset.
    """
    if n < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    n_upper = n - n // 2
    t_upper = np.linspace(0.0, np.pi, n_upper)
    t_lower = np.linspace(0.0, np.pi, max(n // 2, 1))
    upper = np.stack([np.cos(t_upper), np.sin(t_upper)])
    lower = np.stack([1.0 - np.cos(t_lower), 0.5 - np.sin(t_lower)])
    pts = np.concatenate([upper, lower[:, : n // 2]], axis=1)
    return pts + _NOISE * rng.standard_normal(pts.shape)
