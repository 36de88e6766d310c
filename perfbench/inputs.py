"""Workload definitions and the seeded input generators the benchmark owns.

The generators live here, not in the library, so that no change to the
program can change what a workload feeds it. Every input is a function of
(workload, seed, size) alone.
"""

import hashlib
from dataclasses import dataclass, replace

import numpy as np

IMAGE_SIDE = 28
ARC_NOISE = 0.05  # standard deviation of the Gaussian jitter on two-arcs points


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # "arcs" (2-D two-arcs) or "bumps" (28x28 bump images)
    n: int  # training points
    m: int  # held-out query points
    count: int  # generate --count
    gamma: float  # RBF bandwidth
    q: int  # latent dimension

    @property
    def epsilon(self) -> float:
        """Preimage normalizer stabilizer passed to reconstruct and generate."""
        return 1e-3 * self.n


WORKLOADS = {
    w.name: w
    for w in (
        Workload("arcs2d-n500-m5k", "arcs", 500, 5000, 500, 0.5, 5),
        Workload("img784-n1000", "bumps", 1000, 1000, 64, 4.0, 10),
    )
}

# Sizes for the smoke test: every code path of the full workloads, in seconds.
TINY = {"n": 50, "m": 40, "count": 9}


def sized(w: Workload, size: str) -> Workload:
    if size == "full":
        return w
    return replace(w, **TINY)


def _rng(seed: int, stream: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _stratified(rng: np.random.Generator, k: int) -> np.ndarray:
    """k values in [0, 1), one uniform draw in each of k equal strata, so
    that the inputs of different seeds cover the same shape."""
    return (np.arange(k) + rng.random(k)) / k


def two_arcs(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points on two interleaved half-circle arcs, as an (n, 2) array."""
    t_upper = np.pi * _stratified(rng, n - n // 2)
    t_lower = np.pi * _stratified(rng, n // 2)
    upper = np.stack([np.cos(t_upper), np.sin(t_upper)], axis=1)
    lower = np.stack([1.0 - np.cos(t_lower), 0.5 - np.sin(t_lower)], axis=1)
    return np.concatenate([upper, lower]) + ARC_NOISE * rng.standard_normal((n, 2))


def bump_images(rng: np.random.Generator, n: int) -> np.ndarray:
    """n 28x28 images, image i a sum of 1 + i % 3 Gaussian bumps scaled into
    [0, 1], flattened row-major into an (n, 784) array."""
    grid = np.arange(IMAGE_SIDE, dtype=float)
    out = np.empty((n, IMAGE_SIDE * IMAGE_SIDE))
    for i in range(n):
        img = np.zeros((IMAGE_SIDE, IMAGE_SIDE))
        for _ in range(1 + i % 3):
            cy, cx = rng.uniform(5.0, 23.0, 2)
            width = rng.uniform(1.5, 4.0)
            amp = rng.uniform(0.5, 1.0)
            img += amp * np.outer(np.exp(-0.5 * ((grid - cy) / width) ** 2),
                                  np.exp(-0.5 * ((grid - cx) / width) ** 2))
        out[i] = (img / max(1.0, img.max())).ravel()
    return out


def make_inputs(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(training points, held-out queries), one sample per row."""
    gen = two_arcs if w.data == "arcs" else bump_images
    return gen(_rng(seed, w.name + "/train"), w.n), gen(_rng(seed, w.name + "/query"), w.m)


def write_csv(path, rows: np.ndarray) -> str:
    """Write one sample per row with a header and round-trip precision;
    returns the file's sha256."""
    header = ",".join(f"x{j + 1}" for j in range(rows.shape[1]))
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
