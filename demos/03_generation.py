"""Walkthrough: generation in kernel space.

The marginal distribution of centered kernel representations has covariance
B B^T for an explicit symmetric factor B built from the full spectrum, so
sampling is just B times standard normal noise. The second spectral block of
B (scaled by sigma) is what keeps the map invertible: even with few latent
components, samples cover the whole kernel space instead of a q-dimensional
slice.

Run:  python3 demos/03_generation.py
Artifacts land in demos/output/.
"""

import os

import numpy as np

from kppca import (
    KernelSpec,
    PreimageConfig,
    TrainingSet,
    build_sampler,
    center_gram,
    dual_sample,
    fit_dual,
    gram,
    kernel_smoother,
    kpca_limit,
    two_arcs,
)
from kppca.plots import scatter_svg

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

x = two_arcs(20, seed=0)
ts = TrainingSet.from_columns(x)
spec = KernelSpec("rbf", 2.0)
kc = center_gram(gram(spec, ts))
model = fit_dual(kc, spec, ts, q=3)

b = build_sampler(model)
print("sampler is symmetric:", np.abs(b - b.T).max() < 1e-12)
print("sampler rank:", np.linalg.matrix_rank(b), "of", model.n,
      f"(sigma2 = {model.sigma2:.2e} keeps the discarded directions alive)")

limit_b = build_sampler(kpca_limit(model))
print("noiseless sampler rank:", np.linalg.matrix_rank(limit_b),
      "(the classical limit collapses onto the retained components)")

# Draw kernel representations (one per column) and push them back to the
# input plane.
samples = dual_sample(model, 2024, 400)
cfg = PreimageConfig(epsilon=1e-3 * ts.n, clip_negative=True)
points = kernel_smoother(ts, samples, cfg)

path = os.path.join(OUT, "generated.svg")
scatter_svg(path, [
    ("original", "black", x),
    ("generated", "grey", points),
])
print(f"wrote {path}")

# Sanity: the empirical covariance of many draws converges to B B^T.
mat = dual_sample(model, 7, 100_000)
emp = mat @ mat.T / mat.shape[1]
rel = np.linalg.norm(emp - b @ b.T) / np.linalg.norm(b @ b.T)
print(f"empirical covariance of 100k draws: {rel:.2%} relative error")
