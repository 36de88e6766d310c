"""Walkthrough: generation in kernel space.

The marginal distribution of centered kernel representations has covariance
E diag(c^2) E^T over the whole spectrum: c_p = lambda_p / sqrt(N) on the q
retained components and sigma sqrt(lambda_p) on the discarded ones. The
model keeps only the q leading eigenpairs, so a sample is drawn as

    k = E_q diag(lambda_q / sqrt(N)) z + sigma P J L v

with z and v standard normal, P = I - E_q E_q^T, J the centering matrix and
K = L L^T a Cholesky factor of the Gram matrix. The second term (scaled by
sigma) is what covers the discarded directions: even with few latent
components, samples fill the whole kernel space instead of a q-dimensional
slice.

Run:  python3 demos/03_generation.py
Artifacts land in demos/output/.
"""

import os

import numpy as np

from kppca import (
    KernelSpec,
    TrainingSet,
    center_gram,
    dual_sample,
    fit_dual,
    gram,
    kernel_smoother,
    kpca_limit,
    samples_from_noise,
    tail_factor,
    top_eig,
    two_arcs,
)
from kppca.plots import scatter_svg

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

x = two_arcs(20, seed=0)
ts = TrainingSet.from_columns(x)
spec = KernelSpec("rbf", 2.0)
model = fit_dual(spec, ts, q=3)


def noise_map(m):
    # the sampler's noise-to-sample matrix [E_q diag(lambda_q / sqrt(N)), tail]
    tail = tail_factor(m)
    return samples_from_noise(m, np.eye(m.q + tail.shape[1]), tail)


b = noise_map(model)
print("sampler rank:", np.linalg.matrix_rank(b), "of", model.n,
      f"(sigma2 = {model.sigma2:.2e} keeps the discarded directions alive;",
      "the constant direction is centered away)")
print("noiseless sampler rank:", np.linalg.matrix_rank(noise_map(kpca_limit(model))),
      "(the classical limit collapses onto the retained components)")

# The covariance of the map is the marginal of the full spectrum, which the
# model never computed: check it against a full eigendecomposition.
k = gram(spec, ts)
eig = top_eig(center_gram(k), model.n, k.diagonal().max())  # fit_dual's rank floor
lam, e = eig.eigenvalues, eig.eigenvectors
c2 = np.concatenate([lam[:3] ** 2 / model.n, model.sigma2 * lam[3:]])
target = (e * c2) @ e.T
print(f"sampler covariance against the full spectrum: {np.abs(b @ b.T - target).max():.1e} max difference")

# Draw kernel representations (one per column) and push them back to the
# input plane.
samples = dual_sample(model, 2024, 400)
points = kernel_smoother(ts, samples)

path = os.path.join(OUT, "generated.svg")
scatter_svg(path, [
    ("original", "black", x),
    ("generated", "grey", points),
])
print(f"wrote {path}")

# Sanity: the empirical covariance of many draws converges to the marginal.
mat = dual_sample(model, 7, 100_000)
emp = mat @ mat.T / mat.shape[1]
rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
print(f"empirical covariance of 100k draws: {rel:.2%} relative error")
