"""Walkthrough: with an explicit (linear) feature map, training on the
covariance and training on the centered Gram matrix are the same model.

Run:  python3 demos/02_primal_dual_equivalence.py
"""

import numpy as np

from kppca import (
    KernelSpec,
    TrainingSet,
    center_columns,
    centered_kernel_vectors,
    dual_latent_map,
    fit_dual,
    fit_primal,
    latent_map,
    sym_eig,
)

rng = np.random.default_rng(0)
d, n, q = 4, 10, 3
x = rng.standard_normal((d, n))

# Primal route: eigendecompose the d x d centered covariance.
primal = fit_primal(x, q=q)

# Dual route: the leading eigenpairs of the N x N centered Gram matrix instead.
spec = KernelSpec("linear")
ts = TrainingSet.from_columns(x)
dual = fit_dual(spec, ts, q=q)

print(f"noise variance: primal {primal.sigma2:.8f}, dual {dual.sigma2:.8f}")

# Both decompositions share their nonzero spectrum; the dual model keeps
# its q leading eigenvalues.
xc, _ = center_columns(x)
cov_lam = sym_eig(xc @ xc.T).eigenvalues[:q]
gram_lam = dual.eigenvalues
print("spectrum difference:", np.abs(cov_lam - gram_lam).max())

# The primal loadings are the dual loadings pushed through the data:
# W = X_c A, up to the per-column sign ambiguity of eigenvectors.
w_from_dual = xc @ dual.a
signs = np.sign(np.sum(w_from_dual * primal.w, axis=0))
print("loading identity |W - X_c A|:", np.abs(primal.w - w_from_dual * signs).max())

# And both sides project any point (seen or new) to the same latent code.
# Points are columns on both sides, and so are their centered kernel vectors.
probes = rng.standard_normal((d, 25))
h_primal = latent_map(primal, probes)
h_dual = signs[:, None] * dual_latent_map(dual, centered_kernel_vectors(spec, ts, dual.means, probes))
print("largest latent-code difference over 25 new points:", np.abs(h_primal - h_dual).max())
