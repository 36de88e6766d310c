"""Walkthrough: train the kernel-space model on a 2-D toy set, inspect the
hyperparameters, and reconstruct the data through the latent bottleneck.

Run:  python3 demos/01_fit_project_reconstruct.py
Artifacts land in demos/output/.
"""

import os

import numpy as np

from kppca import (
    KernelSpec,
    TrainingSet,
    center_gram,
    dual_latent_map,
    dual_reconstruct,
    dual_training_codes,
    explained_variance,
    fit_dual,
    gram,
    kernel_smoother,
    kpca_limit,
    two_arcs,
)
from kppca.plots import scatter_svg

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

# Twenty points on two interleaved arcs, an RBF kernel with bandwidth 2.
x = two_arcs(20, seed=0)
ts = TrainingSet.from_columns(x)
spec = KernelSpec("rbf", 2.0)
kc = center_gram(gram(spec, ts))

print("N = 20 points, centered Gram matrix has rank", np.linalg.matrix_rank(kc))
print()
print("   q   sigma2      explained variance")

for q in (1, 3, 10):
    model = fit_dual(spec, ts, q=q)
    ev = explained_variance(model)
    print(f"  {q:2d}   {model.sigma2:.6f}   {ev:6.2%}")

    # Project every training point to its q-dimensional latent code, map it
    # back to kernel space, then back to the input plane with the smoother.
    # The centered kernel vectors of the training points are the columns of
    # kc; every step takes one query per column.
    h = dual_latent_map(model, kc)
    recon = kernel_smoother(ts, dual_reconstruct(model, h))
    # The model needs no Gram matrix for this: E_q^T K_c = Lambda_q E_q^T.
    print(f"       training codes from the identity: max diff {np.abs(dual_training_codes(model) - h).max():.1e}")

    # The noiseless limit of the same model is classical kernel PCA.
    limit = kpca_limit(model)
    classical = kernel_smoother(ts, dual_reconstruct(limit, dual_training_codes(limit)))

    path = os.path.join(OUT, f"reconstruction_q{q}.svg")
    scatter_svg(path, [
        ("original", "black", x),
        ("reconstruction", "blue", recon),
        ("kpca limit", "red", classical),
    ])
    print(f"       wrote {path}")

print()
print("More latent components keep more of the spectrum, so the noise")
print("variance (the mean of what is discarded) shrinks toward zero and the")
print("probabilistic reconstruction approaches the classical one.")
