"""Walkthrough: the kernel model on MNIST digits 0 and 1.

Needs the IDX files (train-images-idx3-ubyte and train-labels-idx1-ubyte,
optionally gzipped) under data/mnist/ or a directory named by the
KPPCA_MNIST_DIR environment variable; the script explains and exits when
they are absent.

Run:  python3 demos/04_mnist_digits.py
Artifacts land in demos/output/.
"""

import os
import sys

import numpy as np

from kppca import (
    KernelSpec,
    TrainingSet,
    dual_reconstruct,
    dual_training_codes,
    explained_variance,
    fit_dual,
    kernel_smoother,
    load_mnist_idx,
    samples_from_noise,
)
from kppca.plots import pgm_grid

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)


def find_mnist():
    roots = [os.environ.get("KPPCA_MNIST_DIR"),
             os.path.join(os.path.dirname(__file__), "..", "data", "mnist")]
    for root in filter(None, roots):
        for suffix in ("", ".gz"):
            img = os.path.join(root, "train-images-idx3-ubyte" + suffix)
            lab = os.path.join(root, "train-labels-idx1-ubyte" + suffix)
            if os.path.exists(img) and os.path.exists(lab):
                return img, lab
    return None


found = find_mnist()
if found is None:
    print("MNIST IDX files not found; place train-images-idx3-ubyte and")
    print("train-labels-idx1-ubyte under data/mnist/ or set KPPCA_MNIST_DIR.")
    sys.exit(0)

x, labels = load_mnist_idx(found[0], found[1], label_filter={0, 1}, limit=500)
print(f"loaded {x.shape[1]} digits of dimension {x.shape[0]}")

spec = KernelSpec("rbf", 4.0)
ts = TrainingSet.from_columns(x)
model = fit_dual(spec, ts, q=2)
print(f"q=2: sigma2 = {model.sigma2:.6f}, explained variance = {explained_variance(model):.2%}")

# Originals and their reconstructions through the 2-dimensional bottleneck.
show = 16
h = dual_training_codes(model)[:, :show]
recon = kernel_smoother(ts, dual_reconstruct(model, h))
pgm_grid(os.path.join(OUT, "mnist_original.pgm"), x[:, :show].T.reshape(-1, 28, 28), 8)
pgm_grid(os.path.join(OUT, "mnist_reconstructed.pgm"), recon.T.reshape(-1, 28, 28), 8)

# Sweep the latent noise of the two retained components on a grid and
# preimage each sample. Column r * side + c of the noise holds
# (lin[c], lin[r]).
side = 8
lin = np.linspace(-1.0, 1.0, side)
u = np.stack([np.tile(lin, side), np.repeat(lin, side)])
gen = kernel_smoother(ts, samples_from_noise(model, u))
pgm_grid(os.path.join(OUT, "mnist_generated.pgm"), gen.T.reshape(-1, 28, 28), side)

print("wrote mnist_original.pgm, mnist_reconstructed.pgm, mnist_generated.pgm in demos/output/")
