"""Probabilistic principal component analysis, primal and dual.

The dual model trains on the centered kernel matrix, projects and
reconstructs in kernel space, generates new kernel representations, and
maps them back to inputs with a kernel smoother; it is the model that the
CLI and the model file know. The primal side trains on the explicit feature
covariance and is the reference that a linear-kernel dual model matches.
Query functions, the posteriors, conditionals and marginal densities
included, take one query per column and return one result per column; a
single query is the batch with one column, and a 1-D argument is refused.

Names resolve on first use: `import kppca` loads no numerical module, and
`kppca.fit_dual` imports `kppca.dual` when it is first read.
"""

import importlib

from ._version import __version__

# each public name, by the module that defines it
_HOMES = {
    "dual": ("DualModel", "dual_conditional_kernel", "dual_latent_map", "dual_latent_posterior",
             "dual_marginal_loglik", "dual_reconstruct", "dual_sample", "dual_training_codes",
             "fit_dual", "kpca_limit", "samples_from_noise"),
    "io_datasets": ("load_csv", "load_mnist_idx", "load_model", "save_csv", "save_model"),
    "kernels": ("KernelSpec", "TrainingSet", "centered_kernel_vectors", "gram"),
    "preimage": ("kernel_smoother",),
    "primal": ("GaussianSpec", "PrimalModel", "explained_variance", "feature_reconstruct",
               "fit_primal", "latent_map", "latent_posterior", "marginal_loglik"),
    "spectral": ("center_columns", "center_gram", "gram_means", "sym_eig", "top_eig"),
    "toy": ("two_arcs",),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME_OF)


def __getattr__(name):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
