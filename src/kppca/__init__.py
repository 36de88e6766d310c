"""Probabilistic principal component analysis, primal and dual.

The dual model trains on the centered kernel matrix, projects and
reconstructs in kernel space, generates new kernel representations, and
maps them back to inputs with a kernel smoother; it is the model that the
CLI and the model file know. The primal side trains on the explicit feature
covariance and is the reference that a linear-kernel dual model matches.
Query functions, the posteriors, conditionals and marginal densities
included, take one query per column and return one result per column; a
single query is the batch with one column, and a 1-D argument is refused.
"""

from ._version import __version__
from .dual import (
    DualModel,
    dual_conditional_kernel,
    dual_latent_map,
    dual_latent_posterior,
    dual_marginal_loglik,
    dual_reconstruct,
    dual_sample,
    dual_training_codes,
    fit_dual,
    kpca_limit,
    samples_from_noise,
    tail_factor,
)
from .io_datasets import (
    load_csv,
    load_mnist_idx,
    load_model,
    save_csv,
    save_model,
)
from .kernels import (
    KernelSpec,
    TrainingSet,
    centered_kernel_vectors,
    gram,
)
from .preimage import kernel_smoother
from .primal import (
    GaussianSpec,
    PrimalModel,
    explained_variance,
    feature_reconstruct,
    fit_primal,
    latent_map,
    latent_posterior,
    marginal_loglik,
)
from .spectral import (
    EigenDecomposition,
    center_columns,
    center_gram,
    gram_means,
    sym_eig,
    top_eig,
)
from .toy import two_arcs

__all__ = [
    "DualModel",
    "EigenDecomposition",
    "GaussianSpec",
    "KernelSpec",
    "PrimalModel",
    "TrainingSet",
    "center_columns",
    "center_gram",
    "centered_kernel_vectors",
    "dual_conditional_kernel",
    "dual_latent_map",
    "dual_latent_posterior",
    "dual_marginal_loglik",
    "dual_reconstruct",
    "dual_sample",
    "dual_training_codes",
    "explained_variance",
    "feature_reconstruct",
    "fit_dual",
    "fit_primal",
    "gram",
    "gram_means",
    "kernel_smoother",
    "kpca_limit",
    "latent_map",
    "latent_posterior",
    "load_csv",
    "load_mnist_idx",
    "load_model",
    "marginal_loglik",
    "samples_from_noise",
    "save_csv",
    "save_model",
    "sym_eig",
    "tail_factor",
    "top_eig",
    "two_arcs",
]
