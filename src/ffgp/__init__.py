"""Fastfood-expanded Gaussian process regression with learned kernels.

Six kernel families over structured random features: frbf / fard (fixed
RBF and ARD spectra), fsard / fsgbard (learned Fastfood diagonals), gm
(Gaussian spectral mixtures) and pwl (piecewise-linear radial spectra).
All of them train by marginal-likelihood gradient descent.  Each group's
Fastfood stack is a seed plus O(m) diagonals; a saved model also holds the
D(D+1)/2-float Cholesky factor of its D = 2Qm feature rows (4Qm for gm).
"""

from .errors import (
    DegenerateSpectrumError,
    DimensionError,
    DomainError,
    FfgpError,
    IllConditionedError,
    InsufficientDataError,
    OptimizationFailureError,
    ParseError,
)
from .hadamard import PadGeometry, fwht_inplace, next_pow2, pad_geometry
from .fastfood import FastfoodStack, build_stack, project, sample_chi_radii
from .spectra import (
    GmComponent,
    HatSpectrum,
    PwlSpectrum,
    gm_closed_form,
    pwl_density,
    pwl_inverse_cdf,
    systematic_radii,
)
from .features import (
    FAMILIES,
    KernelSpec,
    build_stacks,
    compute_features,
    feature_weight_matrix,
    hyper_count,
    pack_hyper,
    unpack_hyper,
)
from .gp import (
    PosteriorState,
    fit_posterior,
    neg_log_marginal_likelihood,
    nlml_value_and_grad,
    predict,
)
from .data import (
    Dataset,
    Standardization,
    fit_standardization,
    kfold_partitions,
    load_csv,
    rmse,
)
from .model import TrainedModel, load_model, save_model
from .train import (TrainConfig, fit, init_ard, init_family, init_lengthscale_quantiles,
                    restart_starts)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "Dataset",
    "DegenerateSpectrumError",
    "DimensionError",
    "DomainError",
    "FastfoodStack",
    "FfgpError",
    "GmComponent",
    "HatSpectrum",
    "IllConditionedError",
    "InsufficientDataError",
    "KernelSpec",
    "OptimizationFailureError",
    "PadGeometry",
    "ParseError",
    "PosteriorState",
    "PwlSpectrum",
    "Standardization",
    "TrainConfig",
    "TrainedModel",
    "build_stack",
    "build_stacks",
    "compute_features",
    "feature_weight_matrix",
    "fit",
    "fit_posterior",
    "fit_standardization",
    "fwht_inplace",
    "gm_closed_form",
    "hyper_count",
    "init_ard",
    "init_family",
    "init_lengthscale_quantiles",
    "kfold_partitions",
    "load_csv",
    "load_model",
    "neg_log_marginal_likelihood",
    "next_pow2",
    "nlml_value_and_grad",
    "pack_hyper",
    "pad_geometry",
    "predict",
    "project",
    "pwl_density",
    "pwl_inverse_cdf",
    "restart_starts",
    "rmse",
    "sample_chi_radii",
    "save_model",
    "systematic_radii",
    "unpack_hyper",
]
