"""Fastfood-expanded Gaussian process regression with learned kernels.

Six kernel families over structured random features: frbf / fard (fixed
RBF and ARD spectra), fsard / fsgbard (learned Fastfood diagonals), gm
(Gaussian spectral mixtures) and pwl (piecewise-linear radial spectra).
All of them train by marginal-likelihood gradient descent.  Each group's
Fastfood stack is a seed plus O(m) diagonals; a saved model also holds the
D(D+1)/2-float Cholesky factor of its D = 2Qm feature rows (4Qm for gm).

The package exports what a caller needs to fit, save and load a model and
to score it on k folds; every other name is imported from its own module
(ffgp.features, ffgp.gp, ffgp.train, ...).
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
from .features import FAMILIES, KernelSpec
from .data import fit_standardization, kfold_partitions, rmse
from .model import TrainedModel, load_model, save_model
from .train import TrainConfig, fit

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "DegenerateSpectrumError",
    "DimensionError",
    "DomainError",
    "FfgpError",
    "IllConditionedError",
    "InsufficientDataError",
    "KernelSpec",
    "OptimizationFailureError",
    "ParseError",
    "TrainConfig",
    "TrainedModel",
    "fit",
    "fit_standardization",
    "kfold_partitions",
    "load_model",
    "rmse",
    "save_model",
]
