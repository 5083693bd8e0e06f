"""Joint density forecasting from monotone-network marginal CDFs.

Marginal CDFs are positive-weighted monotone networks normalized onto
per-dimension bounds; a learned pairwise-correlation combiner joins them
into a joint CDF that is valid for every parameter value and has a
closed-form nonnegative density. A conditioning network can emit all the
parameters from a feature vector, and everything is trained by maximum
likelihood through an in-package reverse-mode tape.
"""

from .copula import (
    CorrelationParams,
    JdanModel,
    copula_cdf,
    copula_density,
    joint_cdf,
    joint_pdf,
    marginal_cdf_values,
    mixed_partial_fd,
    n_pairs,
    pair_indices,
    sample,
)
from .data import ColumnScaler, Dataset, LoadSpec, fit_bounds, load_csv
from .errors import JdanError
from .hypernet import (
    ArchitectureDescriptor,
    ConditioningNet,
    Forecaster,
    initialize_net,
    materialize,
    nfn_forward,
)
from .marginal import Bounds, MarginalNetParams, inverse_cdf, normalized_cdf, normalized_pdf
from .metrics import MetricsReport, evaluate_forecaster
from .miso import MisoNetParams, find_negative_witness, miso_mixed_partial
from .model_io import load_model, save_model
from . import parallel  # noqa: F401  unused here; perfbench's tracer looks it up by name
from .training import TrainConfig, TrainReport, grad_check, nll_grad, nll_loss, train

__version__ = "0.1.0"

__all__ = [
    "ArchitectureDescriptor",
    "Bounds",
    "ColumnScaler",
    "ConditioningNet",
    "CorrelationParams",
    "Dataset",
    "Forecaster",
    "JdanError",
    "JdanModel",
    "LoadSpec",
    "MarginalNetParams",
    "MetricsReport",
    "MisoNetParams",
    "TrainConfig",
    "TrainReport",
    "copula_cdf",
    "copula_density",
    "evaluate_forecaster",
    "find_negative_witness",
    "fit_bounds",
    "grad_check",
    "initialize_net",
    "inverse_cdf",
    "joint_cdf",
    "joint_pdf",
    "load_csv",
    "load_model",
    "marginal_cdf_values",
    "materialize",
    "miso_mixed_partial",
    "mixed_partial_fd",
    "n_pairs",
    "nfn_forward",
    "nll_grad",
    "nll_loss",
    "normalized_cdf",
    "normalized_pdf",
    "pair_indices",
    "sample",
    "save_model",
    "train",
]
