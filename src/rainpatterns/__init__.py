"""Canonical spatio-temporal rainfall pattern discovery on gridded daily data.

A coupled latent-state and clustering model assigns every day one canonical
spatial pattern and every location one canonical time series, inferred by
Gibbs sampling with nonparametric clustering priors; reference methods
(k-means, spectral clustering, EOF + LASSO) and an evaluation suite ship
alongside.
"""

from .data import (RainfallDataset, SpatialWeights, SyntheticSpec,
                   compute_spatial_weights, discretize_by_mean,
                   generate_synthetic, load_dataset, save_dataset)
from .errors import NumericError, ParseError, ValidationError
from .inference import (PosteriorSummary, SamplerConfig, refit_frozen,
                        run_gibbs, update_params_ml)
from .model import (HIGH, LOW, LatentState, ModelParams, PatternSet,
                    extract_patterns, joint_log_density)

__version__ = "0.1.0"

__all__ = [
    "HIGH", "LOW", "LatentState", "ModelParams", "NumericError", "ParseError",
    "PatternSet", "PosteriorSummary", "RainfallDataset", "SamplerConfig",
    "SpatialWeights", "SyntheticSpec", "ValidationError",
    "compute_spatial_weights", "discretize_by_mean", "extract_patterns",
    "generate_synthetic", "joint_log_density", "load_dataset", "refit_frozen",
    "run_gibbs", "save_dataset", "update_params_ml",
]
