"""Postprocessing models behind a uniform fit/predict interface."""

from .base import (
    MODEL_KINDS,
    SEASONAL_KINDS,
    FittedModel,
    PredictionContext,
    fit,
    predict,
)
from .emos import emos_fit, emos_predict
from .ar_emos import ar_emos_fit, ar_emos_predict
from .semos import (
    dar_garch_semos_fit,
    dar_semos_fit,
    empirical_sd_by_day_of_year,
    sar_semos_fit,
    semos_fit,
    training_residuals,
)

__all__ = [
    "MODEL_KINDS",
    "SEASONAL_KINDS",
    "FittedModel",
    "PredictionContext",
    "fit",
    "predict",
    "emos_fit",
    "emos_predict",
    "ar_emos_fit",
    "ar_emos_predict",
    "semos_fit",
    "dar_semos_fit",
    "dar_garch_semos_fit",
    "sar_semos_fit",
    "empirical_sd_by_day_of_year",
    "training_residuals",
]
