"""Postprocessing models behind one fit/predict interface.

``_KINDS`` maps each model kind, in ``MODEL_KINDS`` order, to its fitter,
its predictor and the training days it needs.  ``fit`` checks the training
series and writes the training record for every kind; ``predict`` checks
the fit against the series, hands its predictor the rows of the requested
dates and returns only finite mu and finite, positive sigma.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from ..data import StationSeries
from ..errors import InsufficientHistory, InvalidInput, NumericalFailure
from . import ar_emos, emos, semos
from .base import MODEL_KINDS, SEASONAL_KINDS, FittedModel
from .semos import empirical_sd_by_day_of_year, training_residuals

__all__ = ["MODEL_KINDS", "SEASONAL_KINDS", "FittedModel", "fit", "predict",
           "empirical_sd_by_day_of_year", "training_residuals"]


class _Kind(NamedTuple):
    fit: Callable[..., FittedModel]
    predict: Callable[..., tuple[np.ndarray, np.ndarray]]
    min_training_days: int


_KINDS = {
    "EMOS": _Kind(emos.emos_fit, emos.emos_predict, emos.WINDOW_DAYS + 1),
    "AR-EMOS": _Kind(ar_emos.ar_emos_fit, ar_emos.ar_emos_predict,
                     ar_emos.AR_WINDOW + ar_emos.WEIGHT_WINDOW),
    **{kind: _Kind(functools.partial(semos.seasonal_fit, kind), semos.seasonal_predict,
                   semos.MIN_TRAINING_DAYS) for kind in SEASONAL_KINDS},
}


def fit(kind: str, series: StationSeries, **kwargs) -> FittedModel:
    """Fit one model kind on a complete training series of at least the
    kind's training days; ``meta`` starts with the training record."""
    entry = _KINDS.get(kind)
    if entry is None:
        raise InvalidInput(f"unknown model kind {kind!r}; known: {sorted(_KINDS)}")
    if not series.is_complete():
        raise InvalidInput("training series has missing observations; impute first")
    if series.n_days < entry.min_training_days:
        raise InsufficientHistory(f"{kind} needs >= {entry.min_training_days} training days, "
                                  f"got {series.n_days}")
    model = entry.fit(series, **kwargs)
    model.meta = {"origin": str(series.dates[0]), "lead_time_h": series.lead_time_h,
                  "station_id": series.station_id, "train_start": str(series.dates[0]),
                  "train_end": str(series.dates[-1]), "n_train": series.n_days, **model.meta}
    return model


def predict(model: FittedModel, series: StationSeries, dates) -> tuple[np.ndarray, np.ndarray]:
    """Per-date Gaussian parameters (mu, sigma) for the requested dates.

    ``series`` must contain the prediction dates and enough history before
    them; observations past each date's ``history_end`` are never read.  A
    date missing from the series, or a fit of another lead time or whose
    ``FittedModel.origin`` is not a YYYY-MM-DD date, raises InvalidInput; no
    dates give two empty arrays.  A non-finite mu, or a sigma that is not
    finite and positive, raises NumericalFailure naming the earliest such date.
    """
    model.origin  # every fit names its first training day
    lead = model.meta.get("lead_time_h", series.lead_time_h)
    if int(lead) != series.lead_time_h:
        raise InvalidInput(
            f"model fitted for lead {lead}h applied to a {series.lead_time_h}h series")
    rows = series.rows(dates)
    if rows.size == 0:
        return np.empty(0), np.empty(0)
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sigma = _KINDS[model.kind].predict(model, series, rows)
    bad = ~(np.isfinite(mu) & np.isfinite(sigma) & (sigma > 0))
    if np.any(bad):
        i = np.flatnonzero(bad)[np.argmin(rows[bad])]
        raise NumericalFailure(f"{model.kind} on ({series.station_id}, {series.lead_time_h}h) "
                               f"gives mu {mu[i]}, sigma {sigma[i]} on {series.dates[rows[i]]}")
    return mu, sigma
