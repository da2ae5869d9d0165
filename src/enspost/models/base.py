"""Shared model interface: fitted-model container, serialization, dispatch.

Every model fits on a training StationSeries and then produces per-date
Gaussian parameters (mu, sigma) for requested dates of a longer series.
Prediction honors the lead-time availability rule: for a lead-time offset
of k unobservable days, the forecast for date t may use observations up to
t - k - 1 only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..data import StationSeries, lead_time_offset, time_index
from ..errors import InvalidInput
from ..seasonal import N_COEFFS
from ..timeseries import ARCoeffs, GARCHCoeffs

MODEL_KINDS = ("EMOS", "AR-EMOS", "SEMOS", "DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS")

#: SEMOS-family kinds share the static seasonal machinery
SEASONAL_KINDS = ("SEMOS", "DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS")


@dataclass
class FittedModel:
    """One fitted postprocessing model plus training metadata.

    ``loc``/``scale`` hold the 10-coefficient seasonal layout for the
    SEMOS family and the plain (intercept, slope) pair for EMOS; rolling
    models store the coefficients estimated at the training-period end
    (they re-estimate inside predict).  ``train_residuals`` are the
    standardized one-step training innovations (y - mu_hat) / sigma_hat of
    static fits, kept out of the JSON document.
    """

    kind: str
    loc: np.ndarray | None = None
    scale: np.ndarray | None = None
    ar: ARCoeffs | None = None
    garch: GARCHCoeffs | None = None
    members_ar: list[ARCoeffs] | None = None
    weight: float | None = None
    meta: dict = field(default_factory=dict)
    train_residuals: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidInput(f"unknown model kind {self.kind!r}")
        if self.weight is not None and not (0.0 <= self.weight <= 1.0):
            raise InvalidInput(f"AR-EMOS weight must lie in [0, 1], got {self.weight}")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        def ar_block(ar: ARCoeffs | None):
            if ar is None:
                return None
            return {"p": ar.p, "eta": ar.eta, "tau": list(ar.tau)}

        doc = {
            "kind": self.kind,
            "loc": None if self.loc is None else [float(v) for v in self.loc],
            "scale": None if self.scale is None else [float(v) for v in self.scale],
            "ar": ar_block(self.ar),
            "garch": None if self.garch is None else {
                "omega0": self.garch.omega0,
                "omega1": self.garch.omega1,
                "omega2": self.garch.omega2,
            },
            "weight": self.weight,
            "meta": dict(self.meta),
        }
        if self.members_ar is not None:
            doc["members_ar"] = [ar_block(ar) for ar in self.members_ar]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FittedModel":
        def parse_ar(block):
            if block is None:
                return None
            return ARCoeffs(p=int(block["p"]), eta=float(block["eta"]),
                            tau=tuple(float(v) for v in block["tau"]))

        garch = doc.get("garch")
        return cls(
            kind=doc["kind"],
            loc=None if doc.get("loc") is None else np.asarray(doc["loc"], dtype=float),
            scale=None if doc.get("scale") is None else np.asarray(doc["scale"], dtype=float),
            ar=parse_ar(doc.get("ar")),
            garch=None if garch is None else GARCHCoeffs(
                omega0=float(garch["omega0"]), omega1=float(garch["omega1"]),
                omega2=float(garch["omega2"])),
            members_ar=(None if doc.get("members_ar") is None
                        else [parse_ar(b) for b in doc["members_ar"]]),
            weight=None if doc.get("weight") is None else float(doc["weight"]),
            meta=dict(doc.get("meta", {})),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FittedModel":
        """Read a fit file; a truncated or malformed one raises InvalidInput
        naming the file."""
        try:
            with open(path) as fh:
                model = cls.from_dict(json.load(fh))
            if "origin" not in model.meta:
                raise ValueError("meta lacks the origin date")
            if model.kind in SEASONAL_KINDS and not (
                    np.shape(model.loc) == np.shape(model.scale) == (N_COEFFS,)):
                raise ValueError(f"seasonal loc and scale need {N_COEFFS} coefficients each")
        except (InvalidInput, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise InvalidInput(f"malformed fitted model {path}: "
                               f"{type(exc).__name__}: {exc}") from exc
        return model


@dataclass(frozen=True)
class PredictionContext:
    """Per-date inputs plus the observation-availability rule for one series.

    For prediction index i, observations with index > i - k - 1 are not yet
    observable at issuance (k unobservable days at the series lead time),
    so residual histories stop there.
    """

    series: StationSeries
    t: np.ndarray          # running day index aligned to the model's origin
    k: int                 # unobservable days implied by the lead time
    indices: np.ndarray    # positions of the prediction dates in the series

    @classmethod
    def build(cls, model: FittedModel, series: StationSeries, dates) -> "PredictionContext":
        origin = model.meta.get("origin")
        if origin is None:
            raise InvalidInput("fitted model lacks an origin date in meta")
        lead = model.meta.get("lead_time_h", series.lead_time_h)
        if int(lead) != int(series.lead_time_h):
            raise InvalidInput(
                f"model fitted for lead {lead}h applied to a {series.lead_time_h}h series")
        dates = np.asarray(dates, dtype="datetime64[D]")
        indices = np.searchsorted(series.dates, dates)
        bad = (indices >= series.n_days) | (series.dates[np.minimum(indices, series.n_days - 1)] != dates)
        if np.any(bad):
            raise InvalidInput(f"prediction date {dates[np.argmax(bad)]} not present in the series")
        return cls(
            series=series,
            t=time_index(series.dates, origin),
            k=lead_time_offset(series.lead_time_h),
            indices=indices.astype(int),
        )

    def history_end(self, i):
        """Index of the last observation observable when forecasting index i
        (exclusive slice end); ``i`` may be an array of indices."""
        return np.maximum(i - self.k, 0)


# registry filled by the model modules ---------------------------------------

_FITTERS: dict[str, Callable] = {}
_PREDICTORS: dict[str, Callable] = {}


def register(kind: str, fitter: Callable, predictor: Callable) -> None:
    _FITTERS[kind] = fitter
    _PREDICTORS[kind] = predictor


def fit(kind: str, series: StationSeries, **kwargs) -> FittedModel:
    """Fit one model kind on a training series."""
    if kind not in _FITTERS:
        raise InvalidInput(f"unknown model kind {kind!r}; known: {sorted(_FITTERS)}")
    return _FITTERS[kind](series, **kwargs)


def predict(model: FittedModel, series: StationSeries, dates) -> tuple[np.ndarray, np.ndarray]:
    """Per-date Gaussian parameters (mu, sigma) for the requested dates.

    ``series`` must contain the prediction dates and enough history before
    them; observations after each date's availability horizon are never
    read.
    """
    return _PREDICTORS[model.kind](model, series, dates)
