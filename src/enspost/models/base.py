"""Shared model pieces: the kind names and the fitted-model container with
its serialization.

Every model fits on a training StationSeries and then produces per-date
Gaussian parameters (mu, sigma) for requested rows of a longer series,
reading only the observations ``StationSeries.history_end`` allows.
Dispatch by kind lives in the package's ``fit`` and ``predict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..data import parse_iso_dates
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
        """Read a fit file; an unreadable, truncated or malformed one, say one whose
        ``meta.origin`` is not a YYYY-MM-DD date, raises InvalidInput naming the file."""
        try:
            with open(path) as fh:
                model = cls.from_dict(json.load(fh))
            parse_iso_dates([str(model.meta["origin"])])  # the first training day, YYYY-MM-DD
            if model.kind in SEASONAL_KINDS and not (
                    np.shape(model.loc) == np.shape(model.scale) == (N_COEFFS,)):
                raise ValueError(f"seasonal loc and scale need {N_COEFFS} coefficients each")
            if model.kind in ("DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS") and model.ar is None:
                raise ValueError(f"{model.kind} needs an ar block")
            if model.kind == "DAR-GARCH-SEMOS" and model.garch is None:
                raise ValueError(f"{model.kind} needs a garch block")
        except (OSError, InvalidInput, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise InvalidInput(f"malformed fitted model {path}: "
                               f"{type(exc).__name__}: {exc}") from exc
        return model
