"""Shared model pieces: the kind names and the fitted-model container with
its serialization.

Every model fits on a training StationSeries and then produces per-date
Gaussian parameters (mu, sigma) for requested rows of a longer series,
reading only the observations ``StationSeries.history_end`` allows.
Dispatch by kind lives in the package's ``fit`` and ``predict``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from ..data import parse_iso_dates
from ..errors import InvalidInput
from ..seasonal import N_COEFFS
from ..timeseries import ARCoeffs, GARCHCoeffs

#: the blocks a record of each kind may carry; the seasonal kinds need all of theirs
_BLOCKS = {"EMOS": ("loc", "scale"), "AR-EMOS": ("members_ar", "weight"),
           "SEMOS": ("loc", "scale"), "DAR-SEMOS": ("loc", "scale", "ar"),
           "DAR-GARCH-SEMOS": ("loc", "scale", "ar", "garch"), "SAR-SEMOS": ("loc", "scale", "ar")}
MODEL_KINDS = tuple(_BLOCKS)

#: SEMOS-family kinds share the static seasonal machinery
SEASONAL_KINDS = ("SEMOS", "DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS")


def _json_fields(items) -> dict:
    """``asdict``'s dict factory: arrays as lists of floats, ``members_ar`` only when set."""
    return {name: value.astype(float).tolist() if isinstance(value, np.ndarray) else value
            for name, value in items
            if name != "train_residuals" and (name != "members_ar" or value is not None)}


@dataclass
class FittedModel:
    """One fitted postprocessing model plus training metadata.

    ``loc``/``scale`` hold the 10-coefficient seasonal layout for the
    SEMOS family and the plain (intercept, slope) pair for EMOS; rolling
    models store the coefficients estimated at the training-period end
    (they re-estimate inside predict).  ``train_residuals`` are the
    standardized one-step training innovations (y - mu_hat) / sigma_hat of
    static fits, kept out of the JSON document.  A record in memory obeys a
    loaded one's rules: its blocks are checked when it is made, its
    ``origin`` when it is read, and a broken rule raises InvalidInput.
    """

    kind: str
    loc: np.ndarray | None = None
    scale: np.ndarray | None = None
    ar: ARCoeffs | None = None
    garch: GARCHCoeffs | None = None
    weight: float | None = None
    meta: dict = field(default_factory=dict)
    members_ar: list[ARCoeffs] | None = None  # stored only when present, after meta
    train_residuals: np.ndarray | None = None  # not stored

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidInput(f"unknown model kind {self.kind!r}")
        if extra := [name for name in ("loc", "scale", "ar", "garch", "weight", "members_ar")
                     if getattr(self, name) is not None and name not in _BLOCKS[self.kind]]:
            raise InvalidInput(f"{self.kind} records carry no {' or '.join(extra)} block")
        if self.weight is not None and not (0.0 <= self.weight <= 1.0):
            raise InvalidInput(f"AR-EMOS weight must lie in [0, 1], got {self.weight}")
        if self.kind in SEASONAL_KINDS and not (
                np.shape(self.loc) == np.shape(self.scale) == (N_COEFFS,)):
            raise InvalidInput(f"{self.kind} loc and scale need {N_COEFFS} coefficients each")
        if "ar" in _BLOCKS[self.kind] and self.ar is None:
            raise InvalidInput(f"{self.kind} needs an ar block")
        if "garch" in _BLOCKS[self.kind] and self.garch is None:
            raise InvalidInput(f"{self.kind} needs a garch block")

    @property
    def origin(self) -> np.datetime64:
        """The first training day, ``meta["origin"]``, from which the seasonal
        time index counts; InvalidInput unless it is a YYYY-MM-DD text."""
        value = self.meta.get("origin")
        try:
            return parse_iso_dates([value])[0]
        except (TypeError, ValueError):
            raise InvalidInput(f"fit origin {value!r} is not a YYYY-MM-DD date") from None

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_json_fields)

    @classmethod
    def from_dict(cls, doc: dict) -> "FittedModel":
        def ar(block):
            return ARCoeffs(int(block["p"]), float(block["eta"]), tuple(map(float, block["tau"])))

        floats = partial(np.asarray, dtype=float)
        read = {"loc": floats, "scale": floats, "ar": ar, "weight": float, "meta": dict,
                "garch": lambda block: GARCHCoeffs(**{k: float(v) for k, v in block.items()}),
                "members_ar": lambda blocks: [ar(block) for block in blocks]}
        # an absent or null field takes its default
        return cls(kind=doc["kind"], **{name: read[name](doc[name]) for name in read
                                        if doc.get(name) is not None})

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FittedModel":
        """Read a fit file; an unreadable, truncated or malformed one, say one
        that breaks a record rule or whose origin is not a YYYY-MM-DD date,
        raises InvalidInput naming the file."""
        try:
            with open(path) as fh:
                model = cls.from_dict(json.load(fh))
            model.origin  # a fit file names its first training day
        except (OSError, InvalidInput, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise InvalidInput(f"malformed fitted model {path}: "
                               f"{type(exc).__name__}: {exc}") from exc
        return model
