"""Exception hierarchy shared across the package.

Three broad families map onto the CLI exit codes: configuration problems
(exit 2), data problems (exit 3) and numerical problems (exit 4).
"""


class EnspostError(Exception):
    """Base class for all package errors."""


class ConfigError(EnspostError):
    """Invalid run configuration (bad key, inconsistent date ranges, ...)."""


class InvalidConfig(ConfigError):
    """Synthetic-generation config violates its invariants."""


class DataError(EnspostError):
    """Base class for input-data problems."""


class NumericError(EnspostError):
    """Base class for numerical/estimation problems."""


# -- data family ------------------------------------------------------------

class InvalidEnsemble(DataError):
    """Ensemble with fewer than 2 members or non-finite values."""


class ImputationFailure(DataError):
    """A gap in the observation series cannot be filled."""


class ParseError(DataError):
    """CSV schema violation; message carries the offending row number."""


class InvalidInput(DataError):
    """Generic invalid argument to a numerical routine."""


class InvalidLevel(DataError):
    """Prediction-interval level outside (0, 1)."""


class InvalidPIT(DataError):
    """PIT value outside [0, 1]."""


class InvalidReference(DataError):
    """Non-positive reference score in a skill-score computation."""


class EmptyInput(DataError):
    """Aggregation over an empty collection."""


class InsufficientHistory(DataError):
    """Not enough past days to form a training window."""


class AlignmentError(DataError):
    """Score/prediction series do not share dates or cases."""


# -- numeric family ----------------------------------------------------------

class DegenerateSeries(NumericError):
    """Constant (zero-variance) series where variability is required."""


class HistoryTooShort(NumericError):
    """AR prediction asked for more lags than the history provides."""


class DegenerateDifferential(NumericError):
    """Diebold-Mariano loss differential has zero long-run variance."""


class NumericalFailure(NumericError):
    """Quadrature or optimization failed beyond recovery."""


class InvalidStart(NumericError):
    """Objective not finite at the optimizer's starting point."""
