"""Comparative evaluation: score tables, Diebold-Mariano tests with
Benjamini-Hochberg control, residual-dependence tables and PIT binning.

This module computes the tables and writes no files: ``cli`` lays out those
the ``verify`` subcommand writes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import (
    AlignmentError,
    DegenerateDifferential,
    EmptyInput,
    InvalidInput,
    InvalidPIT,
)
from .scoring import ScoreSample
from .timeseries import autocovariances, ljung_box

DM_ALTERNATIVES = ("a_better", "b_better", "two_sided")


# ---------------------------------------------------------------------------
# score tables
# ---------------------------------------------------------------------------


@dataclass
class ScoreRow:
    """Aggregated scores of one (method, station, lead time) cell."""

    method: str
    station_id: str
    lead_time_h: int
    n: int
    mean_crps: float
    mean_logs: float | None
    rmse: float
    mean_width: float
    coverage_pct: float
    case_crps: np.ndarray = field(repr=False, default=None)
    dates: np.ndarray = field(repr=False, default=None)


@dataclass
class ScoreTable:
    """Rows keyed by (method, station, lead time), with per-case CRPS retained."""

    rows: list[ScoreRow] = field(default_factory=list)

    def add_sample(self, method: str, station_id: str, lead_time_h: int,
                   sample: ScoreSample, dates=None) -> ScoreRow:
        """Append the row aggregating ``sample``: mean CRPS and LogS (None
        when the sample has no LogS), RMSE, mean width and coverage %."""
        crps = np.asarray(sample.crps, dtype=float)
        if crps.size == 0:
            raise EmptyInput("cannot summarize an empty score sample")
        row = ScoreRow(
            method=method, station_id=station_id, lead_time_h=int(lead_time_h),
            n=int(crps.size), mean_crps=float(np.mean(crps)),
            mean_logs=None if sample.logs is None else float(np.mean(sample.logs)),
            rmse=float(np.sqrt(np.mean(sample.se))),
            mean_width=float(np.mean(sample.width)),
            coverage_pct=float(100.0 * np.mean(sample.covered)),
            case_crps=crps,
            dates=None if dates is None else np.asarray(dates, dtype="datetime64[D]"),
        )
        self.rows.append(row)
        return row

    def aggregate(self, method: str) -> dict:
        """Across-cell aggregation (weighted by n) of one method's rows."""
        rows = [r for r in self.rows if r.method == method]
        if not rows:
            raise EmptyInput(f"no rows for method {method}")
        n = sum(r.n for r in rows)
        w = np.array([r.n / n for r in rows])
        logs = [r.mean_logs for r in rows]
        return {
            "method": method,
            "n": n,
            "mean_crps": float(w @ [r.mean_crps for r in rows]),
            "mean_logs": None if any(v is None for v in logs) else float(w @ logs),
            "rmse": float(np.sqrt(w @ [r.rmse ** 2 for r in rows])),
            "mean_width": float(w @ [r.mean_width for r in rows]),
            "coverage_pct": float(w @ [r.coverage_pct for r in rows]),
        }


# ---------------------------------------------------------------------------
# Diebold-Mariano and Benjamini-Hochberg
# ---------------------------------------------------------------------------


def dm_test(score_a, score_b, alternative: str = "two_sided") -> tuple[float, float]:
    """Diebold-Mariano test on the loss differential d = score_a - score_b.

    The statistic mean(d) / sqrt(lrv/n) is referred to the standard normal;
    lrv = gamma_0 + 2 sum_{l<=L} (1 - l/(L+1)) gamma_l is the Bartlett HAC
    variance at lag L = floor(n^(1/3)), from ``timeseries.autocovariances``
    of d.  ``a_better`` tests for score_a smaller (left tail).

    Raises DegenerateDifferential when that kernel finds d constant
    (identical or perfectly offset scores) or lrv <= 0, and InvalidInput
    when a score is not finite.
    """
    if alternative not in DM_ALTERNATIVES:
        raise InvalidInput(f"alternative must be one of {DM_ALTERNATIVES}")
    a = np.asarray(score_a, dtype=float).ravel()
    b = np.asarray(score_b, dtype=float).ravel()
    if a.shape != b.shape:
        raise AlignmentError(f"score series lengths differ: {a.size} vs {b.size}")
    n = a.size
    if n < 10:
        raise InvalidInput(f"need n >= 10 aligned cases, got {n}")
    lag = int(np.floor(n ** (1.0 / 3.0)))
    gamma, mean, constant = autocovariances((a - b)[:, None], lag)
    bartlett = 1.0 - np.arange(1, lag + 1) / (lag + 1.0)
    lrv = float(gamma[0, 0] + 2.0 * (bartlett @ gamma[1:, 0]))
    if constant[0] or lrv <= 0.0:
        raise DegenerateDifferential("loss differential has zero long-run variance")
    stat = float(mean[0] / np.sqrt(lrv / n))
    if alternative == "a_better":
        p = float(ndtr(stat))
    elif alternative == "b_better":
        p = float(ndtr(-stat))
    else:
        p = float(2.0 * ndtr(-abs(stat)))
    return stat, p


def benjamini_hochberg(p_values, alpha: float) -> np.ndarray:
    """Step-up Benjamini-Hochberg rejection flags.

    Sort p ascending, find the largest i with p_(i) <= i * alpha / m and
    reject hypotheses 1..i.
    """
    p = np.asarray(p_values, dtype=float).ravel()
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if np.any((p < 0) | (p > 1) | ~np.isfinite(p)):
        raise InvalidInput("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    thresholds = alpha * np.arange(1, m + 1) / m
    passed = np.nonzero(p[order] <= thresholds)[0]
    flags = np.zeros(m, dtype=bool)
    if passed.size:
        flags[order[: passed[-1] + 1]] = True
    return flags


# ---------------------------------------------------------------------------
# significance matrix
# ---------------------------------------------------------------------------


@dataclass
class SignificanceMatrix:
    """Entry (i, j): percent of (station, lead) cells where method i
    significantly beats method j after BH correction."""

    methods: list[str]
    percent: np.ndarray


def significance_matrix(table: ScoreTable, alpha: float = 0.05) -> SignificanceMatrix:
    """One-sided DM tests per cell, BH-corrected within each ordered method pair
    across cells.  One ``dm_test`` per unordered pair and cell gives s for
    d = crps_i - crps_j: i beats j with p = Phi(s), j beats i with p = Phi(-s)
    (swapping the pair negates d), and both are 1.0 for a degenerate d."""
    series = {}
    for row in table.rows:  # a repeated key keeps its first row
        series.setdefault((row.method, row.station_id, row.lead_time_h), row)
    if not series:
        raise EmptyInput("score table is empty")
    methods = list(dict.fromkeys(method for method, _, _ in series))
    cells = list(dict.fromkeys((station, lead) for _, station, lead in series))
    for method in methods:
        for station, lead in cells:
            if (method, station, lead) not in series:
                raise AlignmentError(f"method {method} missing cell ({station}, {lead})")
    percent = np.zeros((len(methods), len(methods)))
    for i, mi in enumerate(methods):
        for j, mj in enumerate(methods[i + 1:], start=i + 1):
            p_values = []  # (i over j, j over i) per cell
            for station, lead in cells:
                ra = series[(mi, station, lead)]
                rb = series[(mj, station, lead)]
                if ra.case_crps.size != rb.case_crps.size:
                    raise AlignmentError(
                        f"case series mismatch in cell ({station}, {lead})")
                if (ra.dates is not None and rb.dates is not None
                        and not np.array_equal(ra.dates, rb.dates)):
                    raise AlignmentError(f"dates mismatch in cell ({station}, {lead})")
                try:
                    stat, p = dm_test(ra.case_crps, rb.case_crps, "a_better")
                    p_values.append((p, float(ndtr(-stat))))
                except DegenerateDifferential:
                    p_values.append((1.0, 1.0))
            for (a, b), p in zip(((i, j), (j, i)), np.array(p_values).T):
                percent[a, b] = 100.0 * float(np.mean(benjamini_hochberg(p, alpha)))
    return SignificanceMatrix(methods=methods, percent=percent)


# ---------------------------------------------------------------------------
# residual dependence and PIT
# ---------------------------------------------------------------------------


def residual_dependence_table(residuals_by_model: dict, lags, alpha: float = 0.05) -> dict:
    """Percent of stations with significant Ljung-Box dependence, per model
    and lag, for the residuals and their squares (BH-corrected across
    stations within each model/lag/kind combination).

    ``residuals_by_model`` maps a model name to a list of per-station
    residual arrays.  Returns {model: {lag: (pct_plain, pct_squared)}}.
    """
    lags = [int(k) for k in lags]

    def percent(series, lag):
        p = np.array([ljung_box(r, lag)[1] for r in series])
        return 100.0 * float(np.mean(benjamini_hochberg(p, alpha)))

    out = {}
    for model, residual_list in residuals_by_model.items():
        squares = [np.square(r) for r in residual_list]
        out[model] = {lag: (percent(residual_list, lag), percent(squares, lag)) for lag in lags}
    return out


def pit_histogram(pit_values, bins: int = 10) -> tuple[np.ndarray, float]:
    """Equal-width bin counts of PIT values plus their sample variance.

    A calibrated forecast has uniform PIT with variance 1/12 (about
    0.0833); smaller indicates overdispersion, larger underdispersion.
    """
    pit = np.asarray(pit_values, dtype=float).ravel()
    if pit.size == 0:
        raise EmptyInput("no PIT values")
    if bins < 2:
        raise InvalidInput("need at least 2 bins")
    if np.any((pit < 0) | (pit > 1) | ~np.isfinite(pit)):
        raise InvalidPIT("PIT values must lie in [0, 1]")
    counts, _ = np.histogram(pit, bins=bins, range=(0.0, 1.0))
    variance = float(np.var(pit)) if pit.size > 1 else 0.0
    return counts, variance


def rank_histogram(ranks, n_members: int) -> np.ndarray:
    """Counts of verification ranks over {1, ..., m+1}."""
    ranks = np.asarray(ranks, dtype=int).ravel()
    if np.any((ranks < 1) | (ranks > n_members + 1)):
        raise InvalidInput(f"ranks must lie in 1..{n_members + 1}")
    return np.bincount(ranks, minlength=n_members + 2)[1:]
