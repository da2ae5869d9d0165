"""AR(p) estimation and prediction, GARCH(1,1) variance paths, ACF and Ljung-Box.

AR fitting follows the classical Yule-Walker route: biased sample
autocovariances and one Levinson-Durbin pass over the orders 0..max_order,
each series keeping the fit of its first AIC minimum.  The process mean is
handled explicitly (eta), so the AR equation reads
x(t) = eta + sum_j tau_j (x(t-j) - eta) + innovation.

The AR kernels (``fit_ar_yule_walker``, ``ar_innovation_variance``,
``ar_teacher_forced``, ``ar_multistep``) work on m series at once, given
as the columns of an (n, m) array with time running down the rows, and on
their fits as one ``ARFits``.  A 1-D series with an ``ARCoeffs`` is the
m = 1 case and returns scalars or 1-D arrays.  ``windowed_ar_fits`` gives
what ``fit_ar_yule_walker`` and ``ar_innovation_variance`` give on many
overlapping windows of the columns, from window sums: the autocovariances
of a window are differences of running sums of the series and of its lag
products, and its innovation variance follows from the Levinson-Durbin
variance and the window's first and last p rows, so a window costs
O(max_order^2) rather than O(length).  Both fitting paths share the
Levinson-Durbin recursion, the AIC order choice and the tau layout
(``_ar_fits``).

The kernels do not check stationarity.  Yule-Walker fits from biased
autocovariances are stationary by construction; a caller whose
coefficients come from elsewhere (a CRPS fit, a fit file) checks its one
lag vector with ``is_stationary``.

``linear_recursion`` is the one linear recursion over time, out[i] =
drive[i] + sum_j coeffs[j-1] * out[i-j], with constant or time-varying
coefficients.  ``garch_path`` and its adjoint (shared by the seasonal
models and ``fit_garch``) and the generator's AR and GARCH draws run on
it.  The kernel is one banded triangular solve, ``cblas_dtbsv`` in its
transposed form, each step a length-p dot product and one subtraction.
It is the OpenBLAS that numpy already loaded, bound once at import
through ``ctypes``, so the runtime loads no ``scipy.linalg`` (43
modules, about 6 MB of resident memory and 60-100 ms of import).  For
p <= 1 it rounds as the plain loop ``drive[i] + coeff * prev`` does, so
its paths are the loop's to the bit while BLAS's length-1 ``ddot`` does
not fuse its multiply into the subtraction (the untransposed solve and
LAPACK ``dtbtrs`` do, and differ in the last digit); for p >= 2 the lag
sum is added in BLAS's order.  Where numpy exports no such symbol
(another BLAS, numpy 1.x, Windows) the kernel is that plain loop in
Python, chosen once at import: bit-equal at p <= 1 and about 6 times
slower (180 against 30 us for 1,826 steps on a 2-core Xeon).  A blocked
scan (Blelloch 1990) was no alternative, as it is not bit-equal.

``ar_multistep`` runs m columns on from given histories, each step the
one-step formula of ``ar_teacher_forced``, and ``windowed_ar_fits`` takes
its windows' edge errors from the same formula.

``ar_forecast`` is the one lead-time conditional of an AR(-GARCH) error
process, which the seasonal models' predictor and the synthetic
generator's truth share; its GARCH variance is a ``garch_path``.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import gammaincc

from .errors import (
    DegenerateSeries,
    HistoryTooShort,
    InvalidInput,
)
from .optimize import OptimizeSettings, minimize


@dataclass(frozen=True)
class ARCoeffs:
    """AR(p) coefficients: process mean eta and lag weights tau_1..tau_p."""

    p: int
    eta: float
    tau: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.p != len(self.tau):
            raise InvalidInput(f"AR order {self.p} does not match {len(self.tau)} tau values")
        if not all(map(math.isfinite, (self.eta, *self.tau))):
            raise InvalidInput("AR coefficients must be finite")


@dataclass(frozen=True)
class ARFits:
    """AR fits of m series side by side; column i is an AR(p[i]) model.

    ``tau`` is (m, max p) with the lags beyond p[i] set to zero, so every
    column runs through one recursion: a zero lag adds exactly 0.
    ``degenerate`` marks the columns that ``fit_ar_yule_walker`` gave the
    mean-only AR(0) fit because they were constant.
    """

    p: np.ndarray           # (m,) int
    eta: np.ndarray         # (m,)
    tau: np.ndarray         # (m, max p)
    degenerate: np.ndarray  # (m,) bool

    @classmethod
    def stack(cls, fits: Sequence[ARCoeffs]) -> ARFits:
        p = np.array([ar.p for ar in fits], dtype=int)
        tau = np.zeros((p.size, int(p.max(initial=0))))
        for row, ar in zip(tau, fits):
            row[:ar.p] = ar.tau
        return cls(p, np.array([ar.eta for ar in fits], dtype=float), tau,
                   np.zeros(p.size, dtype=bool))

    @property
    def max_p(self) -> int:
        return self.tau.shape[1]

    def columns(self, cols) -> ARFits:
        """The fits of the columns ``cols``, an index array or a slice."""
        return ARFits(self.p[cols], self.eta[cols], self.tau[cols], self.degenerate[cols])

    def members(self) -> list[ARCoeffs]:
        """One ARCoeffs per column."""
        return [ARCoeffs(p=int(p), eta=float(eta), tau=tuple(float(t) for t in row[:p]))
                for p, eta, row in zip(self.p, self.eta, self.tau)]


@dataclass(frozen=True)
class GARCHCoeffs:
    """GARCH(1,1) coefficients, all non-negative."""

    omega0: float
    omega1: float
    omega2: float

    def __post_init__(self):
        vals = (self.omega0, self.omega1, self.omega2)
        if not all(map(math.isfinite, vals)) or min(vals) < 0:
            raise InvalidInput(f"GARCH coefficients must be finite and >= 0, got {vals}")


def _as_columns(ar, x):
    """(fits, (n, m) array, single) for the AR kernels: an ARCoeffs takes a
    1-D series and is the m = 1 case (single True), an ARFits takes one
    column per fit."""
    x = np.asarray(x, dtype=float)
    if isinstance(ar, ARCoeffs):
        return ARFits.stack([ar]), x.reshape(-1, 1), True
    if x.ndim != 2 or x.shape[1] != ar.p.size:
        raise InvalidInput(f"{ar.p.size} AR fits need an (n, {ar.p.size}) array, "
                           f"got shape {x.shape}")
    return ar, x, False


def _centered_columns(x: np.ndarray):
    """Column-centred copy of an (n, m) array and the mask of its constant
    columns."""
    if x.shape[0] < 2:
        raise DegenerateSeries("need at least 2 observations")
    mean = x.mean(axis=0)
    c = x - mean
    if not np.all(np.isfinite(c)):
        raise InvalidInput("series contains non-finite values")
    # relative floor catches constant series despite summation rounding
    floor = x.shape[0] * (1e-12 * (1.0 + np.abs(mean))) ** 2
    return c, np.einsum("ij,ij->j", c, c) <= floor


def acf(x, max_lag: int) -> np.ndarray:
    """Sample autocorrelations rho_1..rho_max_lag (biased denominator).

    Autocovariances use divisor n and are normalized by the lag-0
    autocovariance, the convention that keeps Levinson-Durbin stable.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    n = x.shape[0]
    gamma, _, constant = _autocovariances(x, min(max_lag, n))  # range checked below
    if constant[0]:
        raise DegenerateSeries("constant series has no autocorrelation structure")
    if not (1 <= max_lag < n):
        raise InvalidInput(f"max_lag must be in [1, n-1], got {max_lag} for n={n}")
    return gamma[1:, 0] / gamma[0, 0]


def _autocovariances(cols: np.ndarray, max_order: int):
    """(gamma, eta, constant) of the (n, m) columns: the biased
    autocovariances gamma_0..gamma_max_order, one column per series, the
    means and the mask of the constant columns."""
    c, constant = _centered_columns(cols)
    n = cols.shape[0]
    gamma = np.array([np.einsum("ij,ij->j", c[k:], c[:n - k])
                      for k in range(max_order + 1)]) / n
    return gamma, cols.mean(axis=0), constant


def _ar_fits(gamma: np.ndarray, n: int, eta: np.ndarray, degenerate: np.ndarray):
    """AR fits from the autocovariance columns gamma_0..gamma_K of series
    of length n with means ``eta``: the Levinson-Durbin recursion order by
    order, each column keeping the tau and the Levinson-Durbin innovation
    variance of its first AIC minimum over orders 0..K (a later order wins
    only when its AIC is strictly lower, so a NaN AIC never wins).  Returns
    the ARFits and those variances.  A ``degenerate`` column gets the
    mean-only AR(0) fit; ``gamma`` is overwritten there."""
    gamma[:, degenerate] = 0.0
    gamma[0, degenerate] = 1.0  # white noise: Levinson-Durbin picks order 0
    phi, tau = np.zeros((2, gamma.shape[0] - 1, gamma.shape[1]))
    variance = v = gamma[0]
    best = n * np.log(np.maximum(v, 1e-300))
    p = np.zeros(v.size, dtype=int)
    for k in range(1, gamma.shape[0]):
        kappa = (gamma[k] - np.einsum("jm,jm->m", phi[:k - 1], gamma[k - 1:0:-1])) / v
        phi[:k - 1] -= kappa * phi[:k - 1][::-1]
        phi[k - 1] = kappa
        v = v * (1.0 - kappa * kappa)
        aic = n * np.log(np.maximum(v, 1e-300)) + 2.0 * k
        lower = aic < best
        best = np.where(lower, aic, best)
        p = np.where(lower, k, p)
        variance = np.where(lower, v, variance)
        np.copyto(tau, phi, where=lower)
    return ARFits(p, eta, tau[:p.max()].T.copy(), degenerate), variance


def fit_ar_yule_walker(x, max_order: int | None = None, mean_fallback: bool = False):
    """Fit AR(p) models with the order chosen by AIC over 0..max_order.

    ``x`` is one series (returns an ARCoeffs) or the columns of an (n, m)
    array (returns an ARFits).  eta is the sample mean; tau comes from the
    Levinson-Durbin recursion at the selected order.  Default max_order =
    min(20, floor(10 log10 n)), additionally capped at n - 2.

    A constant series raises DegenerateSeries, unless ``mean_fallback``
    is set: then it gets the AR(0) fit at its mean and is flagged in
    ``ARFits.degenerate``.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim != 2
    cols = x.reshape(-1, 1) if single else x
    n = cols.shape[0]
    if max_order is None:
        max_order = min(20, int(np.floor(10.0 * np.log10(max(n, 2)))))
    max_order = max(0, min(max_order, n - 2))
    if n <= max_order + 1:
        raise InvalidInput(f"series of length {n} too short for max_order {max_order}")
    gamma, eta, degenerate = _autocovariances(cols, max_order)
    if degenerate.any() and not mean_fallback:
        where = "" if single else f" (columns {np.flatnonzero(degenerate).tolist()})"
        raise DegenerateSeries(f"constant series has no autocorrelation structure{where}")
    fits, _ = _ar_fits(gamma, n, eta, degenerate)
    return fits.members()[0] if single else fits


def _teacher_forced(fits: ARFits, x: np.ndarray, start: int) -> np.ndarray:
    """Rows start.. of eta + sum_j tau_j (x[t-j] - eta); lags before row 0
    are left out."""
    pred = fits.eta[None, :].repeat(x.shape[0] - start, axis=0)
    centred = x - fits.eta
    for j in range(1, fits.max_p + 1):
        first = max(start, j)
        pred[first - start:] += fits.tau[:, j - 1] * centred[first - j: x.shape[0] - j]
    return pred


def ar_teacher_forced(ar, x, start: int) -> np.ndarray:
    """Teacher-forced one-step predictions of rows start..n-1 of ``x``, each
    from the observed rows before it; needs start >= p."""
    fits, cols, single = _as_columns(ar, x)
    if start < fits.max_p:
        raise HistoryTooShort(f"AR({fits.max_p}) predictions need start >= {fits.max_p}, "
                              f"got {start}")
    pred = _teacher_forced(fits, cols, start)
    return pred[:, 0] if single else pred


def ar_teacher_forced_adjoint(ar: ARCoeffs, x, start: int, d_pred):
    """Reverse-mode derivative of ``ar_teacher_forced(ar, x, start)`` for one
    series: from the adjoint ``d_pred`` of its n - start outputs, the
    adjoints (d_x, d_eta, d_tau) of its inputs.

    d_x is the correlation of d_pred with tau, d_tau_j = sum_t d_pred[t]
    (x[t-j] - eta) and d_eta = (1 - sum tau) sum d_pred.
    """
    x = np.asarray(x, dtype=float)
    d_pred = np.asarray(d_pred, dtype=float)
    n = x.size
    d_x = np.zeros(n)
    d_tau = np.empty(ar.p)
    for j, tau_j in enumerate(ar.tau, start=1):
        lagged = slice(start - j, n - j)
        d_x[lagged] += tau_j * d_pred
        d_tau[j - 1] = d_pred @ (x[lagged] - ar.eta)
    return d_x, (1.0 - sum(ar.tau)) * float(d_pred.sum()), d_tau


def ar_innovation_variance(x, ar):
    """Mean squared one-step prediction error of each fit on its own series,
    over the rows t >= p that have p predecessors."""
    fits, cols, single = _as_columns(ar, x)
    n = cols.shape[0]
    if np.any((fits.p > 0) & (n <= fits.p)):
        raise HistoryTooShort(f"series of length {n} cannot score an AR({fits.max_p})")
    sq = np.square(cols - _teacher_forced(fits, cols, 0))
    sq[np.arange(n)[:, None] < fits.p] = 0.0
    out = sq.sum(axis=0) / (n - fits.p)
    return float(out[0]) if single else out


# windows whose autocovariance gamma_0 falls below this share of
# (1 + |eta|)^2 take their autocovariances from the window itself, as
# ``fit_ar_yule_walker`` does, which also decides whether they are constant
_WINDOW_SUMS_FLOOR = 1e-8


def _running_sums(seg: np.ndarray, anchor: int, max_lag: int, out: np.ndarray) -> None:
    """Fill ``out`` (rows + 1, max_lag + 2, m) with the signed running sums
    of the columns of ``seg`` and of their lag products seg[t] seg[t - k],
    k = 0..max_lag, taken from row ``anchor`` outward: entry s is the sum
    over rows [anchor, s), or minus the sum over [s, anchor) when s <
    anchor.  Lag products that reach before row 0 are left out."""
    rows = seg.shape[0]
    terms = np.empty((rows, max_lag + 2, seg.shape[1]))
    terms[:, 0] = seg
    for k in range(max_lag + 1):
        terms[:k, k + 1] = 0.0
        np.multiply(seg[k:], seg[:rows - k], out=terms[k:, k + 1])
    np.negative(terms[:anchor], out=terms[:anchor])
    out[anchor] = 0.0
    np.cumsum(terms[anchor:], axis=0, out=out[anchor + 1:])
    np.cumsum(terms[:anchor][::-1], axis=0, out=out[:anchor][::-1])


def windowed_ar_fits(x, starts, length: int, max_order: int, first_row: int = 0):
    """Yule-Walker AR fits and their innovation variances on windows of
    ``length`` rows of the (N, m) columns of ``x``, one window per start s.

    x[i] is row ``first_row`` + i of a longer series, and s counts rows of
    that series: window s is x[s - first_row:s - first_row + length].
    Rows outside the windows are never read.  Returns (fits, variance)
    with column d * m + j for window d of column j: what
    ``fit_ar_yule_walker(window, max_order, mean_fallback=True)`` and
    ``ar_innovation_variance`` give, to rounding.

    The windows share running sums.  Each window is given an anchor row o,
    the first row of the series at least max_order rows into the window
    that is a multiple of length - max_order.  The windows of one anchor
    share the running sums of x - x[o] and of its lag products, taken
    outward from o (``_running_sums``).  A sum over rows [u, w) is the
    difference of two of them, so a window's autocovariances cost
    O(max_order).  Its innovation variance costs O(max_order^2): the squared
    one-step errors of the window padded with eta sum to n v_p, with v_p the
    Levinson-Durbin variance, less the teacher-forced errors whose lags reach
    into the padding, at the window's first p rows and the p rows after it.
    Every running sum a window reads starts at its anchor and stays inside
    the window, so its fit is the same to the bit whichever other windows
    are requested and wherever ``x`` starts.  Windows of (nearly) constant
    values take their autocovariances from the window itself, as
    ``fit_ar_yule_walker`` does, one window at a time.  A call holds
    O((windows + length) max_order m) memory: callers bound its windows.
    """
    x = np.asarray(x, dtype=float)
    n, m, lags = length, x.shape[1], np.arange(max_order + 1)
    if n <= max_order + 1:
        raise InvalidInput(f"windows of length {n} too short for max_order {max_order}")
    anchors = window_anchors(starts, n, max_order) - first_row
    starts = np.asarray(starts, dtype=int) - first_row
    # one segment of running sums per anchor, over the rows [lo, hi) of its
    # windows; entry (s, column) of the table is row s * (K + 2) + column
    groups = []
    for anchor in np.unique(anchors):
        group = starts[anchors == anchor]
        groups.append((anchor, group.min(), group.max() + n))
    width = max_order + 2
    table = np.empty((sum(hi - lo + 1 for _, lo, hi in groups), width, m))
    base = np.empty(starts.size, dtype=int)
    offset = 0
    for anchor, lo, hi in groups:
        _running_sums(x[lo:hi] - x[anchor], anchor - lo, max_order,
                      table[offset:offset + hi - lo + 1])
        base[anchors == anchor] = offset - lo
        offset += hi - lo + 1
    table = table.reshape(-1, m)
    a, b = (base + starts)[:, None], (base + starts + n)[:, None]
    at_b = table[b * width + np.arange(width)]           # (windows, K + 2, m)
    x_from = table[(a + lags) * width]                   # sum of x from a + k
    x_to = table[(b - lags) * width]                     # ... and to b - k
    products = at_b[:, 1:] - table[(a + lags) * width + lags + 1]
    mean = (at_b[:, 0] - x_from[:, 0]) / n               # of x - x[o], (windows, m)
    gamma = (products - mean[:, None] * ((at_b[:, :1] - x_from) + (x_to - x_from[:, :1]))
             + (n - lags)[:, None] * np.square(mean[:, None])) / n
    del table, at_b, x_from, x_to, products
    eta = (x[anchors] + mean).ravel()
    gamma = gamma.transpose(1, 0, 2).reshape(max_order + 1, -1)
    degenerate = np.zeros(eta.size, dtype=bool)
    # one window at a time, so that its fit does not depend on the others
    direct = {col: x[starts[col // m]:starts[col // m] + n, [col % m]] for col in
              np.flatnonzero(gamma[0] <= _WINDOW_SUMS_FLOOR * np.square(1.0 + np.abs(eta)))}
    for col, window in direct.items():
        gamma[:, [col]], eta[[col]], degenerate[[col]] = _autocovariances(window, max_order)
    fits, v_p = _ar_fits(gamma, n, eta, degenerate)

    # one-step errors of the window padded with eta, from ``_teacher_forced``:
    # at its first K rows (the head; only the first p reach into the padding)
    # and at the K rows after it (the tail), run on its last K rows
    edge = np.arange(max_order)
    head, tail = (x[starts[:, None] + rows].transpose(1, 0, 2).reshape(max_order, -1)
                  for rows in (edge, n - max_order + edge))
    head -= _teacher_forced(fits, head, 0)
    head[edge[:, None] >= fits.p] = 0.0
    tail = eta - _teacher_forced(fits, np.concatenate([tail, np.broadcast_to(eta, tail.shape)]),
                                 max_order)
    variance = (n * v_p - np.einsum("ec,ec->c", head, head)
                - np.einsum("ec,ec->c", tail, tail)) / (n - fits.p)
    for col, window in direct.items():
        variance[col] = ar_innovation_variance(window, fits.columns([col]))[0]
    return fits, variance


def window_anchors(starts, length: int, max_order: int) -> np.ndarray:
    """The anchor row o of each window start s in ``windowed_ar_fits``."""
    spacing = length - max_order
    return -(-(np.asarray(starts, dtype=int) + max_order) // spacing) * spacing


def is_stationary(tau) -> bool:
    """True when all roots of 1 - tau_1 z - ... - tau_p z^p lie outside the unit circle.

    The roots' reciprocals are the eigenvalues of the companion matrix, so
    it checks those lie inside.
    """
    tau = np.asarray(tau, dtype=float).ravel()
    if tau.size == 0:
        return True
    companion = np.eye(tau.size, k=-1)
    companion[0] = tau
    return bool(np.all(np.abs(np.linalg.eigvals(companion)) < 1.0))


def _bind_cblas_dtbsv():
    """numpy's ``cblas_dtbsv`` (scipy-openblas, 64-bit integers), looked up
    through a BLAS-linked numpy extension; None where it exports none."""
    from numpy.linalg import _umath_linalg
    try:
        solve = ctypes.CDLL(_umath_linalg.__file__).scipy_cblas_dtbsv64_
    except (OSError, AttributeError, TypeError):
        return None
    i32, i64, ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
    solve.argtypes = (i32, i32, i32, i32, i64, i64, ptr, i64, ptr, i64)
    solve.restype = None
    return solve


_CBLAS_DTBSV = _bind_cblas_dtbsv()


def _blas_band_solve(band: np.ndarray, x: np.ndarray) -> None:
    """x <- A^-T x in place, A the unit upper band matrix whose p + 1 rows
    ``band`` holds in Fortran order (LAPACK band storage, lda = p + 1).
    BLAS reads and writes through the pointers unchecked, so the layout is
    checked first."""
    p = band.shape[0] - 1
    if not (band.dtype == x.dtype == np.float64 and x.ndim == 1
            and band.shape == (p + 1, x.size) and band.flags.f_contiguous
            and x.flags.c_contiguous and x.flags.writeable):
        raise InvalidInput("dtbsv needs a Fortran-ordered float64 (p + 1, n) band "
                           "and a writable contiguous float64 (n,) vector")
    _CBLAS_DTBSV(102, 121, 112, 132,  # column-major, upper, transposed, unit
                 x.size, p, band.ctypes.data, p + 1, x.ctypes.data, 1)


def _loop_band_solve(band: np.ndarray, x: np.ndarray) -> None:
    """The same solve as a Python loop, step i adding coeffs[j-1, i] *
    out[i-j] for j = 1..p in turn to drive[i]."""
    p = band.shape[0] - 1
    coeffs = (-band[:p][::-1]).tolist()  # row j-1: coeffs[j-1], negated exactly
    out = x.tolist()
    if p == 1 and out:  # every GARCH path: one term, without the inner loop
        prev = out[0]
        path = [prev]
        for drive, coeff in zip(out[1:], coeffs[0][1:]):
            prev = drive + coeff * prev
            path.append(prev)
        x[:] = path
        return
    for i in range(1, len(out)):
        acc = out[i]
        for j in range(1, min(i, p) + 1):
            acc += coeffs[j - 1][i] * out[i - j]
        out[i] = acc
    x[:] = out


# chosen once, from what the loaded numpy exports
_band_solve = _loop_band_solve if _CBLAS_DTBSV is None else _blas_band_solve


def linear_recursion(coeffs, drive) -> np.ndarray:
    """out[i] = drive[i] + sum_{j<=p} coeffs[j-1] * out[i-j], with the terms
    before out[0] left out; ``coeffs`` is (p,) or a (p, n) band whose column
    i holds step i's coefficients ((p, 1) holds them for every step).  One
    transposed unit band solve (``dtbsv``) with the upper band whose j-th
    superdiagonal is -coeffs[j-1] (its diagonal row is never read), on a
    copy of ``drive``; see the module docstring for the two kernels.  The
    shapes are checked here, before a pointer reaches BLAS."""
    coeffs = np.asarray(coeffs, dtype=float)
    drive = np.asarray(drive, dtype=float)
    if drive.ndim != 1:
        raise InvalidInput(f"the drive of a linear recursion must be 1-D, got shape {drive.shape}")
    if coeffs.ndim == 1:
        coeffs = coeffs[:, None]
    if coeffs.ndim != 2 or coeffs.shape[1] not in (1, drive.size):
        raise InvalidInput(f"coefficients of shape {coeffs.shape} do not fit a drive of "
                           f"{drive.size} steps: (p,), (p, 1) or (p, {drive.size}) expected")
    band = np.empty((coeffs.shape[0] + 1, drive.size), order="F")
    band[-2::-1] = -coeffs  # row p-j: -coeffs[j-1]
    out = np.array(drive, order="C")
    _band_solve(band, out)
    return out


def ar_multistep(ar, history, steps: int) -> np.ndarray:
    """Iterated AR predictions, appending each prediction to the history.

    Used whenever the lead time leaves the most recent residuals
    unobserved.  Only the last p rows of ``history`` are read.  Returns
    (steps,) for one series and (steps, m) for m columns.  Nonstationary
    coefficients are run as given, so the recursion may diverge.
    """
    if steps < 1:
        raise InvalidInput("steps must be >= 1")
    fits, hist, single = _as_columns(ar, history)
    p = fits.max_p
    if hist.shape[0] < p:
        raise HistoryTooShort(f"AR({p}) needs {p} past values, got {hist.shape[0]}")
    buf = np.empty((p + steps, fits.p.size))
    buf[:p] = hist[hist.shape[0] - p:]
    for i in range(steps):
        buf[p + i] = _teacher_forced(fits, buf[i:p + i + 1], p)[0]
    return buf[p:, 0] if single else buf[p:]


def ar_forecast(ar: ARCoeffs, garch: GARCHCoeffs | None, x: np.ndarray, scale: np.ndarray,
                h: np.ndarray, i: np.ndarray):
    """The lead-time conditional (x_hat, sigma_G) of each x[i] of an
    AR(-GARCH) error series from the history before h (exclusive), all
    dates at once.

    x_hat is the multi-step AR forecast (Box & Jenkins): column d runs
    i[d] - h[d] + 1 steps from the p values before h[d] (eta where fewer
    exist).  sigma_G is 1 without GARCH.  With GARCH, running on rho = (x -
    one-step AR) / scale, one ``garch_path`` from ``garch_start`` runs over
    the observable innovations and one step past the last of them.  Each
    date takes the path's value one step after its last observable
    innovation (the start value when it has none) and is bridged over the
    remaining days by the conditional-expectation update (Bollerslev 1986),
    which replaces rho^2 by sigma_G^2.
    """
    m, p = h.size, ar.p
    tau = np.broadcast_to(np.array(ar.tau, dtype=float), (m, p))
    fits = ARFits(np.full(m, p), np.full(m, float(ar.eta)), tau, np.zeros(m, dtype=bool))
    rows = h + np.arange(-p, 0)[:, None]  # (p, dates)
    history = np.where(rows >= 0, x[np.maximum(rows, 0)], ar.eta)
    paths = ar_multistep(fits, history, int((i - h).max(initial=0)) + 1)
    x_hat = paths[i - h, np.arange(m)]
    if garch is None:
        return x_hat, 1.0
    w = np.array([garch.omega0, garch.omega1, garch.omega2])
    n = max(int(h.max(initial=0)), p)
    rho_sq = np.square((x[p:n] - ar_teacher_forced(ar, x[:n], p)) / scale[p:n])
    seen = np.maximum(h - p, 0)  # path index one step past each date's last observable day
    var = garch_path(w, np.append(rho_sq, 0.0), garch_start(w))[seen]
    steps_left = np.maximum(i - p, 0) - seen
    for step in range(int(steps_left.max(initial=0))):
        var = np.where(step < steps_left, w[0] + (w[1] + w[2]) * var, var)
    return x_hat, np.sqrt(var)


# ---------------------------------------------------------------------------
# GARCH(1,1)
# ---------------------------------------------------------------------------


def garch_path(w, rho_sq, init: float) -> np.ndarray:
    """GARCH(1,1) variance path aligned with ``rho_sq``, w = (omega0,
    omega1, omega2):

        out[0] = init
        out[i] = omega0 + omega1 * out[i-1] + omega2 * rho_sq[i-1]

    so the last rho_sq does not enter the path: appending one gives the
    one-step variance past the last innovation, ``ar_forecast``'s start.
    """
    drive = np.empty(rho_sq.size)
    drive[0] = init
    drive[1:] = w[0] + w[2] * rho_sq[:-1]
    return linear_recursion([w[1]], drive)


def garch_start(w) -> float:
    """Start of the seasonal models' GARCH paths: omega0 / (1 - omega1 - omega2),
    the denominator floored at 1e-3 (a fit's objective stays continuous
    across the stationarity boundary); 1 unless positive."""
    init = w[0] / max(1.0 - w[1] - w[2], 1e-3)
    return init if init > 0 else 1.0


def garch_path_adjoint(w, rho_sq, path, d_path):
    """Reverse-mode derivative of ``garch_path``: from the adjoint ``d_path``
    of its output ``path``, the adjoints (d_w, d_rho_sq, d_init).

    The adjoint of the recursion is the same recursion run backwards in
    time: lam[i] = d_path[i] + omega1 * lam[i+1] is the total derivative by
    path[i].
    """
    # Solved in reversed time and kept as a reversed view: numpy sums
    # ahead.sum() and the dot products in memory order, so a forward-contiguous
    # lam would change the rounding of d_w and with it the fits.
    lam = linear_recursion([w[1]], d_path[::-1])[::-1]
    ahead = lam[1:]
    d_w = np.array([ahead.sum(), ahead @ path[:-1], ahead @ rho_sq[:-1]])
    d_rho_sq = np.zeros(rho_sq.size)
    d_rho_sq[:-1] = w[2] * ahead
    return d_w, d_rho_sq, float(lam[0])


def _garch_likelihood(rho_sq: np.ndarray, var: float):
    """Gaussian negative log-likelihood of a GARCH(1,1) variance path started
    at ``var``, in theta = sqrt(omega), with its exact gradient from the
    same path: fun(theta) -> (nll, gradient), (inf, None) where the path is
    not positive and finite."""

    def fun(theta):
        w = np.square(theta)
        sig2 = garch_path(w, rho_sq, var)
        if sig2.min() <= 0 or not np.all(np.isfinite(sig2)):
            return np.inf, None
        nll = 0.5 * float(np.sum(np.log(sig2) + rho_sq / sig2))
        d_w, _, _ = garch_path_adjoint(w, rho_sq, sig2, 0.5 * (1.0 - rho_sq / sig2) / sig2)
        return nll, 2.0 * theta * d_w

    return fun


def fit_garch(rho) -> GARCHCoeffs:
    """GARCH(1,1) fit by Gaussian quasi-maximum-likelihood.

    Coefficients are carried as unconstrained square roots during the
    optimization to keep them non-negative.  The recursion is started at
    the sample variance of ``rho``.  The BFGS fit uses the exact gradient,
    the reverse-time adjoint of the variance recursion.

    Raises
    ------
    DegenerateSeries
        When ``rho`` is (nearly) constant.
    InvalidStart
        When the likelihood at the start is not finite (say, infinite variance).
    """
    rho = np.asarray(rho, dtype=float).ravel()
    var = float(np.var(rho))
    if rho.size < 20 or var <= 1e-12:
        raise DegenerateSeries("series too short or too flat for a GARCH fit")
    theta0 = np.sqrt([0.1 * var, 0.7, 0.15])
    result = minimize(_garch_likelihood(np.square(rho), var), theta0,
                      OptimizeSettings(max_iterations=200))
    w0, w1, w2 = np.square(result.x)
    return GARCHCoeffs(omega0=float(w0), omega1=float(w1), omega2=float(w2))


# ---------------------------------------------------------------------------
# Ljung-Box
# ---------------------------------------------------------------------------


def chi2_sf(q: float, dof: int) -> float:
    """Upper tail of the chi-squared distribution via the regularized
    upper incomplete gamma function."""
    if q < 0 or dof < 1:
        raise InvalidInput(f"need q >= 0 and dof >= 1, got q={q}, dof={dof}")
    return float(gammaincc(dof / 2.0, q / 2.0))


def ljung_box(x, lag: int) -> tuple[float, float]:
    """Ljung-Box portmanteau test for absence of autocorrelation up to ``lag``.

    Q = n (n+2) sum_{j<=k} rho_j^2 / (n-j), compared against chi-squared
    with k degrees of freedom.  Returns (Q, p_value).
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if not (1 <= lag < n):
        raise InvalidInput(f"lag must be in [1, n-1], got {lag} for n={n}")
    rho = acf(x, lag)
    q = n * (n + 2.0) * float(np.sum(np.square(rho) / (n - np.arange(1, lag + 1))))
    return q, chi2_sf(q, lag)
