"""Station-level ensemble/observation series: ingest, validate, impute, simulate.

A StationSeries holds one (station, lead time) daily series: observations,
the full member matrix and the derived ensemble mean/sd.  Values are
immutable after construction (arrays are marked read-only) and safe to
share across threads.

The synthetic generator produces series whose observations follow the same
seasonal-AR(-GARCH) recursions the postprocessing models assume, anchored
to an *ideal* forecast center/spread, while the delivered ensemble members
are bias- and dispersion-distorted forecasts of that ideal.  The truth
(mu, sigma) per date, the generating model's own forecast at the series'
lead time (``SyntheticTruth``), is returned alongside for oracle tests.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .errors import (
    DataError,
    ImputationFailure,
    InvalidConfig,
    InvalidEnsemble,
    InvalidInput,
    ParseError,
)
from .seasonal import PERIOD_DAYS, SeasonalCoeffs, seasonal_design
from .timeseries import (
    ARCoeffs,
    GARCHCoeffs,
    ar_forecast,
    garch_start,
    is_stationary,
    linear_recursion,
)

_DAY = np.timedelta64(1, "D")
_FLOAT_FMT = "%.9f"
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_BLOCK_ROWS = 256  # lines per np.loadtxt call or writer block: bounds the text held at once


def lead_time_offset(lead_time_h: int) -> int:
    """Number of most recent days unobservable at issuance: ceil(lead/24) - 1.

    A lead below 1 h would let a forecast see the observation it predicts."""
    if lead_time_h < 1:
        raise InvalidInput(f"lead time must be >= 1 h, got {lead_time_h} h")
    return int(np.ceil(lead_time_h / 24.0)) - 1


def time_index(dates, origin) -> np.ndarray:
    """Running day index with t = 1 at ``origin`` (first training date)."""
    dates = np.asarray(dates, dtype="datetime64[D]")
    origin = np.datetime64(origin, "D")
    return (dates - origin) / _DAY + 1.0


def day_of_year(dates) -> np.ndarray:
    dates = np.asarray(dates, dtype="datetime64[D]")
    years = dates.astype("datetime64[Y]")
    return ((dates - years) / _DAY).astype(int) + 1


@np.errstate(over="ignore", invalid="ignore")
def _member_stats(members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ensemble mean and sd (ddof 1): numpy's ``mean`` and ``std``, the same
    bits, ``_BLOCK_ROWS`` rows at a time, so no temporary is larger than a block."""
    mean, sd = np.empty(members.shape[0]), np.empty(members.shape[0])
    for lo in range(0, members.shape[0], _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        members[rows].mean(axis=1, out=mean[rows])
        members[rows].std(axis=1, ddof=1, out=sd[rows])
    return mean, sd


@dataclass(frozen=True)
class StationSeries:
    """Daily (station, lead time) series of observations and ensemble forecasts.

    ``build`` copies the arrays it is handed and freezes the copies; the
    loader and the generator hand their own fresh arrays over (``_own``),
    so each series holds one member array.  A series derived from another
    (``window``, ``impute_series``) shares its parent's frozen arrays, or
    views of them, instead of copying them.
    """

    station_id: str
    lead_time_h: int
    dates: np.ndarray   # datetime64[D], strictly increasing, daily step
    obs: np.ndarray     # float; NaN marks missing before imputation
    members: np.ndarray  # shape (n_days, m)
    ens_mean: np.ndarray
    ens_sd: np.ndarray

    @classmethod
    def build(cls, station_id: str, lead_time_h: int, dates, obs, members) -> "StationSeries":
        """Validate invariants, derive ensemble statistics and freeze arrays:
        copies of ``dates``, ``obs`` and ``members``, so the caller's stay its own."""
        return cls._own(station_id, lead_time_h, np.array(dates, dtype="datetime64[D]"),
                        np.array(obs, dtype=float), np.array(members, dtype=float))

    @classmethod
    def _own(cls, station_id, lead_time_h, dates, obs, members, stats=None) -> "StationSeries":
        """``build`` on arrays handed over, frozen without a copy; ``stats`` is
        ``_member_stats(members)`` when the caller has it, else computed here."""
        n = dates.size
        if n == 0:
            raise ParseError("series has no rows")
        if obs.shape != (n,) or members.ndim != 2 or members.shape[0] != n:
            raise ParseError("obs/member shapes do not match the date axis")
        if members.shape[1] < 2:
            raise InvalidEnsemble(f"need at least 2 members, got {members.shape[1]}")
        if n > 1:
            deltas = np.diff(dates)
            bad = np.nonzero(deltas != _DAY)[0]
            if bad.size:
                i = int(bad[0])
                kind = "duplicated or non-monotone" if deltas[i] <= np.timedelta64(0, "D") else "gapped"
                # i + 3: second date of the offending pair, counting the header row
                raise ParseError(f"{kind} dates at row {i + 3}: {dates[i]} -> {dates[i + 1]}")
        ens_mean, ens_sd = _member_stats(members) if stats is None else stats
        finite = np.isfinite(ens_mean) & np.isfinite(ens_sd)  # a non-finite member included
        if not finite.all():
            raise InvalidEnsemble("ensemble members, mean or sd not finite on "
                                  f"{dates[np.argmin(finite)]}")
        if np.any(ens_sd <= 0):
            i = int(np.argmax(ens_sd <= 0))
            raise InvalidEnsemble(f"degenerate ensemble (sd=0) on {dates[i]}")
        series = cls(str(station_id), int(lead_time_h), dates, obs, members, ens_mean, ens_sd)
        for arr in (dates, obs, members, ens_mean, ens_sd):
            arr.setflags(write=False)
        return series

    @property
    def n_days(self) -> int:
        return self.dates.size

    @property
    def n_members(self) -> int:
        return self.members.shape[1]

    def is_complete(self) -> bool:
        return bool(np.all(np.isfinite(self.obs)))

    def window(self, start=None, end=None) -> "StationSeries":
        """Sub-series with start <= date <= end (inclusive bounds, either optional).

        The dates are daily, so the window is one contiguous range of rows:
        its arrays are read-only views of this series' arrays, and its
        ensemble mean and sd, per-row values, are those rows of this
        series'.  An empty range raises build's ParseError.
        """
        lo = 0 if start is None else int(np.searchsorted(self.dates, np.datetime64(start, "D")))
        hi = self.n_days if end is None else int(
            np.searchsorted(self.dates, np.datetime64(end, "D"), side="right"))
        if lo >= hi:
            raise ParseError("series has no rows")
        rows = slice(lo, hi)
        return replace(self, dates=self.dates[rows], obs=self.obs[rows],
                       members=self.members[rows], ens_mean=self.ens_mean[rows],
                       ens_sd=self.ens_sd[rows])


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------


def impute_missing(obs, half_window: int = 4, decay: float = 0.5, max_gap: int = 3) -> np.ndarray:
    """Fill NaN gaps by symmetric exponentially weighted moving averaging.

    Each missing value becomes the weighted mean of the *observed* values
    within ``half_window`` days on either side, with weight decay**d at
    distance d.  Observed values are never touched, so imputing a complete
    series is the identity.

    Raises
    ------
    ImputationFailure
        If a gap exceeds ``max_gap`` consecutive days or a missing value
        has no observed neighbor within reach on one side.
    """
    obs = np.asarray(obs, dtype=float)
    out = obs.copy()
    if not (0.0 < decay < 1.0):
        raise ImputationFailure(f"decay must lie in (0, 1), got {decay}")
    if half_window < 1:
        raise ImputationFailure(f"half_window must be >= 1, got {half_window}")
    missing = np.nonzero(np.isnan(obs))[0]
    if missing.size == 0:
        return out
    # reject gaps longer than the station-selection rule allows
    run = 1
    for prev, cur in zip(missing[:-1], missing[1:]):
        run = run + 1 if cur == prev + 1 else 1
        if run > max_gap:
            raise ImputationFailure(f"gap longer than {max_gap} days ending at index {cur}")
    n = obs.size
    for i in missing:
        wsum = 0.0
        vsum = 0.0
        seen_left = seen_right = False
        for d in range(1, half_window + 1):
            if i - d >= 0 and np.isfinite(obs[i - d]):
                w = decay ** d
                wsum += w
                vsum += w * obs[i - d]
                seen_left = True
            if i + d < n and np.isfinite(obs[i + d]):
                w = decay ** d
                wsum += w
                vsum += w * obs[i + d]
                seen_right = True
        if not (seen_left and seen_right):
            raise ImputationFailure(
                f"no observed value within {half_window} days on "
                f"{'the left' if not seen_left else 'the right'} of index {i}"
            )
        out[i] = vsum / wsum
    return out


def impute_series(series: StationSeries) -> StationSeries:
    """``series`` with missing observations imputed: a new frozen ``obs``,
    and every other array shared with ``series``."""
    if series.is_complete():
        return series
    obs = impute_missing(series.obs)
    obs.setflags(write=False)
    return replace(series, obs=obs)


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------


def row_template(cells) -> str:
    """``csv.writer``'s line for ``cells``: text with its ``%`` doubled, value
    slots as ``%`` formats.  One ``%`` on it writes ``csv.writer``'s row for
    values that need no quoting."""
    layout = io.StringIO()
    csv.writer(layout).writerow(cells)
    return layout.getvalue()


def write_station_csv(series: StationSeries, path) -> None:
    """Write one series in the canonical CSV schema.

    Header ``station_id,date,lead_time_h,obs,m1,...,m{M}``; empty obs field
    marks a missing observation.  Nine decimals, so a write/read round
    trip preserves values to 1e-9.  The bytes are those ``csv.writer``
    writes row by row (``\\r\\n`` line ends, a station id quoted where it
    holds a comma, quote or line break); each row is one ``%`` on a
    ``row_template``, formatted ``_BLOCK_ROWS`` rows at a time.
    """
    m = series.n_members
    template = row_template([series.station_id.replace("%", "%%"), "%s",
                             series.lead_time_h, "%s"] + [_FLOAT_FMT] * m)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "date", "lead_time_h", "obs"]
                        + [f"m{i + 1}" for i in range(m)])
        for lo in range(0, series.n_days, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            obs = ["" if np.isnan(v) else _FLOAT_FMT % v for v in series.obs[rows].tolist()]
            fh.writelines(template % (date, obs_text, *row) for date, obs_text, row in zip(
                series.dates[rows].astype(str).tolist(), obs, series.members[rows].tolist()))


def parse_iso_dates(texts) -> np.ndarray:
    """datetime64[D] array of ``texts``, each a ``YYYY-MM-DD`` calendar date.

    Raises ValueError on any other text, including what numpy alone would
    read as a date (``NaT``, ``today``, ``2015-01``, ``2015-01-01T12``), so
    that every accepted text is exactly how the date is written back.
    """
    if not all(map(_ISO_DATE.fullmatch, texts)):
        raise ValueError("dates must be written YYYY-MM-DD")
    return np.array(texts, dtype="datetime64[D]")


def _parse_float(text: str, row: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}: cannot parse {col} value {text!r}") from None
    if not np.isfinite(value):
        raise ParseError(f"row {row}: non-finite {col} value {text!r}")
    return value


def _member_count(reader) -> int:
    """Check the header row and return the number of member columns."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file: missing header") from None
    if header[:4] != ["station_id", "date", "lead_time_h", "obs"]:
        raise ParseError(f"row 1: header must start with station_id,date,lead_time_h,obs, got {header[:4]}")
    member_cols = header[4:]
    if not member_cols or member_cols != [f"m{i + 1}" for i in range(len(member_cols))]:
        raise ParseError("row 1: member columns must be m1..mM in order")
    return len(member_cols)


def _convert_rows(fh, m: int, station_id, lead_time_h):
    """Convert the data rows one cell at a time, naming the first bad one.

    The reference for ``_convert_blocks``: both return (key, dates, obs,
    members) for the rows that pass the filters, and this one raises the
    ParseError of the first row that cannot be read.
    """
    dates, obs, members = [], [], []
    keys = set()
    for row_no, row in enumerate(csv.reader(fh), start=2):
        if not row:
            continue
        if len(row) != 4 + m:
            raise ParseError(f"row {row_no}: expected {4 + m} fields, got {len(row)}")
        sid, date_text, lead_text = row[0], row[1], row[2]
        lead = _parse_float(lead_text, row_no, "lead_time_h")
        if lead != int(lead):
            raise ParseError(f"row {row_no}: non-integral lead_time_h value {lead_text!r}")
        lead = int(lead)
        if station_id is not None and sid != station_id:
            continue
        if lead_time_h is not None and lead != int(lead_time_h):
            continue
        keys.add((sid, lead))
        if len(keys) > 1:
            raise ParseError(
                f"row {row_no}: file mixes {sorted(keys)}; pass station_id/lead_time_h filters"
            )
        try:
            dates.append(parse_iso_dates([date_text])[0])
        except ValueError:
            raise ParseError(f"row {row_no}: invalid ISO date {date_text!r}") from None
        obs.append(np.nan if row[3] == "" else _parse_float(row[3], row_no, "obs"))
        members.append([_parse_float(v, row_no, f"m{j + 1}") for j, v in enumerate(row[4:])])
    if not dates:
        raise ParseError(f"no rows match station_id={station_id!r}, lead_time_h={lead_time_h!r}")
    key, = keys
    return key, np.array(dates, dtype="datetime64[D]"), np.array(obs), np.array(members)


def _csv_alike(lines) -> bool:
    """Whether numpy's tokenizer reads ``lines`` as ``csv.reader`` and
    ``float`` do: no line past csv's field size limit or ending inside
    quotes (a field spanning lines, which only the row path checks against
    that limit), and no \\x1c-\\x1f, which numpy's float parser strips as
    space around a number and ``float`` rejects."""
    text = "".join(lines)
    return not (max(map(len, lines)) > csv.field_size_limit()
                or ('"' in text and any(line.count('"') % 2 for line in lines))
                or any(char in text for char in "\x1c\x1d\x1e\x1f"))


def _convert_blocks(fh, m: int, station_id, lead_time_h):
    """``_convert_rows`` through numpy's C tokenizer, ``_BLOCK_ROWS`` lines at
    a time.

    ``np.loadtxt`` splits a block whose lines are ``_csv_alike`` as
    ``csv.reader`` does (``"`` quotes, empty lines skipped, no comments)
    into four text columns and the float members; the text columns then get
    ``_convert_rows``'s checks.  Raises ValueError wherever
    ``_convert_rows`` would raise, without naming the row: the caller then
    re-reads the file with ``_convert_rows``, whose message does.
    """
    dtype = np.dtype([(name, object) for name in ("station_id", "date", "lead_time_h", "obs")]
                     + [("members", float, (m,))])
    want_lead = None if lead_time_h is None else int(lead_time_h)
    keys = set()
    dates, obs, n_kept = [], [], 0
    members = np.empty((sum(1 for _ in fh), m))  # a row per line at most
    fh.seek(0)
    next(fh)  # the header: one line, as _member_count accepted it
    for lines in iter(lambda: list(islice(fh, _BLOCK_ROWS)), []):
        if not _csv_alike(lines):
            raise ValueError("lines that csv or float may read otherwise")
        with warnings.catch_warnings():  # loadtxt warns on a block of blank lines only
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            block = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                               ndmin=1)
        lead_values = np.array(block["lead_time_h"].tolist(), dtype=float)
        if not np.isfinite(lead_values).all():
            raise ValueError("non-finite lead time")
        leads = list(map(int, lead_values.tolist()))
        if leads != lead_values.tolist():  # Python ints, compared exactly as _convert_rows does
            raise ValueError("non-integral lead time")
        sids = block["station_id"].tolist()
        kept = [i for i, (sid, lead) in enumerate(zip(sids, leads))
                if (station_id is None or sid == station_id)
                and (want_lead is None or lead == want_lead)]
        keys.update((sids[i], leads[i]) for i in kept)
        rows = block[kept]
        dates.append(parse_iso_dates(rows["date"].tolist()))
        obs_texts = rows["obs"].tolist()
        missing = np.array([text == "" for text in obs_texts], dtype=bool)
        obs.append(np.array([text or "nan" for text in obs_texts], dtype=float))
        if not (np.isfinite(obs[-1][~missing]).all() and np.isfinite(rows["members"]).all()):
            raise ValueError("non-finite value")
        members[n_kept:n_kept + len(rows)] = rows["members"]
        n_kept += len(rows)
    key, = keys  # a ValueError unless exactly one (station, lead) pair was kept
    members.resize((n_kept, m), refcheck=False)  # in place: no view of it is left
    return key, np.concatenate(dates), np.concatenate(obs), members


def _read_station_csv(path, convert, station_id, lead_time_h) -> StationSeries:
    """Read ``path`` with the row converter ``convert`` and build the series;
    a data error of the build is raised again, as its own class, naming the
    file."""
    try:
        with open(path, newline="") as fh:
            m = _member_count(csv.reader(fh))
            (sid, lead), dates, obs, members = convert(fh, m, station_id, lead_time_h)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        return StationSeries._own(sid, lead, dates, obs, members)
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_station_csv(path, station_id: str | None = None,
                     lead_time_h: int | None = None) -> StationSeries:
    """Load one (station, lead time) series from a CSV file.

    Files may mix stations and lead times; pass the filters to select one
    combination.  The loaded series must resolve to exactly one
    (station_id, lead_time_h) pair, have strictly increasing gap-free daily
    dates written ``YYYY-MM-DD``, and a constant member count.  Missing obs
    fields become NaN and are left for imputation.

    numpy's C tokenizer (``np.loadtxt``) splits the records and converts
    the members a block at a time into one array, sized by the file's line
    count and trimmed in place to the rows kept; the series owns it.  A
    file that does not convert so is read again one cell at a time
    (``csv.reader`` and ``float``), which raises a ParseError naming the
    first offending row, column and value (rows filtered out are checked
    only for their field count and lead time).  A file that cannot be
    opened, decoded or split into CSV records is a DataError.
    """
    try:
        return _read_station_csv(path, _convert_blocks, station_id, lead_time_h)
    except ValueError:
        return _read_station_csv(path, _convert_rows, station_id, lead_time_h)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticConfig:
    """Data-generating process for one synthetic station.

    The ideal forecast center follows a seasonal cycle plus AR(1) weather
    noise; the ideal spread follows a strictly positive seasonal cycle.
    Members are drawn around the ideal center with ``ens_bias`` added and
    the spread scaled by ``ens_dispersion`` (values < 1 produce the
    underdispersion typical of raw ensembles).  Observations follow the
    configured seasonal model exactly, driven by the bias/dispersion-
    corrected realized ensemble statistics xbar - ens_bias and
    s / ens_dispersion:

    the errors x(t) = (y(t) - mu_S(t)) / d(t) follow an AR(p) around eta with
    innovations (sigma_S / d) * sigma_G * z, z standard normal; y = mu_S + d x.

    * ``standardized_ar=False``: d = 1 (mean errors); ``garch=None`` fixes
      the GARCH factor sigma_G = 1.
    * ``standardized_ar=True``: d = sigma_S (standardized errors), sigma_G = 1.

    With ``ens_bias=0`` and ``ens_dispersion=1`` the configured
    coefficients are therefore the exact regression truth for the
    delivered ensemble; nonzero distortions shift the truth in closed form
    (location intercept by -a1 * ens_bias, scale slope by a factor
    1 / ens_dispersion) while leaving the raw ensemble biased and
    misdispersed against the observations.
    """

    n_days: int = 1826
    m: int = 50
    seed: int = 0
    station_id: str = "S01"
    lead_time_h: int = 24
    start_date: str = "2015-01-01"
    # truth coefficients of the postprocessing model
    loc: SeasonalCoeffs = field(default_factory=lambda: SeasonalCoeffs(
        intercept=0.0, slope=1.0, fourier_intercept=(2.0, 1.0, 0.3, 0.2)))
    scale: SeasonalCoeffs = field(default_factory=lambda: SeasonalCoeffs(
        intercept=-0.3, slope=0.3, fourier_intercept=(0.15, 0.1, 0.0, 0.0)))
    ar: ARCoeffs = field(default_factory=lambda: ARCoeffs(p=1, eta=0.0, tau=(0.6,)))
    garch: GARCHCoeffs | None = None
    standardized_ar: bool = False
    # ensemble distortion
    ens_bias: float = 0.0
    ens_dispersion: float = 1.0
    # ideal forecast process
    clim_amp: float = 8.0
    weather_ar: float = 0.7
    weather_sd: float = 2.0
    spread_amp: float = 0.4

    def validate(self) -> None:
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.ens_bias) and np.isfinite(self.ens_dispersion)):
            raise InvalidConfig("ens_bias and ens_dispersion must be finite")
        if self.n_days < 2:
            raise InvalidConfig("n_days must be >= 2")
        if self.lead_time_h < 1:
            raise InvalidConfig(f"lead time must be >= 1 h, got {self.lead_time_h} h")
        if self.m < 2:
            raise InvalidConfig("need at least 2 ensemble members")
        if self.ens_dispersion <= 0:
            raise InvalidConfig("ens_dispersion must be > 0")
        if self.spread_amp < 0:
            raise InvalidConfig("spread cycle must stay positive")
        if not (0 <= abs(self.weather_ar) < 1):
            raise InvalidConfig(f"weather AR coefficient {self.weather_ar} is nonstationary")
        if not is_stationary(self.ar.tau):
            raise InvalidConfig(f"AR coefficients {self.ar.tau} are nonstationary")
        if self.garch is not None and self.garch.omega1 + self.garch.omega2 >= 1.0:
            raise InvalidConfig("GARCH persistence omega1 + omega2 must be < 1")
        if self.garch is not None and self.standardized_ar:
            raise InvalidConfig("GARCH applies to the deseasonalized-error process only")


@dataclass(frozen=True)
class SyntheticTruth:
    """The generating model's forecast per date at the series' lead time,
    ``models.predict`` at the true coefficients: too narrow past 24 h, and
    with GARCH the k >= 1 conditional is a scale mixture, which a Gaussian
    matches in moments at best."""

    mu: np.ndarray              # (k+1)-step conditional mean, k = lead_time_offset
    sigma: np.ndarray           # one-step sigma_S times the bridged sigma_G
    mu_seasonal: np.ndarray     # seasonal location component mu_S(t)
    sigma_seasonal: np.ndarray  # seasonal scale component sigma_S(t)


_BURN = 300
# the ideal forecast's seasonal cycles: center _CLIM_MEAN + clim_amp sin(omega t
# + _CLIM_PHASE), spread _SPREAD_BASE + spread_amp (1 + sin(omega t + _SPREAD_PHASE)) / 2
_CLIM_MEAN, _CLIM_PHASE = 10.0, -1.9
_SPREAD_BASE, _SPREAD_PHASE = 1.0, 0.8


@np.errstate(over="ignore", invalid="ignore")
def generate_synthetic(cfg: SyntheticConfig) -> tuple[StationSeries, SyntheticTruth]:
    """Draw one synthetic station series plus its truth at its lead time.

    Bit-reproducible for a fixed seed.  See SyntheticConfig for the model.
    The weather AR, the error AR around eta and the GARCH variance each
    run over burn-in and series as one ``linear_recursion``, the kernel of
    the models' GARCH path.  The series owns the members drawn, and the
    ensemble mean and sd that drive the observations, without a copy.  A draw
    that overflows (an ensemble distortion near the float range) raises
    InvalidConfig.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_days
    dates = np.datetime64(cfg.start_date, "D") + np.arange(n) * _DAY
    t = time_index(dates, cfg.start_date)
    omega = 2.0 * np.pi / PERIOD_DAYS

    # ideal forecast center and spread
    w_innov = rng.standard_normal(n + _BURN) * cfg.weather_sd
    weather = linear_recursion([cfg.weather_ar], w_innov)[_BURN:]
    center = _CLIM_MEAN + cfg.clim_amp * np.sin(omega * t + _CLIM_PHASE) + weather
    spread = _SPREAD_BASE + cfg.spread_amp * 0.5 * (1.0 + np.sin(omega * t + _SPREAD_PHASE))

    # distorted ensemble around the ideal, scaled and shifted in place
    members = rng.standard_normal((n, cfg.m))
    members *= cfg.ens_dispersion * spread[:, None]
    members += (center + cfg.ens_bias)[:, None]

    # observation process driven by the distortion-corrected realized statistics
    xbar, s = _member_stats(members)
    mu_s = seasonal_design(t, xbar - cfg.ens_bias) @ cfg.loc.as_vector()
    sigma_s = np.exp(seasonal_design(t, s / cfg.ens_dispersion) @ cfg.scale.as_vector())
    z = rng.standard_normal(n + _BURN)

    # one AR on x = (y - mu_S) / d with innovations innov_scale * sigma_G * z
    if cfg.standardized_ar:
        d, innov_scale = sigma_s, np.ones(n)
    else:
        d, innov_scale = np.ones(n), sigma_s
    sig_g = np.ones(n + _BURN)
    if cfg.garch is not None:
        g = cfg.garch
        # sigma_G^2(i) = omega0 + (omega1 + omega2 z(i-1)^2) sigma_G^2(i-1);
        # step 0 has no predecessor, so its coefficient is not read; it
        # starts where the truth's GARCH path does
        drive = np.full(n + _BURN, g.omega0)
        drive[0] = garch_start((g.omega0, g.omega1, g.omega2))
        z_prev = np.concatenate(([0.0], z[:-1]))
        sig_g = np.sqrt(linear_recursion([g.omega1 + g.omega2 * np.square(z_prev)], drive))
    # the innovation scale during burn-in is frozen at day 0's
    scale_path = np.concatenate([np.full(_BURN, innov_scale[0]), innov_scale])
    x_path = cfg.ar.eta + linear_recursion(np.asarray(cfg.ar.tau, dtype=float),
                                           scale_path * (sig_g * z))
    y = mu_s + d * x_path[_BURN:]
    i = _BURN + np.arange(n)  # the truth forecasts x_path[i] from before i - k
    h = np.maximum(i - lead_time_offset(cfg.lead_time_h), 0)
    x_hat, sig_hat = ar_forecast(cfg.ar, cfg.garch, x_path, scale_path, h, i)
    truth = SyntheticTruth(mu=mu_s + d * x_hat, sigma=sigma_s * sig_hat,
                           mu_seasonal=mu_s, sigma_seasonal=sigma_s)

    if not all(np.isfinite(v).all() for v in (y, truth.mu, truth.sigma)):
        raise InvalidConfig(f"ens_bias {cfg.ens_bias} and ens_dispersion {cfg.ens_dispersion} "
                            "give a draw that is not finite")
    series = StationSeries._own(cfg.station_id, cfg.lead_time_h, dates, y, members, (xbar, s))
    for arr in (truth.mu, truth.sigma, truth.mu_seasonal, truth.sigma_seasonal):
        arr.setflags(write=False)
    return series, truth


def write_truth_csv(dates, truth: SyntheticTruth, path) -> None:
    """Sidecar with the truth (``SyntheticTruth``), one row per date: the bytes
    of ``csv.writer``, each row one ``%`` on a ``row_template``, formatted
    ``_BLOCK_ROWS`` rows at a time."""
    template = row_template(["%s"] + [_FLOAT_FMT] * 4)
    dates = np.asarray(dates, dtype="datetime64[D]")
    columns = (truth.mu, truth.sigma, truth.mu_seasonal, truth.sigma_seasonal)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["date", "mu", "sigma", "mu_seasonal", "sigma_seasonal"])
        for lo in range(0, dates.size, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            fh.writelines(template % row for row in zip(
                dates[rows].astype(str).tolist(), *(column[rows].tolist() for column in columns)))
