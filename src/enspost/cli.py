"""Command-line entry point: simulate | fit | predict | verify.

Runs are driven by a flat key=value config file, which takes every key;
each subcommand takes the flags of the keys it reads (flags win).  One
table, ``_COMMANDS``, lists them and the options a subcommand cannot run
without.  Exit codes: 0 success, 2 config error, 3 data error, 4 numerical
failure.  Errors print a single machine-parsable line
``error[<kind>]: message`` to stderr.

Each output file is written when computed, into a stage ``.<out>.*`` in the
first existing one of ``--out`` and its ancestors, and moved into ``--out`` on
success only: a failure removes the stage, and an I/O error is a data error.

Every table goes through ``data.write_csv_rows``.  This module lays out all but
the station and truth files, which ``data`` also reads: ``predictions.csv`` and
verify's ``scores.csv``, ``scores_raw_ensemble.csv``, ``dm_matrix.csv``,
``pit_summary.csv`` and ``residual_dependence.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from . import models as model_api
from .data import (
    TABLE_DECIMALS,
    SyntheticConfig,
    generate_synthetic,
    impute_series,
    load_station_csv,
    parse_iso_dates,
    write_csv_rows,
    write_station_csv,
    write_truth_csv,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    EnspostError,
    InvalidInput,
    NumericError,
    ParseError,
)
from .models import MODEL_KINDS, SEASONAL_KINDS, FittedModel, training_residuals
from .optimize import OptimizeSettings
from .scoring import ScoreSample, crps_ensemble, m_member_level, score_cases
from .seasonal import SeasonalCoeffs
from .timeseries import ARCoeffs, GARCHCoeffs
from .verify import (
    ScoreTable,
    SignificanceMatrix,
    pit_histogram,
    residual_dependence_table,
    significance_matrix,
)

_CANONICAL_KINDS = {kind.lower(): kind for kind in MODEL_KINDS}
_DGP_KINDS = ("sar", "dar", "dar-garch")

_PREDICTIONS_HEADER = ["model", "station_id", "lead_time_h", "date", "mu", "sigma"]
_SCORES_HEADER = ["method", "station_id", "lead_time_h", "n", "mean_crps", "mean_logs", "rmse",
                  "mean_width", "coverage_pct"]  # ScoreRow fields, each a column


@dataclass
class RunConfig:
    """Resolved run configuration shared by the subcommands."""

    data: str | None = None
    out: str | None = None
    models: list[str] = field(default_factory=lambda: list(MODEL_KINDS))
    leads: list[int] = field(default_factory=lambda: [24])
    stations: list[str] | None = None
    train_start: str | None = None
    train_end: str | None = None
    valid_start: str | None = None
    valid_end: str | None = None
    seed: int = 0
    max_iter: int = 500
    models_dir: str | None = None
    predictions: str | None = None
    # synthetic generation
    n_days: int = 2192
    n_stations: int = 1
    m_members: int = 50
    start_date: str = "2015-01-01"
    dgp: str = "sar"
    ens_bias: float = 1.5
    ens_dispersion: float = 0.6


def parse_config_file(path) -> dict:
    """Flat key = value format; blank lines and # comments ignored."""
    values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _canonical_models(names: list[str]) -> list[str]:
    if names in (["all"], ["ALL"]):
        return list(MODEL_KINDS)
    out = []
    for name in names:
        kind = _CANONICAL_KINDS.get(name.lower())
        if kind is None:
            raise ConfigError(f"unknown model {name!r}; known: {', '.join(MODEL_KINDS)}")
        out.append(kind)
    if not out:
        raise ConfigError("at least one model must be selected")
    return list(dict.fromkeys(out))  # a model named twice is selected once


def _parse_number(kind, key: str, value: str):
    """int(value) or float(value); a malformed value is a ConfigError."""
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None


_FIELD_TYPES = get_type_hints(RunConfig)


def _assign(cfg: RunConfig, key: str, text: str) -> None:
    """Set field ``key`` of ``cfg`` (``lead`` for ``leads``) from its text in a
    config file or a flag; models, leads and stations are comma lists."""
    key = "leads" if key == "lead" else key
    if key not in _FIELD_TYPES:  # a field, not a method such as settings
        raise ConfigError(f"unknown config key {key!r}")
    items = [v.strip() for v in text.split(",") if v.strip()]
    if _FIELD_TYPES[key] in (int, float):
        value = _parse_number(_FIELD_TYPES[key], key, text)
    elif key == "models":
        value = _canonical_models(items)
    elif key == "leads":
        value = [_parse_number(int, "lead", v) for v in items]
    elif key == "stations":
        value = items
    else:
        value = text
    setattr(cfg, key, value)


def build_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, then the flags given, through ``_assign``;
    validated, then checked for the options ``args.command`` cannot run without."""
    cfg = RunConfig()
    if args.config:
        for key, text in parse_config_file(args.config).items():
            _assign(cfg, key, text)
    for key, text in vars(args).items():  # the subcommand's flags, in table order
        if key not in ("command", "config") and text is not None:
            _assign(cfg, key, text)
    validate_config(cfg)
    for flag in _COMMANDS[args.command].required:
        if not getattr(cfg, flag.replace("-", "_")):
            raise ConfigError(f"{args.command} needs --{flag}")
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if not cfg.models:
        raise ConfigError("at least one model must be selected")
    if cfg.dgp not in _DGP_KINDS:
        raise ConfigError(f"dgp must be one of {_DGP_KINDS}, got {cfg.dgp!r}")
    if cfg.max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    if any(lead < 1 for lead in cfg.leads):
        raise ConfigError(f"lead times must be >= 1 h, got {cfg.leads}")
    if len(set(cfg.leads)) < len(cfg.leads):
        raise ConfigError(f"lead times must be distinct, got {cfg.leads}")
    if cfg.n_stations < 1:
        raise ConfigError("n_stations must be >= 1")
    for name in ("train_start", "train_end", "valid_start", "valid_end", "start_date"):
        value = getattr(cfg, name)
        if value is not None:
            try:  # YYYY-MM-DD only: numpy alone reads "2015" or "today" as a date
                parse_iso_dates([value])
            except ValueError:
                raise ConfigError(f"{name} is not an ISO date: {value!r}") from None
    if cfg.train_start and cfg.train_end and cfg.train_start > cfg.train_end:
        raise ConfigError("train_start must not be after train_end")
    if cfg.valid_start and cfg.valid_end and cfg.valid_start > cfg.valid_end:
        raise ConfigError("valid_start must not be after valid_end")
    if cfg.train_end and cfg.valid_start and cfg.valid_start <= cfg.train_end:
        raise ConfigError("validation range must start after the training range ends")


# ---------------------------------------------------------------------------
# synthetic world used by `simulate`
# ---------------------------------------------------------------------------


def synthetic_config(cfg: RunConfig, station_index: int, lead_index: int) -> SyntheticConfig:
    """Per-(station, lead) generation config; sub-seed derived from the run seed.
    An AR(1) on standardized errors (sar) or mean errors (dar; dar-garch adds GARCH)."""
    return SyntheticConfig(
        n_days=cfg.n_days,
        m=cfg.m_members,
        seed=cfg.seed + 1000 * station_index + lead_index,
        station_id=f"S{station_index + 1:02d}",
        lead_time_h=cfg.leads[lead_index],
        start_date=cfg.start_date,
        ens_bias=cfg.ens_bias,
        ens_dispersion=cfg.ens_dispersion,
        loc=SeasonalCoeffs(0.0, 1.0, (2.0, 1.0, 0.3, 0.2)),
        scale=SeasonalCoeffs(-0.1, 0.25, (0.15, 0.1, 0.0, 0.0)),
        ar=ARCoeffs(1, 0.0, (0.6,)),
        garch=GARCHCoeffs(0.1, 0.55, 0.35) if cfg.dgp == "dar-garch" else None,
        standardized_ar=cfg.dgp == "sar",
    )


@contextlib.contextmanager
def _staged(out: Path):
    """The stage of ``out`` and its commit, as the module docstring says."""
    try:
        anchor = next(filter(Path.exists, [out.absolute(), *out.absolute().parents]))
        with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=anchor) as stage:
            yield Path(stage)
            if clash := [out / p.name for p in Path(stage).iterdir() if (out / p.name).is_dir()]:
                raise DataError(f"cannot write {out}: {clash[0]} is a directory")  # no move yet
            out.mkdir(parents=True, exist_ok=True)
            for path in Path(stage).iterdir():
                path.replace(out / path.name)
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from None


def cmd_simulate(cfg: RunConfig) -> int:
    if not cfg.leads:  # fit, predict and verify read no leads as every lead
        raise ConfigError("simulate needs at least one lead time")
    with _staged(Path(cfg.out)) as stage:
        for si, li in np.ndindex(cfg.n_stations, len(cfg.leads)):
            syn = synthetic_config(cfg, si, li)
            cell = f"{syn.station_id}_{syn.lead_time_h}h"
            series, truth = generate_synthetic(syn)
            write_station_csv(series, stage / f"station_{cell}.csv")
            write_truth_csv(series.dates, truth, stage / f"truth_{cell}.csv")
            print(f"simulate: drew {syn.station_id} lead {syn.lead_time_h}h "
                  f"({series.n_days} days, {series.n_members} members)")
            del series, truth  # one cell's draw alive at a time
    return 0


# ---------------------------------------------------------------------------
# fit / predict / verify
# ---------------------------------------------------------------------------


def discover_cases(cfg: RunConfig) -> list[tuple[str, int, Path]]:
    """All (station, lead, file) combinations in the data directory that
    match the configured filters, in (station, lead) order."""
    root = Path(cfg.data)
    if not root.is_dir():
        raise DataError(f"data directory {root} does not exist")
    cases = []
    named = {}  # (station, lead) -> the file that names it
    for path in sorted(root.glob("station_*.csv")):
        stem = path.stem[len("station_"):]
        station, _, lead_part = stem.rpartition("_")
        if not station or not lead_part.endswith("h"):
            raise DataError(f"cannot parse station/lead from file name {path.name}")
        try:
            lead = int(lead_part[:-1])
        except ValueError:
            raise DataError(f"cannot parse the lead time from file name {path.name}") from None
        if lead < 1:  # a forecast below 1 h would read the observation it predicts
            raise DataError(f"lead time must be >= 1 h, got {lead} h in file name {path.name}")
        if (station, lead) in named:  # fit would write one fit file for both
            raise DataError(f"file names {named[(station, lead)]} and {path.name} "
                            f"both name ({station}, {lead}h)")
        named[(station, lead)] = path.name
        if cfg.stations is not None and station not in cfg.stations:
            continue
        if cfg.leads and lead not in cfg.leads:
            continue
        cases.append((station, lead, path))
    if not cases:
        raise DataError(f"no station files in {root} match the filters")
    return sorted(cases, key=lambda case: case[:2])  # leads as numbers: 24 before 120


def _load_case(path: Path, station: str, lead: int):
    series = load_station_csv(path, station_id=station, lead_time_h=lead)
    return impute_series(series)


def _fit_path(out: Path, kind: str, station: str, lead: int) -> Path:
    return out / f"fit_{kind}_{station}_{lead}h.json"


def _load_fit(models_dir: Path, kind: str, station: str, lead: int) -> FittedModel | None:
    """The fit file of (kind, station, lead), None when absent; a DataError
    naming it when its kind, or its recorded station or lead, differs."""
    path = _fit_path(models_dir, kind, station, lead)
    if not path.exists():
        return None
    fitted = FittedModel.load(path)
    found = (fitted.kind, fitted.meta.get("station_id", station),
             fitted.meta.get("lead_time_h", lead))
    if found != (kind, station, lead):
        raise DataError(f"fitted model {path} holds {found[0]} for ({found[1]}, {found[2]}h), "
                        f"not {kind} for ({station}, {lead}h)")
    return fitted


def _in_range(series, name: str, start: str, end: str):
    """``series.window(start, end)``; a range without rows is a DataError
    naming the ``name`` range and the cell."""
    try:
        return series.window(start, end)
    except ParseError:
        raise DataError(f"{name} range [{start}, {end}] contains no data for "
                        f"({series.station_id}, {series.lead_time_h}h)") from None


def cmd_fit(cfg: RunConfig) -> int:
    settings = OptimizeSettings(max_iterations=cfg.max_iter)
    warning_count = 0
    with _staged(Path(cfg.out)) as stage:
        for station, lead, path in discover_cases(cfg):
            series = _load_case(path, station, lead)
            train = _in_range(series, "training", cfg.train_start, cfg.train_end)
            for kind in cfg.models:
                if kind in SEASONAL_KINDS:
                    fitted = model_api.fit(kind, train, settings=settings)
                else:
                    fitted = model_api.fit(kind, train)
                fitted.save(_fit_path(stage, kind, station, lead))
                converged = fitted.meta.get("converged", True)
                if not converged:
                    warning_count += 1
                    print(f"fit: warning: {kind} on ({station}, {lead}h) did not converge",
                          file=sys.stderr)
                crps = fitted.meta.get("train_crps")
                crps_text = "" if crps is None else f" train CRPS {crps:.4f}"
                print(f"fit: {kind} ({station}, {lead}h) converged={converged}{crps_text}")
            del series, train  # one cell's member array alive at a time
    if warning_count:
        print(f"fit: {warning_count} fit(s) flagged non-converged", file=sys.stderr)
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    models_dir = Path(cfg.models_dir)
    cells = {kind: [] for kind in cfg.models}  # each cell's (station, lead, dates, mu, sigma)
    with _staged(Path(cfg.out)) as stage:
        for station, lead, path in discover_cases(cfg):
            series = _load_case(path, station, lead)
            dates = _in_range(series, "validation", cfg.valid_start, cfg.valid_end).dates.copy()
            for kind in cfg.models:
                fitted = _load_fit(models_dir, kind, station, lead)
                if fitted is None:
                    raise DataError("missing fitted model "
                                    f"{_fit_path(models_dir, kind, station, lead)}")
                cells[kind].append((station, lead, dates,
                                    *model_api.predict(fitted, series, dates)))
            del series  # one cell's member array alive at a time
        write_csv_rows(stage / "predictions.csv", _PREDICTIONS_HEADER, [], TABLE_DECIMALS)
        for kind in sorted(cfg.models):  # rows in (kind, station, lead, date) order
            for cell in cells[kind]:
                write_csv_rows(stage / "predictions.csv", None, [kind, *cell], TABLE_DECIMALS, "a")
    n_rows = sum(cell[2].size for kind_cells in cells.values() for cell in kind_cells)
    print(f"predict: wrote {n_rows} rows to {Path(cfg.out) / 'predictions.csv'}")
    return 0


def load_predictions(path) -> dict:
    """predictions.csv -> {(model, station, lead): (dates, mu, sigma)}, keys in
    order of first appearance, dates ascending.

    A row that does not parse (not six fields, a lead that is not an
    integer, a date not written YYYY-MM-DD, a value ``float`` cannot read)
    or that repeats an earlier (model, station, lead, date) is a DataError
    naming its line; a file that cannot be read is one where the row loop
    meets the fault.  Each distinct date text is parsed once.  A date has
    one YYYY-MM-DD text and those texts sort in date order, so rows are
    grouped and sorted by the text.
    """
    grouped = {}
    dates = {}  # date text -> datetime64, for the texts that parse
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != _PREDICTIONS_HEADER:
                raise DataError(f"unexpected predictions header {header}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    model, station, lead, day, mu, sigma = row  # ValueError unless six fields
                    key = (model, station, int(lead))
                    if day not in dates:
                        dates[day] = parse_iso_dates([day])[0]
                    entry = (float(mu), float(sigma))
                except ValueError:
                    raise DataError(f"{path}:{line_no}: cannot parse prediction row {row}") from None
                by_day = grouped.setdefault(key, {})
                if day in by_day:
                    raise DataError(f"{path}:{line_no}: repeated prediction row {row}")
                by_day[day] = entry
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read predictions file {path}: {exc}") from None
    out = {}
    for key, by_day in grouped.items():
        days = sorted(by_day)
        mu, sigma = np.array([by_day[d] for d in days]).T.copy()
        out[key] = (np.array([dates[d] for d in days], dtype="datetime64[D]"), mu, sigma)
    return out


def _write_score_table(path: Path, table: ScoreTable) -> None:
    """A ``ScoreTable`` as ``scores.csv`` lays it out: a row per cell, a None field empty."""
    rows = table.rows
    write_csv_rows(path, _SCORES_HEADER,
                   [[getattr(r, f) for r in rows] for f in _SCORES_HEADER[:4]]
                   + [np.array([getattr(r, f) for r in rows], float)  # None: NaN, empty
                      for f in _SCORES_HEADER[4:]], TABLE_DECIMALS)


def _write_dm_matrix(path: Path, matrix: SignificanceMatrix) -> None:
    """A ``SignificanceMatrix`` as ``dm_matrix.csv``: a row and a column per method."""
    write_csv_rows(path, ["method", *matrix.methods], [matrix.methods, matrix.percent],
                   TABLE_DECIMALS)


def cmd_verify(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    predictions = load_predictions(cfg.predictions)
    if not predictions:
        raise DataError("predictions file is empty")

    cases = {(station, lead): path for station, lead, path in discover_cases(cfg)}
    unknown = {key[0] for key in predictions} - set(MODEL_KINDS)
    if unknown:
        raise DataError(f"predictions file names unknown models: {sorted(unknown)}")
    kinds = sorted({key[0] for key in predictions}, key=lambda k: MODEL_KINDS.index(k))
    cells = sorted({(key[1], key[2]) for key in predictions})

    table = ScoreTable()
    raw_table = ScoreTable()
    pit_by_model = {kind: [] for kind in kinds}
    # residual dependence needs refitted training residuals, keyed in kinds order
    refit = bool(cfg.models_dir and cfg.train_start and cfg.train_end)
    residuals = {kind: [] for kind in kinds if refit and kind in SEASONAL_KINDS}
    # one cell at a time: scored, then its training residuals computed on a view window
    for station, lead in cells:
        if (station, lead) not in cases:
            raise DataError(f"no data file for predicted case ({station}, {lead}h)")
        series = _load_case(cases[(station, lead)], station, lead)
        level = m_member_level(series.n_members)
        for kind in kinds:
            if (kind, station, lead) not in predictions:
                raise AlignmentError(f"method {kind} missing cell ({station}, {lead}h)")
            dates, mu, sigma = predictions[(kind, station, lead)]
            y = series.obs[series.rows(dates)]
            try:
                sample = score_cases(mu, sigma, y, level)
            except InvalidInput as exc:
                raise InvalidInput(f"predictions of {kind} ({station}, {lead}h): {exc}") from None
            table.add_sample(kind, station, lead, sample, dates=dates)
            pit_by_model[kind].append(sample.pit)
        # raw-ensemble reference row on the same dates
        idx = series.rows(predictions[(kinds[0], station, lead)][0])
        members = series.members[idx]
        y = series.obs[idx]
        lo, hi = members.min(axis=1), members.max(axis=1)
        raw_table.add_sample("raw-ensemble", station, lead, ScoreSample(
            crps=crps_ensemble(members, y), logs=None, se=np.square(series.ens_mean[idx] - y),
            pit=None, width=hi - lo, covered=(lo <= y) & (y <= hi)))
        fits = [(kind, fitted) for kind in residuals
                if (fitted := _load_fit(Path(cfg.models_dir), kind, station, lead)) is not None]
        train = _in_range(series, "training", cfg.train_start, cfg.train_end) if fits else None
        for kind, fitted in fits:
            residuals[kind].append(training_residuals(fitted, train))
        del series, members, train  # one cell's member array alive at a time

    matrix = significance_matrix(table, alpha=0.05)
    pits = [np.concatenate(pit_by_model[kind]) for kind in kinds]
    counts, variances = zip(*(pit_histogram(pit, bins=10) for pit in pits))

    residuals = {kind: per_cell for kind, per_cell in residuals.items() if per_cell}
    dependence = None
    if residuals:
        dependence = residual_dependence_table(residuals, lags=(1, 5, 10), alpha=0.05)

    with _staged(out) as stage:
        _write_score_table(stage / "scores.csv", table)
        _write_score_table(stage / "scores_raw_ensemble.csv", raw_table)
        _write_dm_matrix(stage / "dm_matrix.csv", matrix)
        write_csv_rows(stage / "pit_summary.csv",
                       ["method", "n", "pit_variance", *(f"bin{i + 1}" for i in range(10))],
                       [kinds, [pit.size for pit in pits], np.array(variances),
                        *np.transpose(counts)], TABLE_DECIMALS)
        if dependence is not None:  # a row per (method, lag)
            kind_of, lag_of, pcts = zip(*[(kind, lag, pcts) for kind, by_lag in dependence.items()
                                          for lag, pcts in sorted(by_lag.items())])
            write_csv_rows(stage / "residual_dependence.csv",
                           ["method", "lag", "pct_plain", "pct_squared"],
                           [kind_of, lag_of, np.array(pcts)], TABLE_DECIMALS)

    print(f"verify: wrote scores, DM matrix and PIT summary to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors share the single-line error[config] contract."""

    def error(self, message):
        print(f"error[config]: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="enspost",
        description="Postprocess ensemble temperature forecasts into calibrated "
                    "Gaussian predictive distributions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        # no abbreviations: verify's --models would otherwise be its --models-dir
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--config", help="flat key = value config file")
        flag_help = {**_HELP, **(command.flag_help or {})}
        for flag in command.flags:
            p.add_argument(f"--{flag}", help=flag_help.get(flag))
    return parser


class _Command(NamedTuple):
    """A subcommand's function, help, flags and the flags it cannot run without.
    A flag sets the RunConfig field of its name, "-" read as "_" ("lead": leads)."""
    run: Callable[[RunConfig], int]
    help: str
    flags: tuple[str, ...]
    required: tuple[str, ...]
    flag_help: dict[str, str] | None = None  # this subcommand's help over _HELP's


_COMMANDS = {
    "simulate": _Command(cmd_simulate, "write synthetic station CSVs plus truth sidecars",
                         ("out", "lead", "seed", "n-days", "n-stations", "m-members",
                          "start-date", "dgp", "ens-bias", "ens-dispersion"),
                         ("out",)),
    "fit": _Command(cmd_fit, "fit models on the training range",
                    ("data", "out", "models", "lead", "stations", "train-start", "train-end",
                     "max-iter"),
                    ("out", "train-start", "train-end", "data")),
    "predict": _Command(cmd_predict, "predict the validation range",
                        ("data", "out", "models", "lead", "stations", "valid-start",
                         "valid-end", "models-dir"),
                        ("out", "models-dir", "data", "valid-start", "valid-end")),
    "verify": _Command(cmd_verify, "score predictions and run the test battery",
                       ("data", "out", "lead", "stations", "train-start", "train-end",
                        "predictions", "models-dir"),
                       ("out", "predictions", "data"),
                       {"models-dir": "fitted models, enables the residual-dependence table"}),
}

_HELP = {
    "data": "directory with station_*.csv files",
    "out": "output directory",
    "models": "comma list of models or 'all'",
    "lead": "comma list of lead times in hours",
    "stations": "comma list of station ids",
    "models-dir": "directory with fit_*.json",
    "predictions": "predictions.csv from `predict`",
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits; keep main() returning a code
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
        return _COMMANDS[args.command].run(cfg)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 4
    except EnspostError as exc:  # pragma: no cover - safety net
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
