import contextlib
import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from enspost import cli, models, scoring
from enspost.cli import main, parse_config_file
from enspost.errors import ConfigError, DataError, InvalidConfig
from enspost.models import FittedModel
from enspost.data import (StationSeries, SyntheticConfig, generate_synthetic,
                          load_station_csv, parse_iso_dates, write_station_csv)
from enspost.timeseries import ARCoeffs, GARCHCoeffs


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("clirun")
    data, fits, preds, ver = (root / n for n in ("data", "fits", "preds", "ver"))
    assert run("simulate", "--out", data, "--n-days", 1000, "--n-stations", 1,
               "--lead", "24", "--seed", 5, "--dgp", "sar") == 0
    assert run("fit", "--data", data, "--out", fits, "--models", "semos,sar-semos,emos",
               "--lead", "24", "--train-start", "2015-01-01", "--train-end", "2017-06-30") == 0
    assert run("predict", "--data", data, "--models-dir", fits, "--out", preds,
               "--models", "semos,sar-semos,emos", "--lead", "24",
               "--valid-start", "2017-07-01", "--valid-end", "2017-09-26") == 0
    assert run("verify", "--data", data, "--predictions", preds / "predictions.csv",
               "--models-dir", fits, "--out", ver, "--lead", "24",
               "--train-start", "2015-01-01", "--train-end", "2017-06-30") == 0
    return root


def test_cli_import_leaves_the_heavy_scipy_subpackages_unloaded():
    # cold start and one recursion: the runtime needs numpy and scipy.special
    # only, and runs linear_recursion on numpy's own BLAS where numpy's is
    # scipy-openblas (the Python loop there costs about 0.1 s a pipeline pass)
    heavy = ["scipy.signal", "scipy.integrate", "scipy.stats", "scipy.interpolate",
             "scipy.linalg"]
    code = "\n".join([
        "import sys; sys.path.insert(0, sys.argv[1]); import enspost.cli",
        "from enspost import timeseries; timeseries.linear_recursion([0.5], [1.0, 2.0])",
        "print(sorted(set(sys.argv[2:]) & set(sys.modules)))",
        "import numpy as np",
        "try: blas = np.show_config(mode='dicts')['Build Dependencies']['blas'].get('name')",
        "except TypeError: blas = None  # numpy < 1.26 has no mode",
        "print(blas == 'scipy-openblas', timeseries._band_solve.__name__)",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code, str(src), *heavy],
                          capture_output=True, text=True, check=True)
    loaded, kernel = done.stdout.splitlines()
    assert loaded == "[]"
    if kernel.startswith("True"):
        assert kernel == "True _blas_band_solve"


def test_simulate_file_counts(tmp_path):
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--n-days", 2192, "--n-stations", 3,
               "--lead", "24", "--seed", 1) == 0
    files = sorted(out.glob("station_*.csv"))
    assert len(files) == 3
    for path in files:
        with open(path) as fh:
            assert sum(1 for _ in fh) == 2193  # header + rows
        series = load_station_csv(path)
        assert series.n_days == 2192


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("simulate", "--out", out, "--n-days", 150, "--n-stations", 2,
                   "--lead", "24,72", "--seed", 3) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_simulate_dar_garch_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("simulate", "--out", out, "--n-days", 400, "--n-stations", 2,
                   "--lead", "24,72", "--seed", 12, "--dgp", "dar-garch") == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert sum(n.startswith("station_") for n in names) == 4
    assert sum(n.startswith("truth_") for n in names) == 4
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("dgp, standardized, garch", [
    ("sar", True, None),
    ("dar", False, None),
    ("dar-garch", False, GARCHCoeffs(0.1, 0.55, 0.35)),
])
def test_each_world_is_its_documented_process(dgp, standardized, garch):
    cfg = cli.RunConfig(dgp=dgp, leads=[24, 72], n_stations=2)
    for station_index in range(2):
        for lead_index in range(2):
            syn = cli.synthetic_config(cfg, station_index, lead_index)
            assert syn.standardized_ar is standardized
            assert syn.ar == ARCoeffs(1, 0.0, (0.6,))
            assert syn.garch == garch
            syn.validate()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1 (sub-seeds): synthetic_config seeds cell (station i, lead index j) "
    "with seed + 1000 i + j, so run seed s's second lead draws run seed s + 1's first"))
def test_consecutive_run_seeds_draw_different_worlds():
    def draw(run_seed, lead_index):
        cfg = cli.RunConfig(seed=run_seed, leads=[24, 72], n_days=60)
        series, _ = generate_synthetic(cli.synthetic_config(cfg, 0, lead_index))
        return series

    second_lead, next_first = draw(12, 1), draw(13, 0)
    assert not np.array_equal(second_lead.obs, next_first.obs)
    assert not np.array_equal(second_lead.members, next_first.members)


def test_fit_outputs_and_determinism(pipeline, tmp_path):
    fits = pipeline / "fits"
    doc = json.loads((fits / "fit_SEMOS_S01_24h.json").read_text())
    assert doc["kind"] == "SEMOS"
    assert doc["meta"]["converged"] in (True, False)
    assert "train_crps" in doc["meta"]
    # refit with the same inputs reproduces the JSON byte for byte
    again = tmp_path / "fits2"
    assert run("fit", "--data", pipeline / "data", "--out", again, "--models", "semos",
               "--lead", "24", "--train-start", "2015-01-01", "--train-end", "2017-06-30") == 0
    assert (again / "fit_SEMOS_S01_24h.json").read_bytes() == \
        (fits / "fit_SEMOS_S01_24h.json").read_bytes()


def test_fit_sar_ar_order_low(pipeline):
    doc = json.loads((pipeline / "fits" / "fit_SAR-SEMOS_S01_24h.json").read_text())
    assert doc["ar"]["p"] in (1, 2, 3)


def test_predictions_schema_and_cardinality(pipeline):
    n_valid = 88  # 2017-07-01 .. 2017-09-26
    with open(pipeline / "preds" / "predictions.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "station_id", "lead_time_h", "date", "mu", "sigma"]
    body = rows[1:]
    assert len(body) == n_valid * 3
    assert all(float(r[5]) > 0 for r in body)


def test_predictions_file_is_csv_writer_rows_in_key_order(tmp_path):
    # station ids that need quoting or hold '%', and leads whose text order is not theirs
    data, fits, preds = (tmp_path / n for n in ("data", "fits", "preds"))
    data.mkdir()
    stations, leads, kinds = ['A,"B"', "50%s%%", "S01"], (24, 120), ("EMOS", "AR-EMOS")
    for i, station in enumerate(stations):
        for lead in leads:
            series, _ = generate_synthetic(SyntheticConfig(
                n_days=170, m=5, seed=i, lead_time_h=lead, station_id=station))
            write_station_csv(series, data / f"station_{station}_{lead}h.csv")
    assert run("fit", "--data", data, "--out", fits, "--models", "emos,ar-emos", "--lead", "",
               "--train-start", "2015-01-01", "--train-end", "2015-04-30") == 0
    assert run("predict", "--data", data, "--models-dir", fits, "--out", preds,
               "--models", "emos,ar-emos", "--lead", "", "--valid-start", "2015-05-11",
               "--valid-end", "2015-06-19") == 0
    rows = []
    for station in stations:
        for lead in leads:
            series = load_station_csv(data / f"station_{station}_{lead}h.csv")
            dates = series.dates[series.dates >= np.datetime64("2015-05-11")]
            for kind in kinds:
                fitted = FittedModel.load(fits / f"fit_{kind}_{station}_{lead}h.json")
                mu, sigma = models.predict(fitted, series, dates)
                rows += [(kind, station, lead, str(d), m, s) for d, m, s in zip(dates, mu, sigma)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["model", "station_id", "lead_time_h", "date", "mu", "sigma"])
    for kind, station, lead, date, mu, sigma in sorted(rows, key=lambda row: row[:4]):
        writer.writerow([kind, station, lead, date, "%.6f" % mu, "%.6f" % sigma])
    assert len(rows) == 40 * len(stations) * len(leads) * len(kinds)
    assert (preds / "predictions.csv").read_bytes() == buf.getvalue().encode()


def test_two_station_files_naming_one_cell_are_one_data_error(tmp_path, capsys):
    # fit would write both cells' fits to one file, predict both cells' rows as one
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    series, _ = generate_synthetic(SyntheticConfig(n_days=150, seed=3))
    for name in ("station_S01_24h.csv", "station_S01_024h.csv"):
        write_station_csv(series, data / name)
    assert run("fit", "--data", data, "--out", out, "--models", "emos", "--lead", "24",
               "--train-start", "2015-01-01", "--train-end", "2015-04-01") == 3
    assert capsys.readouterr().err == ("error[data]: file names station_S01_024h.csv and "
                                       "station_S01_24h.csv both name (S01, 24h)\n")
    assert not out.exists()


def test_predict_dar_differs_from_semos(tmp_path):
    data = tmp_path / "data"
    fits = tmp_path / "fits"
    preds = tmp_path / "preds"
    assert run("simulate", "--out", data, "--n-days", 900, "--n-stations", 1,
               "--lead", "24", "--seed", 11, "--dgp", "dar") == 0
    assert run("fit", "--data", data, "--out", fits, "--models", "semos,dar-semos",
               "--lead", "24", "--train-start", "2015-01-01", "--train-end", "2017-01-30") == 0
    assert run("predict", "--data", data, "--models-dir", fits, "--out", preds,
               "--models", "semos,dar-semos", "--lead", "24",
               "--valid-start", "2017-01-31", "--valid-end", "2017-06-18") == 0
    by_model = {}
    with open(preds / "predictions.csv") as fh:
        for row in csv.DictReader(fh):
            by_model.setdefault(row["model"], []).append(float(row["mu"]))
    semos = np.array(by_model["SEMOS"])
    dar = np.array(by_model["DAR-SEMOS"])
    assert np.mean(np.abs(dar - semos) > 1e-9) > 0.9  # AR term shifts nearly every day


def test_verify_outputs(pipeline):
    ver = pipeline / "ver"
    scores = (ver / "scores.csv").read_text().splitlines()
    assert scores[0] == ("method,station_id,lead_time_h,n,mean_crps,mean_logs,"
                         "rmse,mean_width,coverage_pct")
    assert len(scores) == 4  # three models, one cell
    dm = [line.split(",") for line in (ver / "dm_matrix.csv").read_text().splitlines()]
    methods = dm[0][1:]
    for i, row in enumerate(dm[1:]):
        assert float(row[1 + i]) == 0.0  # self-comparison diagonal
    assert (ver / "pit_summary.csv").exists()
    assert (ver / "scores_raw_ensemble.csv").exists()
    assert (ver / "residual_dependence.csv").exists()
    # postprocessed models beat the raw ensemble on this world
    raw_crps = float((ver / "scores_raw_ensemble.csv").read_text()
                     .splitlines()[1].split(",")[4])
    model_crps = [float(line.split(",")[4]) for line in scores[1:]]
    assert all(c < raw_crps for c in model_crps)


def test_raw_ensemble_row_is_the_member_scores_on_the_predicted_dates(pipeline):
    with open(pipeline / "preds" / "predictions.csv") as fh:
        dates = sorted({row["date"] for row in csv.DictReader(fh) if row["model"] == "EMOS"})
    series = load_station_csv(pipeline / "data" / "station_S01_24h.csv")
    idx = np.searchsorted(series.dates, np.array(dates, dtype="datetime64[D]"))
    members, y = series.members[idx], series.obs[idx]
    lo, hi = members.min(axis=1), members.max(axis=1)
    with open(pipeline / "ver" / "scores_raw_ensemble.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert (row["method"], row["station_id"], row["lead_time_h"]) == ("raw-ensemble", "S01", "24")
    assert int(row["n"]) == len(dates) == 88
    assert row["mean_logs"] == ""
    expected = {
        "mean_crps": np.mean([scoring.crps_ensemble(m, o) for m, o in zip(members, y)]),
        "rmse": np.sqrt(np.mean((members.mean(axis=1) - y) ** 2)),
        "mean_width": np.mean(hi - lo),
        "coverage_pct": 100.0 * np.mean((lo <= y) & (y <= hi)),
    }
    for field, value in expected.items():
        assert float(row[field]) == pytest.approx(value, abs=1e-6), field


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nn_days = 120\nseed = 5\nmodels = semos\nleads = 24\n")
    parsed = parse_config_file(cfg)
    assert parsed == {"n_days": "120", "seed": "5", "models": "semos", "leads": "24"}
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run("simulate", "--config", cfg, "--out", out1) == 0
    assert run("simulate", "--config", cfg, "--out", out2, "--seed", 6) == 0
    a = (out1 / "station_S01_24h.csv").read_bytes()
    b = (out2 / "station_S01_24h.csv").read_bytes()
    assert a != b  # the flag beat the file value


def test_exit_codes(tmp_path, capsys):
    assert run("simulate", "--out", tmp_path / "x", "--dgp", "nope") == 2
    assert "error[config]:" in capsys.readouterr().err
    assert run("fit", "--data", tmp_path / "missing", "--out", tmp_path / "y",
               "--train-start", "2015-01-01", "--train-end", "2016-01-01") == 3
    assert "error[data]:" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1\n")
    assert run("simulate", "--config", cfg, "--out", tmp_path / "z") == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:") and len(err.strip().splitlines()) == 1


def test_disjoint_ranges_enforced(tmp_path, capsys):
    # fit takes no --valid-* flag; a config file serving every step sets the range
    cfg = tmp_path / "run.cfg"
    cfg.write_text("valid_start = 2015-06-01\nvalid_end = 2016-06-01\n")
    assert run("fit", "--config", cfg, "--data", tmp_path, "--out", tmp_path / "f",
               "--train-start", "2015-01-01", "--train-end", "2016-01-01") == 2
    err = capsys.readouterr().err
    assert err == "error[config]: validation range must start after the training range ends\n"


def _assert_one_error_line(capsys, kind):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error[") == 1
    assert err.startswith(f"error[{kind}]:")


@pytest.mark.parametrize("cfg_text, flags", [
    (None, ("--lead", "abc")),
    (None, ("--lead", "24,x")),
    ("seed = abc\n", ()),
    ("n_days = 1.5\n", ()),
    ("ens_bias = high\n", ()),
    ("leads = 24,abc\n", ()),
])
def test_malformed_config_values_are_config_errors(tmp_path, capsys, cfg_text, flags):
    args = ["simulate", "--out", tmp_path / "sim", *flags]
    if cfg_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        args += ["--config", cfg]
    assert run(*args) == 2
    _assert_one_error_line(capsys, "config")
    assert not (tmp_path / "sim").exists()


def test_station_file_with_bad_lead_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "station_S01_xxh.csv").write_text("date,obs\n")
    assert run("fit", "--data", data, "--out", tmp_path / "fits",
               "--train-start", "2015-01-01", "--train-end", "2016-01-01") == 3
    _assert_one_error_line(capsys, "data")


def _prediction_rows(pipeline):
    with open(pipeline / "preds" / "predictions.csv", newline="") as fh:
        return list(csv.reader(fh))


def _write_predictions(tmp_path, rows):
    target = tmp_path / "predictions.csv"
    with open(target, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return target


def _edited_predictions(pipeline, tmp_path, column, value):
    """A copy of the shared run's predictions.csv with one field of its
    first data row replaced."""
    rows = _prediction_rows(pipeline)
    rows[1][rows[0].index(column)] = value
    return _write_predictions(tmp_path, rows)


@pytest.mark.parametrize("column, value", [
    ("lead_time_h", "24h"), ("mu", "abc"), ("sigma", ""), ("date", "2017-13-45"),
    *(("date", text) for text in ("", "NaT", "nat", "today", "now", "2017", "2017-07",
                                   "2017-07-01T12", "2017-07-01T12:30Z")),
])
def test_unparsable_prediction_row_is_data_error(pipeline, tmp_path, capsys, column, value):
    preds = _edited_predictions(pipeline, tmp_path, column, value)
    ver = tmp_path / "ver"
    assert run("verify", "--data", pipeline / "data", "--predictions", preds,
               "--out", ver, "--lead", "24") == 3
    _assert_one_error_line(capsys, "data")
    assert not ver.exists()


def test_prediction_row_with_an_extra_field_is_data_error(pipeline, tmp_path, capsys):
    rows = _prediction_rows(pipeline)
    rows[1].append("junk")
    preds = _write_predictions(tmp_path, rows)
    ver = tmp_path / "ver"
    assert run("verify", "--data", pipeline / "data", "--predictions", preds,
               "--out", ver, "--lead", "24") == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error[") == 1
    assert err.startswith(f"error[data]: {preds}:2: cannot parse prediction row ")
    assert not ver.exists()


def test_repeated_prediction_row_is_data_error(pipeline, tmp_path, capsys):
    rows = _prediction_rows(pipeline)
    preds = _write_predictions(tmp_path, rows + [rows[1]])
    ver = tmp_path / "ver"
    assert run("verify", "--data", pipeline / "data", "--predictions", preds,
               "--out", ver, "--lead", "24") == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error[") == 1
    assert err.startswith(f"error[data]: {preds}:{len(rows) + 1}:")
    assert not ver.exists()


_PREDICTION_CELLS = ["", "x", "24", "+24", " 48", "24.0", "2017-07-02", "2017-7-2", "NaT",
                     "1_0", "nan", "-inf", "1e400", "0x10", "S1", "A"]


def _per_row_predictions(path) -> dict:
    """The reference reader: every row's date parsed on its own, rows
    grouped by datetime64 date; the same keys, arrays and DataErrors as
    ``cli.load_predictions``."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != cli._PREDICTIONS_HEADER:
                raise DataError(f"unexpected predictions header {header}")
            grouped = {}
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    model, station, lead, day, mu, sigma = row
                    key = (model, station, int(lead))
                    date = parse_iso_dates([day])[0]
                    entry = (float(mu), float(sigma))
                except ValueError:
                    raise DataError(f"{path}:{line_no}: cannot parse prediction row {row}") from None
                by_date = grouped.setdefault(key, {})
                if date in by_date:
                    raise DataError(f"{path}:{line_no}: repeated prediction row {row}")
                by_date[date] = entry
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read predictions file {path}: {exc}") from None
    out = {}
    for key, by_date in grouped.items():
        dates = np.array(sorted(by_date), dtype="datetime64[D]")
        mu, sigma = np.array([by_date[d] for d in dates]).T.copy()
        out[key] = (dates, mu, sigma)
    return out


def _assert_reads_as_reference(path):
    try:
        expected = _per_row_predictions(path)
    except DataError as exc:
        with pytest.raises(DataError) as caught:
            cli.load_predictions(path)
        assert str(caught.value) == str(exc)
        return
    got = cli.load_predictions(path)
    assert list(got) == list(expected)
    for key in expected:
        for a, b in zip(got[key], expected[key]):
            assert a.dtype == b.dtype and a.flags.c_contiguous, key
            assert np.array_equal(a, b, equal_nan=True), key


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5),
                                st.sampled_from(_PREDICTION_CELLS)), max_size=3),
       short=st.sets(st.integers(0, 7), max_size=1),
       long=st.sets(st.integers(0, 7), max_size=1),
       order=st.permutations(range(8)))
def test_prediction_reader_matches_per_row_reference(tmp_path_factory, edits, short, long,
                                                     order):
    rows = [[model, "S1", lead, f"2017-07-0{day}", f"{day}.5", "0.75"]
            for model in ("A", "B") for lead in ("24", "48") for day in (1, 2)]
    for row, col, text in edits:
        rows[row][col] = text
    for row in short:  # a row without its sigma field
        del rows[row][-1]
    for row in long:  # a row with a field after its sigma
        rows[row].append("junk")
    path = tmp_path_factory.mktemp("preds") / "predictions.csv"
    path.write_text("model,station_id,lead_time_h,date,mu,sigma\n"
                    + "".join(",".join(rows[i]) + "\n" for i in order))
    _assert_reads_as_reference(path)


def test_prediction_reader_sorts_shared_dates_and_names_a_bad_date_at_its_first_line(tmp_path):
    header = "model,station_id,lead_time_h,date,mu,sigma\n"
    path = tmp_path / "predictions.csv"
    # A's rows out of date order; 2017-07-02 shared by A, B and C
    path.write_text(header + "A,S1,24,2017-07-02,2.5,1\nB,S1,24,2017-07-02,3.5,1\n"
                    "A,S1,24,2017-06-30,0.5,1\nA,S1,24,2017-07-01,1.5,1\n"
                    "C,S2,48,2017-07-02,4.5,2\n")
    _assert_reads_as_reference(path)
    got = cli.load_predictions(path)
    assert list(got) == [("A", "S1", 24), ("B", "S1", 24), ("C", "S2", 48)]
    dates, mu, sigma = got[("A", "S1", 24)]
    assert dates.tolist() == np.array(["2017-06-30", "2017-07-01", "2017-07-02"],
                                      dtype="datetime64[D]").tolist()
    assert mu.tolist() == [0.5, 1.5, 2.5] and sigma.tolist() == [1.0, 1.0, 1.0]
    # an invalid date is not remembered: its first row is the one named
    path.write_text(header + "A,S1,24,2017-07-01,1.5,1\nA,S1,24,2017-02-30,2.5,1\n"
                    "B,S1,24,2017-02-30,2.5,1\n")
    _assert_reads_as_reference(path)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: cannot parse"):
        cli.load_predictions(path)


@pytest.mark.parametrize("sigma", ["-1", "nan"])
def test_invalid_predictive_sigma_is_data_error(pipeline, tmp_path, capsys, sigma):
    preds = _edited_predictions(pipeline, tmp_path, "sigma", sigma)
    ver = tmp_path / "ver"
    assert run("verify", "--data", pipeline / "data", "--predictions", preds,
               "--out", ver, "--lead", "24") == 3
    _assert_one_error_line(capsys, "data")
    assert not ver.exists()  # rejected before any output is written


def test_fit_failing_on_a_later_model_leaves_no_out_dir(pipeline, tmp_path, capsys):
    # EMOS fits on 40 days, SEMOS then rejects the short history
    out = tmp_path / "fits"
    assert run("fit", "--data", pipeline / "data", "--out", out, "--models", "emos,semos",
               "--lead", "24", "--train-start", "2017-05-22", "--train-end", "2017-06-30") == 3
    _assert_one_error_line(capsys, "data")
    assert not out.exists()


def test_predict_failing_on_a_later_model_leaves_no_out_dir(pipeline, tmp_path, capsys):
    # EMOS predicts, then the SEMOS fit file is missing
    fits = tmp_path / "fits"
    fits.mkdir()
    emos_fit = pipeline / "fits" / "fit_EMOS_S01_24h.json"
    (fits / emos_fit.name).write_bytes(emos_fit.read_bytes())
    out = tmp_path / "preds"
    assert run("predict", "--data", pipeline / "data", "--models-dir", fits, "--out", out,
               "--models", "emos,semos", "--lead", "24",
               "--valid-start", "2017-07-01", "--valid-end", "2017-07-10") == 3
    _assert_one_error_line(capsys, "data")
    assert not out.exists()


def test_predict_that_overflows_is_one_numeric_error_before_any_output(pipeline, tmp_path,
                                                                        capsys):
    # scale intercept 800: sigma = exp(800 + ...) overflows to inf
    doc = json.loads((pipeline / "fits" / "fit_SEMOS_S01_24h.json").read_text())
    doc["scale"][0] = 800.0
    fits = tmp_path / "fits"
    fits.mkdir()
    (fits / "fit_SEMOS_S01_24h.json").write_text(json.dumps(doc))
    out = tmp_path / "preds"
    assert run("predict", "--data", pipeline / "data", "--models-dir", fits, "--out", out,
               "--models", "semos", "--lead", "24",
               "--valid-start", "2017-07-01", "--valid-end", "2017-09-26") == 4
    assert re.fullmatch(r"error\[numeric\]: SEMOS on \(S01, 24h\) gives mu [-0-9.e]+, "
                        r"sigma inf on 2017-07-01\n", capsys.readouterr().err)
    assert not out.exists()


def _truncate(path):
    path.write_bytes(path.read_bytes()[:100])


def _drop_origin(path):
    doc = json.loads(path.read_text())
    del doc["meta"]["origin"]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("command, damage", [
    ("predict", _truncate), ("verify", _truncate), ("verify", _drop_origin)])
def test_malformed_fit_file_is_data_error(pipeline, tmp_path, capsys, command, damage):
    fits = tmp_path / "fits"
    fits.mkdir()
    for path in (pipeline / "fits").iterdir():
        (fits / path.name).write_bytes(path.read_bytes())
    damaged = fits / "fit_SEMOS_S01_24h.json"
    damage(damaged)
    if command == "predict":
        args = ("predict", "--data", pipeline / "data", "--models-dir", fits,
                "--out", tmp_path / "out", "--models", "semos", "--lead", "24",
                "--valid-start", "2017-07-01", "--valid-end", "2017-09-26")
    else:
        args = ("verify", "--data", pipeline / "data", "--models-dir", fits,
                "--predictions", pipeline / "preds" / "predictions.csv",
                "--out", tmp_path / "out", "--lead", "24",
                "--train-start", "2015-01-01", "--train-end", "2017-06-30")
    assert run(*args) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error[") == 1
    assert err.startswith("error[data]:") and str(damaged) in err


def _for_station_s02(doc):
    doc["meta"]["station_id"] = "S02"
    return doc


def _for_lead_72h(doc):
    doc["meta"]["lead_time_h"] = 72
    return doc


@pytest.mark.parametrize("source, relabel", [
    ("fit_SAR-SEMOS_S01_24h.json", lambda doc: doc),
    ("fit_SEMOS_S01_24h.json", _for_station_s02),
    ("fit_SEMOS_S01_24h.json", _for_lead_72h),
], ids=["kind", "station", "lead"])
@pytest.mark.parametrize("command", ["predict", "verify"])
def test_fit_file_of_another_kind_station_or_lead_is_data_error(pipeline, tmp_path, capsys,
                                                                 command, source, relabel):
    fits = _copy_dir(pipeline / "fits", tmp_path / "fits")
    doc = json.loads((pipeline / "fits" / source).read_text())
    damaged = fits / "fit_SEMOS_S01_24h.json"
    damaged.write_text(json.dumps(relabel(doc)))
    out = tmp_path / "out"
    if command == "predict":
        args = ("predict", "--data", pipeline / "data", "--models-dir", fits,
                "--out", out, "--models", "emos,semos", "--lead", "24",
                "--valid-start", "2017-07-01", "--valid-end", "2017-09-26")
    else:
        args = ("verify", "--data", pipeline / "data", "--models-dir", fits,
                "--predictions", pipeline / "preds" / "predictions.csv", "--out", out,
                "--lead", "24", "--train-start", "2015-01-01", "--train-end", "2017-06-30")
    assert run(*args) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error[") == 1
    assert err.startswith(f"error[data]: fitted model {damaged} holds ")
    assert not out.exists()


@pytest.mark.parametrize("kind, block", [
    ("DAR-SEMOS", "ar"), ("SAR-SEMOS", "ar"), ("DAR-GARCH-SEMOS", "garch")])
@pytest.mark.parametrize("command", ["predict", "verify"])
def test_fit_file_missing_a_block_is_data_error(pipeline, tmp_path, capsys, command, kind,
                                                 block):
    # the SAR-SEMOS fit relabelled: its loc, scale and ar serve every seasonal AR kind
    doc = json.loads((pipeline / "fits" / "fit_SAR-SEMOS_S01_24h.json").read_text())
    doc["kind"] = kind
    doc[block] = None
    fits = tmp_path / "fits"
    fits.mkdir()
    damaged = fits / f"fit_{kind}_S01_24h.json"
    damaged.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "predict":
        args = ("predict", "--data", pipeline / "data", "--models-dir", fits,
                "--out", out, "--models", kind, "--lead", "24",
                "--valid-start", "2017-07-01", "--valid-end", "2017-09-26")
    else:
        rows = _prediction_rows(pipeline)
        preds = _write_predictions(tmp_path, [rows[0]] + [[kind, *row[1:]] for row in rows[1:]
                                                          if row[0] == "SAR-SEMOS"])
        args = ("verify", "--data", pipeline / "data", "--models-dir", fits,
                "--predictions", preds, "--out", out, "--lead", "24",
                "--train-start", "2015-01-01", "--train-end", "2017-06-30")
    assert run(*args) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error[") == 1
    assert err.startswith("error[data]:") and str(damaged) in err and f"{block} block" in err
    assert not out.exists()


def test_verify_builds_one_training_window_per_cell(pipeline, tmp_path, monkeypatch):
    # the SAR-SEMOS fit relabelled as the other AR kinds: four seasonal fits of one cell
    fits = _copy_dir(pipeline / "fits", tmp_path / "fits")
    doc = json.loads((pipeline / "fits" / "fit_SAR-SEMOS_S01_24h.json").read_text())
    doc["garch"] = {"omega0": 0.1, "omega1": 0.5, "omega2": 0.3}
    for kind in ("DAR-SEMOS", "DAR-GARCH-SEMOS"):
        (fits / f"fit_{kind}_S01_24h.json").write_text(json.dumps({**doc, "kind": kind}))
    rows = _prediction_rows(pipeline)
    seasonal = [row for row in rows[1:] if row[0] in ("SEMOS", "SAR-SEMOS")]
    preds = _write_predictions(tmp_path, [rows[0]] + seasonal + [
        [kind, *row[1:]] for kind in ("DAR-SEMOS", "DAR-GARCH-SEMOS")
        for row in rows[1:] if row[0] == "SAR-SEMOS"])
    window = StationSeries.window
    calls = []
    monkeypatch.setattr(StationSeries, "window",
                        lambda self, *args: calls.append(args) or window(self, *args))
    out = tmp_path / "ver"
    assert run("verify", "--data", pipeline / "data", "--models-dir", fits,
               "--predictions", preds, "--out", out, "--lead", "24",
               "--train-start", "2015-01-01", "--train-end", "2017-06-30") == 0
    assert len(calls) == 1
    with open(out / "residual_dependence.csv", newline="") as fh:
        assert {row["method"] for row in csv.DictReader(fh)} == {
            "SEMOS", "DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS"}


def test_residual_dependence_keeps_model_order_when_a_first_cell_lacks_a_fit(pipeline,
                                                                             tmp_path):
    # a second station S02 with S01's data, fits and predictions; SEMOS has no fit for
    # the first cell, so SAR-SEMOS is the first kind whose residuals are computed
    data = _copy_dir(pipeline / "data", tmp_path / "data")
    (data / "station_S02_24h.csv").write_bytes(
        (data / "station_S01_24h.csv").read_bytes().replace(b"\r\nS01,", b"\r\nS02,"))
    fits = _copy_dir(pipeline / "fits", tmp_path / "fits")
    for kind in ("SEMOS", "SAR-SEMOS"):
        doc = json.loads((fits / f"fit_{kind}_S01_24h.json").read_text())
        (fits / f"fit_{kind}_S02_24h.json").write_text(json.dumps(_for_station_s02(doc)))
    (fits / "fit_SEMOS_S01_24h.json").unlink()
    rows = _prediction_rows(pipeline)
    preds = _write_predictions(tmp_path, rows + [[row[0], "S02", *row[2:]] for row in rows[1:]])
    out = tmp_path / "ver"
    assert run("verify", "--data", data, "--models-dir", fits, "--predictions", preds,
               "--out", out, "--lead", "24",
               "--train-start", "2015-01-01", "--train-end", "2017-06-30") == 0
    with open(out / "residual_dependence.csv", newline="") as fh:
        methods = [row["method"] for row in csv.DictReader(fh)]
    assert list(dict.fromkeys(methods)) == ["SEMOS", "SAR-SEMOS"]


@pytest.mark.parametrize("flags", [
    ("--start-date", "notadate"),
    ("--start-date", "NaT"),
    ("--n-stations", "0"),
    ("--n-days", "1"),
    ("--ens-dispersion", "-1"),
    ("--seed", "-1"),
    ("--ens-bias", "nan"),
    ("--ens-bias", "inf"),
    ("--ens-dispersion", "nan"),
    ("--ens-bias", "1e308"),  # finite, but the ensemble mean of the draw is not
    ("--ens-dispersion", "1e308"),
], ids=["start_date", "start_date_nat", "n_stations", "n_days", "ens_dispersion", "seed",
        "ens_bias_nan", "ens_bias_inf", "ens_dispersion_nan", "ens_bias_overflow",
        "ens_dispersion_overflow"])
def test_invalid_simulate_config_leaves_no_out_dir(tmp_path, capsys, flags):
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--n-days", 150, *flags) == 2
    _assert_one_error_line(capsys, "config")
    assert not out.exists()


def test_simulate_failing_on_a_later_cell_leaves_no_out_dir(tmp_path, capsys, monkeypatch):
    drawn = []

    def second_cell_fails(syn):
        if drawn:
            raise InvalidConfig("second cell")
        drawn.append(syn)
        return generate_synthetic(syn)

    monkeypatch.setattr(cli, "generate_synthetic", second_cell_fails)
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--n-days", 150, "--n-stations", 2) == 2
    assert capsys.readouterr().err == "error[config]: second cell\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "predict", "verify"])
def test_station_file_whose_ensemble_overflows_is_one_data_error(pipeline, tmp_path, capsys,
                                                                command):
    # every member is finite, but the ensemble mean of 2015-04-11 is not
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    lines = (pipeline / "data" / "station_S01_24h.csv").read_text().splitlines(keepends=True)
    fields = lines[101].split(",")
    assert fields[1] == "2015-04-11"
    fields[4:6] = ["1e308", "1.7e308"]
    lines[101] = ",".join(fields)
    (data / "station_S01_24h.csv").write_text("".join(lines))
    extra = {"fit": ["--train-start", "2015-01-01", "--train-end", "2017-06-30"],
             "predict": ["--models-dir", pipeline / "fits",
                         "--valid-start", "2017-07-01", "--valid-end", "2017-09-26"],
             "verify": ["--predictions", pipeline / "preds" / "predictions.csv"]}[command]
    assert run(command, "--data", data, "--out", out, "--lead", "24", *extra) == 3
    _assert_one_error_line(capsys, "data")
    assert not out.exists()


@pytest.mark.parametrize("value", ["2015", "2015-01", "now", "today", "NaT"])
@pytest.mark.parametrize("command, option", [
    ("simulate", "--start-date"),
    ("fit", "--train-start"),
    ("fit", "--train-end"),
    ("predict", "--valid-start"),
    ("predict", "--valid-end"),
])
def test_config_dates_must_be_written_yyyy_mm_dd(tmp_path, capsys, command, option, value):
    # numpy alone reads each of these values as a date
    out = tmp_path / "out"
    data = () if command == "simulate" else ("--data", tmp_path)
    assert run(command, *data, "--out", out, option, value) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error[") == 1
    name = option[2:].replace("-", "_")
    assert err.startswith(f"error[config]: {name} is not an ISO date: {value!r}")
    assert not out.exists()


def test_simulate_without_leads_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--n-days", 150, "--lead", ",") == 2
    _assert_one_error_line(capsys, "config")
    assert not out.exists()


@pytest.mark.parametrize("name, key, value", [
    ("fit_AR-EMOS_S01_24h.json", "ar_window", "x"),
    ("fit_EMOS_S01_24h.json", "window_days", 0),
])
def test_predict_ignores_window_lengths_in_fit_files(pipeline, tmp_path, name, key, value):
    # the rolling window lengths are fixed by the models; a fit file only records them
    fits, edited = tmp_path / "fits", tmp_path / "edited"
    assert run("fit", "--data", pipeline / "data", "--out", fits, "--models", "emos,ar-emos",
               "--lead", "24", "--train-start", "2015-01-01", "--train-end", "2017-06-30") == 0
    edited.mkdir()
    for path in fits.iterdir():
        (edited / path.name).write_bytes(path.read_bytes())
    doc = json.loads((fits / name).read_text())
    doc["meta"][key] = value
    (edited / name).write_text(json.dumps(doc))
    for models_dir in (fits, edited):
        assert run("predict", "--data", pipeline / "data", "--models-dir", models_dir,
                   "--out", tmp_path / f"preds_{models_dir.name}", "--models", "emos,ar-emos",
                   "--lead", "24", "--valid-start", "2017-07-01", "--valid-end", "2017-07-20") == 0
    assert (tmp_path / "preds_edited" / "predictions.csv").read_bytes() == \
        (tmp_path / "preds_fits" / "predictions.csv").read_bytes()


def _copy_dir(source, target):
    target.mkdir()
    for path in source.iterdir():
        (target / path.name).write_bytes(path.read_bytes())
    return target


def _with_bytes(path, text: bytes):
    """``path`` with ``text`` put into its third line."""
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:5] + text + lines[2][5:]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("case", [
    "station_undecodable", "station_oversized_field", "station_directory",
    "predictions_undecodable", "predictions_missing", "config_undecodable"])
def test_unreadable_input_is_one_error_line(pipeline, tmp_path, capsys, case):
    out = tmp_path / "out"
    kind, code = "data", 3
    data = pipeline / "data"
    preds = pipeline / "preds" / "predictions.csv"
    command = "verify"
    extra = ()
    if case == "station_directory":
        command = "fit"
        data = tmp_path / "data"
        (data / "station_S01_24h.csv").mkdir(parents=True)
    elif case.startswith("station"):
        command = "fit"
        data = _copy_dir(pipeline / "data", tmp_path / "data")
        # a field longer than the csv module's limit (131,072 characters) is a csv.Error
        _with_bytes(data / "station_S01_24h.csv", b"\xff" if case == "station_undecodable"
                    else b"9" * 200_000)
    elif case == "predictions_undecodable":
        preds = tmp_path / "predictions.csv"
        preds.write_bytes((pipeline / "preds" / "predictions.csv").read_bytes())
        _with_bytes(preds, b"\xff")
    elif case == "predictions_missing":
        preds = tmp_path / "missing.csv"
    else:
        kind, code = "config", 2
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 5\n# caf\xff\n")
        extra = ("--config", cfg)
    if command == "fit":
        args = ("fit", "--data", data, "--out", out, "--models", "emos", "--lead", "24",
                "--train-start", "2015-01-01", "--train-end", "2017-06-30")
    else:
        args = ("verify", "--data", data, "--predictions", preds, "--out", out, "--lead", "24")
    assert run(*args, *extra) == code
    _assert_one_error_line(capsys, kind)
    assert not out.exists()


# ---------------------------------------------------------------------------
# the option table: flags, config keys and required options
# ---------------------------------------------------------------------------

_FLAG_VALUES = {
    "data": "d", "out": "o", "models": "emos,SEMOS", "lead": "24,72", "stations": "S01,S02",
    "train-start": "2015-01-01", "train-end": "2015-12-31", "valid-start": "2016-01-01",
    "valid-end": "2016-12-31", "seed": "7", "max-iter": "9", "n-days": "150",
    "n-stations": "2", "m-members": "5", "start-date": "2015-02-01", "dgp": "dar",
    "ens-bias": "0.5", "ens-dispersion": "1.2", "models-dir": "m", "predictions": "p.csv",
}
_TABLE = [(name, flag) for name, command in cli._COMMANDS.items() for flag in command.flags]


def _config_or_error(argv):
    try:
        return cli.build_config(cli.build_parser().parse_args([str(a) for a in argv]))
    except ConfigError as exc:
        return f"error: {exc}"


def _required_flags(command, but=None):
    return [arg for flag in cli._COMMANDS[command].required if flag != but
            for arg in (f"--{flag}", _FLAG_VALUES[flag])]


@pytest.mark.parametrize("value", ["given", "empty"])
@pytest.mark.parametrize("command, flag", _TABLE)
def test_flag_and_config_key_give_equal_configs(tmp_path, command, flag, value):
    text = _FLAG_VALUES[flag] if value == "given" else ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag.replace('-', '_')} = {text}\n")
    base = [command, *_required_flags(command, but=flag)]
    by_flag = _config_or_error([*base, f"--{flag}", text])
    by_key = _config_or_error([*base, "--config", cfg])
    assert by_flag == by_key
    if value == "given":  # the value took effect
        assert isinstance(by_flag, cli.RunConfig) and by_flag != _config_or_error(base)


@pytest.mark.parametrize("flag, expected", [
    ("models", "error: at least one model must be selected"),
    ("lead", []),
    ("stations", []),
])
def test_empty_list_flags_act_like_empty_config_keys(flag, expected):
    # models = is an error, leads = is every lead, stations = is no station
    got = _config_or_error(["fit", *_required_flags("fit"), f"--{flag}", ""])
    if isinstance(expected, str):
        assert got == expected
    else:
        assert getattr(got, "leads" if flag == "lead" else flag) == expected


def test_the_option_table_lists_each_subcommands_flags_and_required_options():
    # written out here, so that a flag dropped from or added to the table shows
    assert {name: (command.flags, command.required)
            for name, command in cli._COMMANDS.items()} == {
        "simulate": (("out", "lead", "seed", "n-days", "n-stations", "m-members",
                      "start-date", "dgp", "ens-bias", "ens-dispersion"),
                     ("out",)),
        "fit": (("data", "out", "models", "lead", "stations", "train-start", "train-end",
                 "max-iter"),
                ("out", "train-start", "train-end", "data")),
        "predict": (("data", "out", "models", "lead", "stations", "valid-start", "valid-end",
                     "models-dir"),
                    ("out", "models-dir", "data", "valid-start", "valid-end")),
        "verify": (("data", "out", "lead", "stations", "train-start", "train-end",
                    "predictions", "models-dir"),
                   ("out", "predictions", "data")),
    }


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_subcommand_takes_config_and_its_own_flags(command, capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, flags=re.M)
    assert listed == ["--config"] + [f"--{flag}" for flag in cli._COMMANDS[command].flags]


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in sorted(cli._COMMANDS)
    for flag in sorted({flag for _, flag in _TABLE} - set(cli._COMMANDS[command].flags))])
def test_flag_a_subcommand_does_not_read_exits_2(tmp_path, monkeypatch, capsys, command,
                                                 flag):
    monkeypatch.chdir(tmp_path)
    assert run(command, *_required_flags(command), f"--{flag}", _FLAG_VALUES[flag]) == 2
    err = capsys.readouterr().err
    assert err == f"error[config]: unrecognized arguments: --{flag} {_FLAG_VALUES[flag]}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag", [
    (name, flag) for name, command in cli._COMMANDS.items() for flag in command.required])
def test_missing_required_option_is_a_config_error_before_any_data_error(
        tmp_path, monkeypatch, capsys, command, flag):
    # no path given exists: a data error would come first if the check ran later
    monkeypatch.chdir(tmp_path)
    assert run(command, *_required_flags(command, but=flag)) == 2
    assert capsys.readouterr().err == f"error[config]: {command} needs --{flag}\n"


@pytest.mark.parametrize("key", ["settings", "n-days"])
def test_config_key_that_is_no_run_option_is_a_config_error(tmp_path, capsys, key):
    # settings is a RunConfig method, not an option; keys spell "-" as "_"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    assert run("fit", "--config", cfg, *_required_flags("fit")) == 2
    assert capsys.readouterr().err == f"error[config]: unknown config key {key!r}\n"


def test_malformed_numeric_flag_uses_the_config_file_wording(tmp_path, capsys):
    assert run("simulate", "--out", tmp_path / "sim", "--seed", "x") == 2
    assert capsys.readouterr().err == "error[config]: seed must be an integer, got 'x'\n"
    assert run("simulate", "--out", tmp_path / "sim", "--ens-bias", "") == 2
    assert capsys.readouterr().err == "error[config]: ens_bias must be a number, got ''\n"
    assert not (tmp_path / "sim").exists()


# ---------------------------------------------------------------------------
# lead times
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lead, message", [
    ("0", "lead times must be >= 1 h, got [0]"),
    ("24,-24", "lead times must be >= 1 h, got [24, -24]"),
    ("24,72,24", "lead times must be distinct, got [24, 72, 24]"),
])
def test_simulate_rejects_leads_below_one_hour_and_repeated_leads(tmp_path, capsys, lead,
                                                                   message):
    # simulate --lead 24,24 would overwrite the first world with the second
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--n-days", 150, "--lead", lead) == 2
    assert capsys.readouterr().err == f"error[config]: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("lead", ["0", "-24"])
@pytest.mark.parametrize("command", ["fit", "predict", "verify"])
def test_a_station_file_below_one_hour_is_one_data_error_before_any_output(
        tmp_path, capsys, command, lead):
    # a 0 h forecast would read the observation it is scored on
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    series, _ = generate_synthetic(SyntheticConfig(n_days=400, lead_time_h=24, seed=3))
    write_station_csv(series, data / f"station_S01_{lead}h.csv")
    (tmp_path / "fits").mkdir()
    (tmp_path / "predictions.csv").write_text(",".join(cli._PREDICTIONS_HEADER) + "\n"
                                              f"EMOS,S01,{lead},2016-01-01,10.0,1.0\n")
    extra = {"fit": ["--train-start", "2015-01-01", "--train-end", "2015-12-01"],
             "predict": ["--models-dir", tmp_path / "fits",
                         "--valid-start", "2015-12-02", "--valid-end", "2016-01-20"],
             "verify": ["--predictions", tmp_path / "predictions.csv"]}[command]
    assert run(command, "--data", data, "--out", out, "--lead", "", *extra) == 3
    assert capsys.readouterr().err == (f"error[data]: lead time must be >= 1 h, got {lead} h"
                                       f" in file name station_S01_{lead}h.csv\n")
    assert not out.exists()


def test_an_ensemble_error_in_a_station_file_names_the_file(tmp_path, capsys):
    # finite members whose mean overflows on one row
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    series, _ = generate_synthetic(SyntheticConfig(n_days=400, lead_time_h=24, seed=3))
    path = data / "station_S01_24h.csv"
    write_station_csv(series, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[101][4:6] = ["1e308", "1.7e308"]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run("fit", "--data", data, "--out", out, "--lead", "24", "--models", "emos",
               "--train-start", "2015-01-01", "--train-end", "2015-12-01") == 3
    assert capsys.readouterr().err == (f"error[data]: {path}: ensemble members, mean or sd"
                                       f" not finite on {rows[101][1]}\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# fuzzed invocations
# ---------------------------------------------------------------------------

_FUZZ_VALUES = ["", ",", "-1", "0", "24", "24,72", "nan", "inf", "2015", "2015-01-01",
                "all", "x"]
# no example writes thousands of station files or members
_FUZZ_SIZES = [v for v in _FUZZ_VALUES if v != "2015"]


@pytest.fixture(scope="module")
def fuzz_dirs(tmp_path_factory):
    """The stand-ins of ``_invocations``: an empty data directory and a
    150-day simulated one."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "empty").mkdir()
    assert run("simulate", "--out", root / "world", "--n-days", 150, "--seed", 4,
               "--lead", "24,72") == 0
    return {"<empty>": str(root / "empty"), "<world>": str(root / "world")}


@st.composite
def _invocations(draw):
    """A subcommand with a random subset of its flags; ``--data`` is one of
    the stand-ins of ``fuzz_dirs`` and ``--out`` is ``<out>``."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = draw(st.lists(st.sampled_from(cli._COMMANDS[command].flags), unique=True))
    argv = [command]
    for flag in flags:
        if flag == "data":
            value = draw(st.sampled_from(["<empty>", "<world>"]))
        elif flag == "out":
            value = "<out>"
        else:
            pool = _FUZZ_SIZES if flag in ("n-stations", "m-members") else _FUZZ_VALUES
            value = draw(st.sampled_from(pool) | st.integers(1, 30).map(str))
        argv += [f"--{flag}", value]
    return argv


_TRAIN = ["--train-start", "2015-01-01", "--train-end", "2015-05-01"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_invocations())
@example(argv=["simulate", "--out", "<out>", "--seed", "-1"])
@example(argv=["simulate", "--out", "<out>", "--ens-bias", "nan"])
@example(argv=["simulate", "--out", "<out>", "--n-days", "24", "--lead", "24,72"])
@example(argv=["fit", "--data", "<world>", "--out", "<out>", *_TRAIN])
@example(argv=["fit", "--data", "<world>", "--out", "<out>", "--models", "emos", *_TRAIN])
@example(argv=["predict", "--data", "<world>", "--out", "<out>", "--models-dir", "x",
               "--valid-start", "2015-05-02", "--valid-end", "2015-05-30"])
@example(argv=["verify", "--data", "<empty>", "--out", "<out>", "--predictions", "x"])
def test_fuzzed_invocations_keep_the_exit_code_contract(tmp_path_factory, fuzz_dirs, argv):
    stand_ins = {**fuzz_dirs, "<out>": str(tmp_path_factory.mktemp("fuzzout") / "out")}
    argv = [stand_ins.get(a, a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err
    if code:
        assert [line.startswith("error[") for line in err.splitlines()].count(True) == 1, \
            (argv, err)
