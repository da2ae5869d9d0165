import csv
import json

import numpy as np
import pytest

from enspost.cli import main, parse_config_file
from enspost.data import load_station_csv


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


def test_disjoint_ranges_enforced(tmp_path):
    assert run("fit", "--data", tmp_path, "--out", tmp_path / "f",
               "--train-start", "2015-01-01", "--train-end", "2016-01-01",
               "--valid-start", "2015-06-01", "--valid-end", "2016-06-01") == 2


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
    ("lead_time_h", "24h"), ("mu", "abc"), ("sigma", ""), ("date", "2017-13-45")])
def test_unparsable_prediction_row_is_data_error(pipeline, tmp_path, capsys, column, value):
    preds = _edited_predictions(pipeline, tmp_path, column, value)
    ver = tmp_path / "ver"
    assert run("verify", "--data", pipeline / "data", "--predictions", preds,
               "--out", ver, "--lead", "24") == 3
    _assert_one_error_line(capsys, "data")
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


@pytest.mark.parametrize("flags", [
    ("--start-date", "notadate"),
    ("--start-date", "NaT"),
    ("--n-stations", "0"),
    ("--n-days", "1"),
    ("--ens-dispersion", "-1"),
], ids=["start_date", "start_date_nat", "n_stations", "n_days", "ens_dispersion"])
def test_invalid_simulate_config_leaves_no_out_dir(tmp_path, capsys, flags):
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--n-days", 150, *flags) == 2
    _assert_one_error_line(capsys, "config")
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
