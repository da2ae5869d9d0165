"""The drift reporter (``output_drift.py``) names what a one-digit edit changes."""

import hashlib
import json
import shutil

import pytest

from enspost.data import SyntheticConfig, generate_synthetic, write_station_csv, write_truth_csv

from output_drift import report


@pytest.fixture
def trees(tmp_path):
    """Two identical output trees of one small synthetic station."""
    old = tmp_path / "old"
    (old / "data").mkdir(parents=True)
    series, truth = generate_synthetic(SyntheticConfig(n_days=60, m=5, seed=3))
    write_station_csv(series, old / "data" / "station.csv")
    write_truth_csv(series.dates, truth, old / "data" / "truth.csv")
    fit = {"kind": "SEMOS", "loc": [0.5, 1.25], "meta": {"train_crps": 0.75}}
    (old / "fit.json").write_text(json.dumps(fit, indent=2))
    shutil.copytree(old, tmp_path / "new")
    return old, tmp_path / "new"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_identical_trees_report_nothing(trees):
    assert report(*trees) == []


def test_last_printed_digit_of_one_csv_value_names_that_file_and_column(trees):
    old, new = trees
    path = new / "data" / "truth.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[7].split(",")  # date,mu,sigma,...: sigma of the 7th date
    last = fields[2][-1]
    fields[2] = fields[2][:-1] + ("1" if last == "0" else "0")
    lines[7] = ",".join(fields)
    path.write_text("".join(lines))

    assert _sha256(path) != _sha256(old / "data" / "truth.csv")
    found = report(old, new)
    assert found[0] == "changed data/truth.csv"
    assert len(found) == 2 and found[1].startswith("  sigma: 1 of 60 values differ, max abs ")
    gap = float(found[1].split("max abs ")[1].split(",")[0])
    assert 1e-9 <= gap <= 9e-9


def test_json_leaf_and_added_and_removed_files_are_named(trees):
    old, new = trees
    fit = json.loads((new / "fit.json").read_text())
    fit["loc"][1] = 1.5
    (new / "fit.json").write_text(json.dumps(fit, indent=2))
    (new / "data" / "station.csv").rename(new / "data" / "station_S01.csv")

    assert report(old, new) == [
        "removed data/station.csv",
        "added data/station_S01.csv",
        "changed fit.json",
        "  loc: 1 of 2 values differ, max abs 0.25, max rel 0.167",
    ]
