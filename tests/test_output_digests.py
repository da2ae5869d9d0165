"""Recorded SHA-256 digests of every CLI output of three small runs.

Each run is ``simulate -> fit -> predict -> verify`` on one world: 1
station, leads 24 and 72 h, all six models, trained on 2015-2019 and
validated on 2020.  The test reruns them in-process and compares every
file's digest with ``output_digests.json``, so an output that changes its
bytes fails here until the manifest is regenerated, from the repository
root, with

    PYTHONPATH=src python tests/test_output_digests.py

The bytes depend on the numpy and scipy builds and the BLAS they carry, so
the manifest records those versions and a mismatch fails naming both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from enspost.cli import main

MANIFEST = Path(__file__).with_name("output_digests.json")
WORLDS = {"sar": 12, "dar-garch": 3, "dar": 7}  # dgp -> run seed


def versions() -> dict:
    """The library builds the output bytes depend on."""
    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"
    return {"numpy": np.__version__, "numpy_blas": blas(np.show_config),
            "scipy": scipy.__version__, "scipy_blas": blas(scipy.show_config)}


def run_world(root: Path, dgp: str, seed: int) -> dict:
    """Run the four subcommands under ``root``; {relative path: SHA-256} of
    every file they write."""
    data, fits, preds, ver = (root / name for name in ("data", "fits", "preds", "ver"))
    leads = ("--lead", "24,72")
    train = ("--train-start", "2015-01-01", "--train-end", "2019-12-31")
    steps = [
        ("simulate", "--out", data, "--n-days", "2192", "--n-stations", "1", *leads,
         "--seed", seed, "--dgp", dgp),
        ("fit", "--data", data, "--out", fits, "--models", "all", *leads, *train),
        ("predict", "--data", data, "--models-dir", fits, "--out", preds, "--models", "all",
         *leads, "--valid-start", "2020-01-01", "--valid-end", "2020-12-31"),
        ("verify", "--data", data, "--predictions", preds / "predictions.csv",
         "--models-dir", fits, "--out", ver, *leads, *train),
    ]
    for step in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([str(arg) for arg in step])
        assert code == 0, f"{dgp} seed {seed}: {step[0]} exited {code}"
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("dgp", list(WORLDS))
def test_cli_outputs_match_the_recorded_digests(dgp, tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["versions"] == versions(), (
        f"{MANIFEST.name} was recorded with {manifest['versions']}, this run has "
        f"{versions()}; regenerate it with: {manifest['command']}")
    recorded = manifest["runs"][f"{dgp}-{WORLDS[dgp]}"]
    found = run_world(tmp_path, dgp, WORLDS[dgp])
    changed = sorted(name for name in recorded.keys() | found.keys()
                     if recorded.get(name) != found.get(name))
    assert not changed, f"{dgp} seed {WORLDS[dgp]}: outputs differ from {MANIFEST.name}: {changed}"


def write_manifest() -> None:
    runs = {}
    for dgp, seed in WORLDS.items():
        with tempfile.TemporaryDirectory() as root:
            runs[f"{dgp}-{seed}"] = run_world(Path(root), dgp, seed)
    doc = {"command": "PYTHONPATH=src python tests/test_output_digests.py",
           "versions": versions(), "runs": runs}
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, runs.values()))} digests of {len(runs)} runs to {MANIFEST}")


if __name__ == "__main__":
    sys.exit(write_manifest())
