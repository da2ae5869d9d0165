"""Print the memory each CLI step takes: the traced allocation peak and the RSS.

It runs ``simulate -> fit -> predict -> verify`` in one process on one
world, as the benchmark's ``pipeline`` workload does (1 station, 50
members, leads 24 and 72 h, all six models, trained on 2015-2019 and
validated on 2020).  Run it from the repository root with

    PYTHONPATH=src python tests/memory_peaks.py WORLD SEED

where WORLD is a ``simulate --dgp`` world (sar, dar, dar-garch).  The
first row, ``imports``, is the RSS right after ``import enspost.cli``, the
share of every later high-water mark that the imports hold.  Two passes
run, each into its own temporary directory.  The first is untraced
and gives ``max_rss_mb``, the process's RSS high-water mark
(``ru_maxrss / 1024``, as the benchmark's ``peak_rss_mb``) after each step:
a cumulative mark, so a step shows only when it raises it.  The second
runs under ``tracemalloc`` and gives ``traced_peak_mib``, the largest
amount of memory Python and numpy held at once during the step; tracing
slows the steps and inflates the RSS, so it comes second.
"""

from __future__ import annotations

import contextlib
import io
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

from enspost import cli


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


IMPORT_RSS_MB = _max_rss_mb()
STEPS = ("simulate", "fit", "predict", "verify")


def _argvs(root: Path, world: str, seed: int, n_days: int, models: str, train,
           valid) -> list[list[str]]:
    data, fits, preds, ver = (str(root / name) for name in ("data", "fits", "preds", "ver"))
    leads = ["--lead", "24,72"]
    train = ["--train-start", train[0], "--train-end", train[1]]
    return [
        ["simulate", "--out", data, "--n-days", str(n_days), "--n-stations", "1",
         "--m-members", "50", "--start-date", "2015-01-01", *leads, "--seed", str(seed),
         "--dgp", world],
        ["fit", "--data", data, "--out", fits, "--models", models, *leads, *train],
        ["predict", "--data", data, "--models-dir", fits, "--out", preds, "--models", models,
         *leads, "--valid-start", valid[0], "--valid-end", valid[1]],
        ["verify", "--data", data, "--predictions", str(Path(preds) / "predictions.csv"),
         "--models-dir", fits, "--out", ver, *leads, *train],
    ]


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"enspost {argv[0]} exited {code}")


def measure(world: str, seed: int, n_days: int = 2192, models: str = "all",
            train=("2015-01-01", "2019-12-31"),
            valid=("2020-01-01", "2020-12-31")) -> dict[str, tuple[float | None, float]]:
    """{row: (traced_peak_mib, max_rss_mb)}: first ``imports`` (not traced),
    then the four steps on one world; the defaults are the benchmark's
    ``pipeline`` run."""
    def argvs(root):
        return zip(STEPS, _argvs(Path(root), world, seed, n_days, models, train, valid))

    rss = {}
    with tempfile.TemporaryDirectory() as root:
        for step, argv in argvs(root):
            _run(argv)
            rss[step] = _max_rss_mb()
    traced = {}
    with tempfile.TemporaryDirectory() as root:
        tracemalloc.start()
        try:
            for step, argv in argvs(root):
                tracemalloc.reset_peak()
                _run(argv)
                traced[step] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return {"imports": (None, IMPORT_RSS_MB),
            **{step: (traced[step], rss[step]) for step in STEPS}}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/memory_peaks.py WORLD SEED", file=sys.stderr)
        return 2
    world, seed = argv[0], int(argv[1])
    print(f"{'step':<10}{'traced_peak_mib':>16}{'max_rss_mb':>12}")
    for row, (traced, rss) in measure(world, seed).items():
        print(f"{row:<10}{'-' if traced is None else f'{traced:.3f}':>16}{rss:>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
