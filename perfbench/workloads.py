"""The benchmark's workloads and the output checks that go with them.

Every workload runs the same four stages, simulate -> fit -> predict ->
verify, on synthetic stations drawn exactly as ``enspost simulate`` draws
them (``cli.synthetic_config``), with 5 training years (2015-2019), 2020 as
the validation year and 50 members.

* ``rolling``: EMOS and AR-EMOS on the ``sar`` world, in memory.  Both
  re-estimate for every validation date, so the time goes to thousands of
  4-parameter CRPS fits on 30-day windows (``optimize`` on small problems,
  ``scoring`` on 30-element arrays, golden-section searches) and to
  Yule-Walker fits with 1-5-step AR recursions.  No seasonal fit, no GARCH,
  no file I/O.
* ``pipeline``: the CLI run users make, all six models through
  ``enspost.cli.main`` and files; the only workload that writes and parses
  CSV and JSON files, fits the seasonal models (joint 20-26 parameter fits
  over 1,826 days with finite-difference gradients, and GARCH fits) and
  runs the full verify battery.  Its predict stage is the same rolling
  re-estimation as ``rolling``, at leads 24 and 72 h.

Both do the same number of rolling fits whatever the seed, so their work
hardly depends on it.  A workload of the four seasonal models alone was
tried and dropped: how long their fits take depends on the noise
realisation (over 20 station draws the fits of one station at two leads
took 6.7 to 15.5 s on a 2-core Xeon, because the optimizer's iteration
counts differ), so even with six stations, about 80 s a run, the total's
spread over seeds 1-7 was 0.29 of its median.  In the pipeline the
seasonal fits are about a quarter of the total, which keeps their
seed-driven spread small there; at one lead instead of two the pipeline's
total spread past a quarter of its median.

On a shared 2-core host the speed for identical work drifts: the
pipeline's median total was 32.5 s in one hour and 15.6 s in the next, runs
a few minutes apart differ by up to a quarter, and within a run the speed
swings between spells of 5-20 s.  ``rolling`` therefore makes three passes over the
same inputs and counts each (model, cell) prediction, a unit of 3-7 s, at
its fastest pass; over seeds 1-4 that cut the total's spread from 0.22
(first passes only) to 0.15 of the median.  It does not remove the slow
phases that last a whole run.  The pipeline's units are whole CLI steps, up
to 25 s long, and with two passes its total still spread by 0.18 over
seeds 1-5, so it makes one pass.

The traced run covers a smaller workload (``traced_subset``): rolling at
lead 120 h only, and the pipeline at lead 72 h only.  It makes
the untraced passes and then two traced passes, and on the full workloads
that would take longer than a run may (180 s).

Accuracy is reported as the ratio of the mean validation CRPS over the
(model, station, lead) cells to the mean CRPS of the generator's exact
conditional distribution (``data.SyntheticTruth``) on the same cells and
days.  The CRPS in degrees moves by about a tenth between seeds with the
noise realisation; the ratio moves by a few hundredths.

``rolling`` times only the calls into the program (``data``, ``models``,
``scoring``, ``verify``); the pipeline times each CLI step.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from enspost import cli, data, models, scoring, verify

STAGES = ("simulate", "fit", "predict", "verify")

N_DAYS = 2192           # 2015-01-01 .. 2020-12-31
N_MEMBERS = 50
N_STATIONS = 1          # the run time goes to passes and leads instead (see above)
START_DATE = "2015-01-01"
TRAIN = ("2015-01-01", "2019-12-31")
VALID = ("2020-01-01", "2020-12-31")
LJUNG_BOX_LAGS = (1, 5, 10)
ALPHA = 0.05
PIT_BINS = 10
ROLLING_KINDS = tuple(k for k in models.MODEL_KINDS if k not in models.SEASONAL_KINDS)


@dataclass(frozen=True)
class Workload:
    name: str
    world: str                  # synthetic world, as `enspost simulate --dgp`
    leads: tuple[int, ...]
    kinds: tuple[str, ...]
    via_cli: bool
    trace_leads: tuple[int, ...]  # leads of the traced run
    passes: int                 # passes of a run; a unit's time is its fastest pass

    def run_config(self, seed: int) -> cli.RunConfig:
        return cli.RunConfig(leads=list(self.leads), n_days=N_DAYS, n_stations=N_STATIONS,
                             m_members=N_MEMBERS, seed=seed, start_date=START_DATE,
                             dgp=self.world)

    def sizes(self) -> dict:
        return {"stations": N_STATIONS, "leads_h": list(self.leads),
                "models": list(self.kinds), "training_days": _days(TRAIN),
                "validation_days": _days(VALID), "members": N_MEMBERS, "world": self.world,
                "interface": "cli" if self.via_cli else "library", "passes": self.passes,
                "traced_run_leads_h": list(self.trace_leads)}

    def traced_subset(self) -> Workload:
        """The smaller workload the traced run covers."""
        return dataclasses.replace(self, leads=self.trace_leads)


def _days(span: tuple[str, str]) -> int:
    return int((np.datetime64(span[1]) - np.datetime64(span[0])) / np.timedelta64(1, "D")) + 1


WORKLOADS = {
    w.name: w for w in (
        Workload("rolling", "sar", (24, 120), ROLLING_KINDS, False, (120,), 3),
        Workload("pipeline", "sar", (24, 72), models.MODEL_KINDS, True, (72,), 1),
    )
}


@dataclass
class Iteration:
    """Outcome of the passes of one run through the four stages."""

    unit_seconds: dict = field(default_factory=dict)  # (stage, unit) -> seconds, one per pass
    attempted: int = 0
    failed: int = 0
    cell_crps: dict = field(default_factory=dict)   # (kind, station, lead) -> mean CRPS
    truth_crps: dict = field(default_factory=dict)  # (station, lead) -> mean CRPS of the truth
    problems: list = field(default_factory=list)    # failed output checks

    def timed(self, stage: str, unit, seconds: float) -> None:
        self.unit_seconds.setdefault((stage, unit), []).append(seconds)

    @property
    def stage_seconds(self) -> dict:
        """Per stage, the sum over its units of each unit's fastest pass."""
        out = dict.fromkeys(STAGES, 0.0)
        for (stage, _), seconds in self.unit_seconds.items():
            out[stage] += min(seconds)
        return out

    def pass_seconds(self) -> list[float]:
        """The sum of all stage times of each pass."""
        return [sum(unit) for unit in zip(*self.unit_seconds.values())]

    def fail(self, what: str, n_ops: int = 1) -> None:
        self.failed += n_ops
        self.problems.append(what)

    def record_crps(self, cell_crps: dict) -> None:
        """Keep the first pass's CRPS per cell; every later pass must repeat it."""
        if not self.cell_crps:
            self.cell_crps = cell_crps
        elif cell_crps != self.cell_crps:
            self.problems.append("validation CRPS differs between passes of one seed")

    def crps_ratio(self) -> float:
        """Mean CRPS over the scored cells / mean CRPS of the truth on them."""
        if not self.cell_crps or any(key[1:] not in self.truth_crps for key in self.cell_crps):
            return 0.0  # the run is already marked incorrect
        truth = [self.truth_crps[key[1:]] for key in self.cell_crps]
        return float(np.mean(list(self.cell_crps.values())) / np.mean(truth))


def crps_gaussian(mu, sigma, y):
    """Closed-form CRPS of N(mu, sigma^2), written out here so the program's
    scores are checked against a formula the program does not supply."""
    z = (y - mu) / sigma
    pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return sigma * (z * (2.0 * ndtr(z) - 1.0) + 2.0 * pdf - 1.0 / np.sqrt(np.pi))


def _report(exc_context: str) -> None:
    print(f"bench: {exc_context} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# library workload (rolling)
# ---------------------------------------------------------------------------


def run_library(w: Workload, seed: int, span, passes: int) -> Iteration:
    """``passes`` passes in memory.  ``span(name)`` is a context manager that
    wraps the calls of each stage, as ``bench.<stage>`` (a no-op when
    untraced)."""
    it = Iteration()
    cfg = w.run_config(seed)
    syn_cfgs = [cli.synthetic_config(cfg, si, li)
                for si in range(N_STATIONS) for li in range(len(w.leads))]
    for _ in range(passes):
        _library_pass(w, syn_cfgs, span, it)
    return it


def _library_pass(w: Workload, syn_cfgs: list, span, it: Iteration) -> None:
    t0 = time.perf_counter()
    with span("bench.simulate"):
        drawn = [data.generate_synthetic(syn) for syn in syn_cfgs]
    it.timed("simulate", None, time.perf_counter() - t0)
    all_series, all_truth = zip(*drawn)
    cells = [(s.station_id, s.lead_time_h) for s in all_series]
    series_of = dict(zip(cells, all_series))
    train_of = {c: s.window(*TRAIN) for c, s in series_of.items()}
    valid_idx = {c: np.flatnonzero((s.dates >= np.datetime64(VALID[0]))
                                   & (s.dates <= np.datetime64(VALID[1])))
                 for c, s in series_of.items()}
    for cell, truth in zip(cells, all_truth):
        idx = valid_idx[cell]
        it.truth_crps[cell] = float(np.mean(
            crps_gaussian(truth.mu[idx], truth.sigma[idx], series_of[cell].obs[idx])))

    # Each model is fitted and then used to predict before the next is fitted,
    # so the short predict stage is spread over the pass like the fit stage
    # and both see the same mix of the host's fast and slow spells.
    fitted, predictions = {}, {}
    for cell in cells:
        dates = series_of[cell].dates[valid_idx[cell]]
        for kind in w.kinds:
            key = (kind, *cell)
            it.attempted += 2
            t0 = time.perf_counter()
            try:
                with span("bench.fit"):
                    fitted[key] = models.fit(kind, train_of[cell])
            except Exception:
                _report(f"fit {key}")
                it.fail(f"fit {key}")
                it.fail(f"predict {key}: no fitted model")
                continue
            finally:
                it.timed("fit", key, time.perf_counter() - t0)
            t0 = time.perf_counter()
            try:
                with span("bench.predict"):
                    mu, sigma = models.predict(fitted[key], series_of[cell], dates)
            except Exception:
                _report(f"predict {key}")
                it.fail(f"predict {key}")
                continue
            finally:
                it.timed("predict", key, time.perf_counter() - t0)
            if _valid_gaussian(mu, sigma, dates.size):
                predictions[key] = (np.asarray(mu), np.asarray(sigma))
            else:
                it.fail(f"predict {key}: non-finite mu, sigma <= 0 or wrong length")

    def verify_stage():
        table = verify.ScoreTable()
        pit = {}
        crps = {}
        for (kind, station, lead), (mu, sigma) in predictions.items():
            s = series_of[(station, lead)]
            idx = valid_idx[(station, lead)]
            sample = scoring.score_cases(mu, sigma, s.obs[idx],
                                         scoring.m_member_level(s.n_members))
            table.add_sample(kind, station, lead, sample, dates=s.dates[idx])
            pit.setdefault(kind, []).append(sample.pit)
            crps[(kind, station, lead)] = sample.crps
        verify.significance_matrix(table, alpha=ALPHA)
        for kind_pits in pit.values():
            verify.pit_histogram(np.concatenate(kind_pits), bins=PIT_BINS)
        residuals = {}
        for (kind, station, lead), model in fitted.items():
            if model.train_residuals is not None:  # static fits only
                residuals.setdefault(kind, []).append(model.train_residuals)
        if residuals:
            verify.residual_dependence_table(residuals, lags=LJUNG_BOX_LAGS, alpha=ALPHA)
        return crps

    t0 = time.perf_counter()
    with span("bench.verify"):
        try:
            case_crps = verify_stage()
        except Exception:
            _report("verify")
            it.problems.append("verify raised")
            case_crps = {}
    it.timed("verify", None, time.perf_counter() - t0)

    cell_crps = {}
    for key, crps in case_crps.items():
        mu, sigma = predictions[key]
        s = series_of[key[1:]]
        reference = crps_gaussian(mu, sigma, s.obs[valid_idx[key[1:]]])
        if not np.allclose(crps, reference, rtol=1e-9, atol=1e-12):
            it.problems.append(f"CRPS of {key} disagrees with the closed form")
        cell_crps[key] = float(np.mean(crps))
    it.record_crps(cell_crps)


def _valid_gaussian(mu, sigma, n: int) -> bool:
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return (mu.shape == (n,) and sigma.shape == (n,) and bool(np.all(np.isfinite(mu)))
            and bool(np.all(np.isfinite(sigma))) and bool(np.all(sigma > 0)))


# ---------------------------------------------------------------------------
# CLI workload (pipeline)
# ---------------------------------------------------------------------------


def _cli_steps(w: Workload, seed: int, root: Path) -> dict:
    dirs = {n: str(root / n) for n in ("data", "fits", "preds", "ver")}
    leads = ",".join(str(v) for v in w.leads)
    train = ["--train-start", TRAIN[0], "--train-end", TRAIN[1]]
    return {
        "simulate": ["simulate", "--out", dirs["data"], "--n-days", str(N_DAYS),
                     "--n-stations", str(N_STATIONS), "--m-members", str(N_MEMBERS),
                     "--start-date", START_DATE, "--lead", leads, "--seed", str(seed),
                     "--dgp", w.world],
        "fit": ["fit", "--data", dirs["data"], "--out", dirs["fits"], "--models", "all",
                "--lead", leads, *train],
        "predict": ["predict", "--data", dirs["data"], "--models-dir", dirs["fits"],
                    "--out", dirs["preds"], "--models", "all", "--lead", leads,
                    "--valid-start", VALID[0], "--valid-end", VALID[1]],
        "verify": ["verify", "--data", dirs["data"],
                   "--predictions", str(root / "preds" / "predictions.csv"),
                   "--models-dir", dirs["fits"], "--out", dirs["ver"], "--lead", leads, *train],
    }


def _main(argv: list[str]) -> int:
    """``cli.main`` with its progress lines discarded; a traceback is an
    exit code of 1, as it would be for a user."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:
        _report(f"enspost {argv[0]}")
        return 1


def run_pipeline(w: Workload, seed: int, span, workdir: Path, passes: int) -> Iteration:
    """``passes`` passes through ``enspost simulate|fit|predict|verify``, each
    in a fresh directory under ``workdir``; ``span(name)`` wraps each step as
    ``cli.<stage>``."""
    it = Iteration()
    n_ops = N_STATIONS * len(w.leads) * len(w.kinds)
    for p in range(passes):
        root = workdir / f"run-{seed}-{p}"
        shutil.rmtree(root, ignore_errors=True)
        steps = _cli_steps(w, seed, root)
        codes = {}
        for stage in STAGES:
            if stage in ("fit", "predict"):
                it.attempted += n_ops
            t0 = time.perf_counter()
            with span(f"cli.{stage}"):
                code = _main(steps[stage])
            it.timed(stage, None, time.perf_counter() - t0)
            if code != 0 and stage in ("fit", "predict"):
                it.fail(f"enspost {stage} exited {code}", n_ops)
            elif code != 0:
                it.problems.append(f"enspost {stage} exited {code}")
            codes[stage] = code
        if all(code == 0 for code in codes.values()):
            _check_pipeline_outputs(w, root, it)
        shutil.rmtree(root, ignore_errors=True)
    return it


def _check_pipeline_outputs(w: Workload, root: Path, it: Iteration) -> None:
    """predictions.csv and scores.csv have the expected rows; every
    prediction is a valid Gaussian; the scores match the closed form."""
    grouped = {}
    with open(root / "preds" / "predictions.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["model"], row["station_id"], int(row["lead_time_h"]))
            grouped.setdefault(key, []).append(
                (row["date"], float(row["mu"]), float(row["sigma"])))
    cells = [(f"S{si + 1:02d}", lead) for si in range(N_STATIONS) for lead in w.leads]
    obs = {}
    for station, lead in cells:
        series = data.load_station_csv(root / "data" / f"station_{station}_{lead}h.csv")
        mask = (series.dates >= np.datetime64(VALID[0])) & (series.dates <= np.datetime64(VALID[1]))
        obs[(station, lead)] = (series.dates[mask].astype(str).tolist(), series.obs[mask])
        truth = np.genfromtxt(root / "data" / f"truth_{station}_{lead}h.csv", delimiter=",",
                              names=True, dtype=None, encoding="ascii")
        if truth["date"].astype(str).tolist() != series.dates.astype(str).tolist():
            it.problems.append(f"truth sidecar of {(station, lead)} has other dates")
            continue
        it.truth_crps[(station, lead)] = float(np.mean(
            crps_gaussian(truth["mu"][mask], truth["sigma"][mask], series.obs[mask])))

    scores = {}
    with open(root / "ver" / "scores.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["method"], row["station_id"], int(row["lead_time_h"]))
            if key in scores:
                it.problems.append(f"scores.csv repeats {key}")
            scores[key] = float(row["mean_crps"])

    expected = [(kind, *cell) for kind in w.kinds for cell in cells]
    cell_crps = {}
    if set(grouped) - set(expected):
        it.problems.append(f"predictions.csv has unexpected cells {sorted(set(grouped) - set(expected))}")
    if set(scores) != set(expected):
        it.problems.append("scores.csv does not have one row per (model, station, lead)")
    for key in expected:
        dates, y = obs[key[1:]]
        rows = sorted(grouped.get(key, []))
        mu = np.array([r[1] for r in rows])
        sigma = np.array([r[2] for r in rows])
        if [r[0] for r in rows] != dates or not _valid_gaussian(mu, sigma, len(dates)):
            it.fail(f"predictions.csv rows of {key}: missing, non-finite or sigma <= 0")
            continue
        crps = float(np.mean(crps_gaussian(mu, sigma, y)))
        # scores.csv carries 6 decimals
        if key in scores and abs(scores[key] - crps) > 1e-6:
            it.problems.append(f"scores.csv CRPS of {key} is {scores[key]}, closed form {crps}")
        cell_crps[key] = crps
    it.record_crps(cell_crps)


def run_iteration(w: Workload, seed: int, span, workdir: Path, passes: int) -> Iteration:
    """``passes`` passes through the four stages."""
    if w.via_cli:
        return run_pipeline(w, seed, span, workdir, passes)
    return run_library(w, seed, span, passes)
