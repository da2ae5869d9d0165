"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The heavy criteria (3, 5, 6, 10, 11) fit real models on multi-year
synthetic data and take a few minutes together.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

from enspost import models
from enspost.cli import RunConfig, synthetic_config
from enspost.cli import main as cli_main
from enspost.data import StationSeries, SyntheticConfig, generate_synthetic
from enspost.models import FittedModel
from enspost.optimize import numeric_gradient
from enspost.scoring import (
    GaussianParams,
    crps_ensemble,
    crps_integral,
    crps_normal,
    crps_normal_series,
    m_member_level,
    score_cases,
)
from enspost.seasonal import SeasonalCoeffs
from enspost.timeseries import ARCoeffs, GARCHCoeffs, ar_multistep, ljung_box
from enspost.verify import benjamini_hochberg, dm_test, residual_dependence_table


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. CRPS closed form vs quadrature
# ---------------------------------------------------------------------------


def test_criterion_1_crps_closed_form_vs_quadrature():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        mu = float(rng.normal(scale=5))
        sigma = float(rng.uniform(0.2, 4.0))
        y = float(rng.normal(scale=6))
        closed = crps_normal(GaussianParams(mu, sigma), y)
        quad = crps_integral(lambda z: ndtr((z - mu) / sigma), y, tol=1e-8)
        worst = max(worst, abs(closed - quad))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-6 and elapsed < 5.0,
           f"max |closed - quadrature| = {worst:.2e} over 100 cases in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. CRPS gradient identities
# ---------------------------------------------------------------------------


def test_criterion_2_crps_gradient_check():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        mu = float(rng.normal())
        sigma = float(rng.uniform(0.5, 3.0))
        y = float(rng.normal(scale=2))
        z = (y - mu) / sigma
        analytic_mu = -(2.0 * ndtr(z) - 1.0)  # d/dmu; d/dy carries the + sign
        analytic_sigma = 2.0 * np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi) - 1 / np.sqrt(np.pi)
        numeric = numeric_gradient(
            lambda v: crps_normal(GaussianParams(v[0], v[1]), y),
            np.array([mu, sigma]), 1e-6 * (1 + np.abs([mu, sigma])))
        for num, ana in ((numeric[0], analytic_mu), (numeric[1], analytic_sigma)):
            worst = max(worst, abs(num - ana) / max(abs(ana), 1e-2))
    report(2, worst <= 1e-5, f"max relative gradient error = {worst:.2e} at 50 points")


# ---------------------------------------------------------------------------
# 3. parameter recovery on a 5-year DGP with known truth
# ---------------------------------------------------------------------------


def test_criterion_3_parameter_recovery():
    true_amp = float(np.hypot(5.0, 2.0))
    ok_amp = ok_tau = ok_garch = 0
    slowest = 0.0
    for seed in range(1, 11):
        cfg = SyntheticConfig(
            n_days=1826, seed=seed,
            loc=SeasonalCoeffs(0.0, 1.0, (5.0, 2.0, 0.0, 0.0)),
            scale=SeasonalCoeffs(-0.3, 0.3, (0.15, 0.1, 0.0, 0.0)),
            ar=ARCoeffs(1, 0.0, (0.6,)),
            garch=GARCHCoeffs(0.1, 0.55, 0.35))
        series, _ = generate_synthetic(cfg)
        start = time.perf_counter()
        model = models.fit("DAR-GARCH-SEMOS", series)
        slowest = max(slowest, time.perf_counter() - start)
        ok_amp += abs(float(np.hypot(model.loc[2], model.loc[3])) - true_amp) <= 0.3
        ok_tau += abs(model.ar.tau[0] - 0.6) <= 0.1
        ok_garch += abs((model.garch.omega1 + model.garch.omega2) - 0.9) <= 0.15
    passed = ok_amp >= 8 and ok_tau >= 8 and ok_garch >= 8 and slowest < 60.0
    report(3, passed,
           f"seeds within tolerance: amplitude {ok_amp}/10, tau1 {ok_tau}/10, "
           f"omega1+omega2 {ok_garch}/10; slowest fit {slowest:.1f}s")


# ---------------------------------------------------------------------------
# 4. calibration of the generating distribution
# ---------------------------------------------------------------------------


def test_criterion_4_true_model_calibration():
    cfg = SyntheticConfig(n_days=10000, seed=404, standardized_ar=True,
                          ens_bias=1.0, ens_dispersion=0.7)
    series, truth = generate_synthetic(cfg)
    sample = score_cases(truth.mu, truth.sigma, series.obs, level=m_member_level(50))
    variance = float(np.var(sample.pit))
    ks_p = float(kstest(sample.pit, "uniform").pvalue)
    coverage = float(100.0 * np.mean(sample.covered))
    passed = (abs(variance - 0.0833) <= 0.005 and ks_p > 0.01
              and abs(coverage - 96.1) <= 1.0)
    report(4, passed,
           f"PIT variance {variance:.4f} (target 0.0833 +- 0.005), KS p {ks_p:.3f}, "
           f"coverage {coverage:.2f}% (target 96.1 +- 1.0)")


# ---------------------------------------------------------------------------
# 5. model ordering on a standardized-AR world with a miscalibrated ensemble
# ---------------------------------------------------------------------------


def test_criterion_5_model_ordering():
    n_train, n_valid = 1826, 365
    hits = 0
    details = []
    for seed in range(1, 11):
        cfg = SyntheticConfig(
            n_days=n_train + n_valid, seed=seed, standardized_ar=True,
            ens_bias=1.5, ens_dispersion=0.6,
            loc=SeasonalCoeffs(0.0, 1.0, (2.0, 1.0, 0.3, 0.2)),
            scale=SeasonalCoeffs(-0.1, 0.25, (0.15, 0.1, 0.0, 0.0)),
            ar=ARCoeffs(1, 0.0, (0.6,)))
        series, _ = generate_synthetic(cfg)
        train = series.window(end=series.dates[n_train - 1])
        dates = series.dates[n_train:]
        y = series.obs[n_train:]
        crps = {}
        for kind in models.MODEL_KINDS:
            fitted = models.fit(kind, train)
            mu, sigma = models.predict(fitted, series, dates)
            crps[kind] = float(np.mean(crps_normal_series(mu, sigma, y)))
        raw = float(np.mean([crps_ensemble(series.members[n_train + i], y[i])
                             for i in range(n_valid)]))
        ordered = crps["SAR-SEMOS"] < crps["SEMOS"] < crps["EMOS"]
        beats_raw = all(v < raw for v in crps.values())
        hits += ordered and beats_raw
        details.append(f"seed {seed}: SAR {crps['SAR-SEMOS']:.3f} SEMOS {crps['SEMOS']:.3f} "
                       f"EMOS {crps['EMOS']:.3f} raw {raw:.3f} ok={ordered and beats_raw}")
    for line in details:
        print("  " + line)
    report(5, hits >= 8, f"SAR < SEMOS < EMOS and all models < raw in {hits}/10 seeds")


# ---------------------------------------------------------------------------
# 6. residual whitening: AR captured, GARCH effects removed only by the GARCH model
# ---------------------------------------------------------------------------


def test_criterion_6_residual_whitening():
    residuals = {"DAR-SEMOS": [], "DAR-GARCH-SEMOS": []}
    for seed in range(101, 113):
        cfg = SyntheticConfig(
            n_days=1826, seed=seed,
            loc=SeasonalCoeffs(0.0, 1.0, (2.0, 1.0, 0.3, 0.2)),
            scale=SeasonalCoeffs(-0.1, 0.25, (0.15, 0.1, 0.0, 0.0)),
            ar=ARCoeffs(1, 0.0, (0.6,)),
            garch=GARCHCoeffs(0.1, 0.55, 0.35))
        series, _ = generate_synthetic(cfg)
        for kind in residuals:
            residuals[kind].append(models.fit(kind, series).train_residuals)
    table = residual_dependence_table(residuals, lags=(1, 5, 10), alpha=0.05)
    dar_plain = max(table["DAR-SEMOS"][k][0] for k in (1, 5, 10))
    dar_sq = min(table["DAR-SEMOS"][k][1] for k in (1, 5, 10))
    garch_sq = max(table["DAR-GARCH-SEMOS"][k][1] for k in (1, 5, 10))
    passed = dar_plain <= 20.0 and dar_sq > 50.0 and garch_sq < 20.0
    report(6, passed,
           f"DAR plain <= {dar_plain:.1f}%, DAR squared >= {dar_sq:.1f}%, "
           f"DAR-GARCH squared <= {garch_sq:.1f}% across 12 stations, lags 1/5/10")


# ---------------------------------------------------------------------------
# 7. statistical-test machinery: DM size, BH step-up, Ljung-Box size
# ---------------------------------------------------------------------------


def test_criterion_7_test_machinery():
    rejections = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        _, p = dm_test(rng.normal(size=1000), np.zeros(1000), "two_sided")
        rejections += p < 0.05
    dm_size = rejections / 1000

    bh = benjamini_hochberg([0.01, 0.02, 0.03, 0.04, 0.20], alpha=0.05)
    bh_ok = bh.tolist() == [True, True, True, True, False]

    lb_rejections = 0
    for seed in range(1000):
        rng = np.random.default_rng(10_000 + seed)
        _, p = ljung_box(rng.normal(size=300), 10)
        lb_rejections += p < 0.05
    lb_size = lb_rejections / 1000

    passed = abs(dm_size - 0.05) <= 0.02 and bh_ok and abs(lb_size - 0.05) <= 0.02
    report(7, passed,
           f"DM size {dm_size:.3f}, BH example rejects 4/5: {bh_ok}, LB size {lb_size:.3f}")


# ---------------------------------------------------------------------------
# 8. reduction identities
# ---------------------------------------------------------------------------


def test_criterion_8_reduction_identities():
    cfg = SyntheticConfig(n_days=1000, seed=808, standardized_ar=True)
    series, _ = generate_synthetic(cfg)
    base = models.fit("SEMOS", series.window(end=series.dates[729]))
    dates = series.dates[730:790]

    def clone(kind, ar=None, garch=None):
        return FittedModel(kind=kind, loc=base.loc.copy(), scale=base.scale.copy(),
                           ar=ar, garch=garch, meta=dict(base.meta))

    mu0, s0 = models.predict(base, series, dates)
    gaps = []
    for kind in ("DAR-SEMOS", "SAR-SEMOS"):
        mu, s = models.predict(clone(kind, ar=ARCoeffs(2, 0.0, (0.0, 0.0))), series, dates)
        gaps.append(max(np.max(np.abs(mu - mu0)), np.max(np.abs(s - s0))))
    ar = ARCoeffs(2, 0.2, (0.45, 0.15))
    mu_dar, s_dar = models.predict(clone("DAR-SEMOS", ar=ar), series, dates)
    mu_g, s_g = models.predict(
        clone("DAR-GARCH-SEMOS", ar=ar, garch=GARCHCoeffs(1.0, 0.0, 0.0)), series, dates)
    gaps.append(max(np.max(np.abs(mu_g - mu_dar)), np.max(np.abs(s_g - s_dar))))
    worst = max(gaps)
    report(8, worst <= 1e-12,
           f"max prediction gap across the three identities = {worst:.2e}")


# ---------------------------------------------------------------------------
# 9. lead-time recursion and no look-ahead
# ---------------------------------------------------------------------------


def test_criterion_9_lead_time_recursion():
    hand = ar_multistep(ARCoeffs(1, 0.0, (0.5,)), [1.0], 2)
    hand_ok = np.allclose(hand, [0.5, 0.25], atol=1e-12)

    cfg = SyntheticConfig(n_days=1000, seed=909, lead_time_h=72,
                          ar=ARCoeffs(1, 0.0, (0.65,)))
    series, _ = generate_synthetic(cfg)
    train = series.window(end=series.dates[799])
    dates = series.dates[850:900]
    invariant = True
    for kind in ("DAR-SEMOS", "SAR-SEMOS", "DAR-GARCH-SEMOS"):
        model = models.fit(kind, train)
        mu_a, s_a = models.predict(model, series, dates)
        for i, date in zip(range(850, 900), dates):
            obs = series.obs.copy()
            obs[i - 2: i + 1] = 42.0  # the 2 unobservable days plus the target day
            corrupted = StationSeries.build(series.station_id, series.lead_time_h,
                                            series.dates, obs, series.members)
            mu_b, s_b = models.predict(model, corrupted, [date])
            j = int(np.searchsorted(dates, date))
            if not (mu_b[0] == mu_a[j] and s_b[0] == s_a[j]):
                invariant = False
    report(9, hand_ok and invariant,
           f"multi-step recursion (0.5, 0.25): {hand_ok}; 72h predictions invariant "
           f"to corrupting the 2 most recent observations: {invariant}")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism and runtime
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_end_to_end_determinism(tmp_path):
    def pipeline(root: Path):
        data, fits, preds, ver = (root / n for n in ("data", "fits", "preds", "ver"))
        steps = [
            ["simulate", "--out", data, "--n-days", "2192", "--n-stations", "3",
             "--lead", "24,72", "--seed", "12", "--dgp", "sar"],
            ["fit", "--data", data, "--out", fits, "--models", "all", "--lead", "24,72",
             "--train-start", "2015-01-01", "--train-end", "2019-12-31"],
            ["predict", "--data", data, "--models-dir", fits, "--out", preds,
             "--models", "all", "--lead", "24,72",
             "--valid-start", "2020-01-01", "--valid-end", "2020-12-31"],
            ["verify", "--data", data, "--predictions", preds / "predictions.csv",
             "--models-dir", fits, "--out", ver, "--lead", "24,72",
             "--train-start", "2015-01-01", "--train-end", "2019-12-31"],
        ]
        for step in steps:
            assert cli_main([str(a) for a in step]) == 0, step[0]

    start = time.perf_counter()
    pipeline(tmp_path / "run1")
    elapsed = time.perf_counter() - start
    pipeline(tmp_path / "run2")

    mismatches = []
    files1 = sorted(p for p in (tmp_path / "run1").rglob("*") if p.is_file())
    for path in files1:
        other = tmp_path / "run2" / path.relative_to(tmp_path / "run1")
        if not other.exists() or path.read_bytes() != other.read_bytes():
            mismatches.append(str(path.relative_to(tmp_path / "run1")))
    n_files = len(files1)
    passed = not mismatches and elapsed < 600.0 and n_files > 0
    report(10, passed,
           f"{n_files} output files byte-identical across two runs "
           f"(mismatches: {mismatches or 'none'}); one pipeline took {elapsed:.0f}s "
           f"for 3 stations x 2 leads x 6 models")


# ---------------------------------------------------------------------------
# 11. calibration at every lead time
# ---------------------------------------------------------------------------

# Thresholds from the seed spread of the calibrated cells, SEMOS at every
# lead and the three seasonal AR kinds at 24 h: pooled over three seeds as
# below, over the 10 disjoint seed triples of s = 1..30 in both worlds, their
# PIT variance spanned 0.0781-0.0932 and their 90 % coverage 0.859-0.916.
_PIT_VARIANCE_BAND = (1.0 / 12.0 - 0.012, 1.0 / 12.0 + 0.012)
_COVERAGE_FLOOR = 0.85
_LEADS = (24, 48, 72, 96, 120)

_ITEM_1 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: past 24 h the seasonal AR kinds bridge the mean k + 1 steps "
    "but keep the one-step sigma; at seeds 1-3 PIT variance 0.102-0.109, "
    "coverage 0.79-0.83"))
_ITEM_2 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: AR-EMOS bridges to a mean eta 30-120 days stale and fits its "
    "weight on one-step ensembles; at seeds 1-3 PIT variance 0.097 (24 h) to "
    "0.148 (120 h), coverage 0.84 to 0.61"))


def _criterion_11_cases():
    for kind in ("SEMOS", "DAR-SEMOS", "SAR-SEMOS", "DAR-GARCH-SEMOS", "AR-EMOS"):
        for lead in _LEADS:
            marks = (_ITEM_2 if kind == "AR-EMOS" else
                     _ITEM_1 if kind != "SEMOS" and lead > 24 else ())
            yield pytest.param(kind, lead, marks=marks)


@pytest.mark.parametrize("kind, lead", _criterion_11_cases())
def test_criterion_11_calibration_at_every_lead(kind, lead):
    # the CLI's sar and dar worlds, cell seed 7 s + lead, trained on
    # 2015-2019 and validated on 2020; PIT and coverage pooled over s = 1..3
    details, passed = [], True
    for world in ("sar", "dar"):
        pit, covered = [], []
        for s in (1, 2, 3):
            run = RunConfig(leads=[lead], n_days=2192, dgp=world)
            cfg = dataclasses.replace(synthetic_config(run, 0, 0), seed=7 * s + lead)
            series, _ = generate_synthetic(cfg)
            valid = series.dates >= np.datetime64("2020-01-01")
            model = models.fit(kind, series.window("2015-01-01", "2019-12-31"))
            mu, sigma = models.predict(model, series, series.dates[valid])
            sample = score_cases(mu, sigma, series.obs[valid], level=0.9)
            pit.append(sample.pit)
            covered.append(sample.covered)
        variance = float(np.var(np.concatenate(pit)))
        coverage = float(np.mean(np.concatenate(covered)))
        passed &= (_PIT_VARIANCE_BAND[0] <= variance <= _PIT_VARIANCE_BAND[1]
                   and coverage >= _COVERAGE_FLOOR)
        details.append(f"{world}: PIT variance {variance:.4f}, coverage {coverage:.3f}")
    report(11, passed,
           f"{kind} at {lead} h, " + "; ".join(details) + f" (band {_PIT_VARIANCE_BAND[0]:.4f}-"
           f"{_PIT_VARIANCE_BAND[1]:.4f}, floor {_COVERAGE_FLOOR})")
