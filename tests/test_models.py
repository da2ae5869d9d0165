import dataclasses
import json
import warnings

import numpy as np
import pytest

from enspost import cli, models
from enspost.data import (
    StationSeries,
    SyntheticConfig,
    day_of_year,
    generate_synthetic,
    lead_time_offset,
    time_index,
)
from enspost.errors import DegenerateSeries, InsufficientHistory, InvalidInput, NumericalFailure
from enspost.models import FittedModel
from enspost.models import ar_emos
from enspost.models.ar_emos import _adjusted_ensemble, _crps_weights, _estimate
from enspost.models import emos, semos
from enspost.models.emos import _RIDGE, _fit_windows, _window_evaluate
from enspost.models.semos import _objective, empirical_sd_by_day_of_year
from enspost.models.semos import training_residuals
from enspost import optimize
from enspost.optimize import OptimizeSettings, golden_section, minimize, minimize_newton
from enspost.optimize import numeric_gradient
from enspost.scoring import crps_ensemble, crps_normal_series
from enspost.seasonal import SeasonalCoeffs, seasonal_design
from enspost.timeseries import ARCoeffs, ARFits, GARCHCoeffs, ljung_box
from enspost import timeseries
from enspost.timeseries import (
    ar_innovation_variance,
    ar_multistep,
    ar_teacher_forced,
    fit_ar_yule_walker,
    fit_garch,
)

from conftest import make_series


def _corrupt_after(series: StationSeries, first_bad_index: int, value=99.9) -> StationSeries:
    obs = series.obs.copy()
    obs[first_bad_index:] = value
    return StationSeries.build(series.station_id, series.lead_time_h,
                               series.dates, obs, series.members)


@pytest.fixture(scope="module")
def sar_world():
    cfg = SyntheticConfig(n_days=1096, seed=4, standardized_ar=True,
                          ens_bias=1.0, ens_dispersion=0.7,
                          ar=ARCoeffs(1, 0.0, (0.6,)))
    series, truth = generate_synthetic(cfg)
    return cfg, series, truth


@pytest.fixture(scope="module")
def dar_world():
    cfg = SyntheticConfig(n_days=1096, seed=8, ar=ARCoeffs(1, 0.0, (0.7,)))
    series, truth = generate_synthetic(cfg)
    return cfg, series, truth


# ---------------------------------------------------------------------------
# the kind table behind models.fit and models.predict
# ---------------------------------------------------------------------------

_TRAINING_DAYS = {"EMOS": 31, "AR-EMOS": 120, "SEMOS": 730, "DAR-SEMOS": 730,
                  "DAR-GARCH-SEMOS": 730, "SAR-SEMOS": 730}
_TRAINING_RECORD = ["origin", "lead_time_h", "station_id", "train_start", "train_end", "n_train"]


@pytest.fixture(scope="module")
def two_year_world():
    series, _ = generate_synthetic(SyntheticConfig(n_days=730, m=10, seed=21, lead_time_h=72))
    return series


def test_the_kind_table_lists_every_kind_in_order():
    assert tuple(models._KINDS) == models.MODEL_KINDS


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_fit_needs_each_kinds_training_days_and_records_the_training_period(
        kind, two_year_world):
    days = _TRAINING_DAYS[kind]
    with pytest.raises(InsufficientHistory,
                       match=f"^{kind} needs >= {days} training days, got {days - 1}$"):
        models.fit(kind, two_year_world.window(end=two_year_world.dates[days - 2]))
    train = two_year_world.window(end=two_year_world.dates[days - 1])
    model = models.fit(kind, train)
    assert list(model.meta)[:6] == _TRAINING_RECORD
    assert [model.meta[key] for key in _TRAINING_RECORD] == [
        "2015-01-01", 72, "S01", "2015-01-01", str(train.dates[-1]), days]


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_fit_checks_the_training_series_before_the_fitter_runs(kind, two_year_world,
                                                               monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("fitter called")

    monkeypatch.setitem(models._KINDS, kind, models._KINDS[kind]._replace(fit=forbidden))
    obs = two_year_world.obs.copy()
    obs[400] = np.nan
    gappy = StationSeries.build("S01", 72, two_year_world.dates, obs, two_year_world.members)
    with pytest.raises(InvalidInput,
                       match="^training series has missing observations; impute first$"):
        models.fit(kind, gappy)
    with pytest.raises(InsufficientHistory):
        models.fit(kind, two_year_world.window(end=two_year_world.dates[20]))


def test_unknown_kind_is_invalid_input(two_year_world):
    with pytest.raises(InvalidInput, match="^unknown model kind 'NGR'"):
        models.fit("NGR", two_year_world)


@pytest.mark.parametrize("scale0, bad", [(800.0, "sigma inf"), (-800.0, "sigma 0.0")])
def test_predict_rejects_sigma_that_is_not_finite_and_positive(two_year_world, scale0, bad):
    model = models.fit("SEMOS", two_year_world.window(end=two_year_world.dates[729]))
    series = two_year_world
    model.scale[0] = scale0
    dates = series.dates[[700, 650, 690]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        with pytest.raises(NumericalFailure, match=(
                rf"^SEMOS on \(S01, 72h\) gives mu [-0-9.e]+, {bad} on 2016-10-12$")):
            models.predict(model, series, dates)


# ---------------------------------------------------------------------------
# EMOS
# ---------------------------------------------------------------------------


def test_emos_window_recovers_identity_relation(rng):
    # y = xbar + eps, s constant: a1 should average to 1 across windows
    n = 900
    xbar = 10 + 3 * rng.standard_normal(n)
    members = xbar[:, None] + rng.standard_normal((n, 20))
    y = members.mean(axis=1) + rng.standard_normal(n)
    series = make_series(y, members=members)
    a1 = []
    for start in range(0, 870, 30):
        sl = slice(start, start + 30)
        coeffs = _fit_windows(series.ens_mean[sl], series.ens_sd[sl], series.obs[sl]).x[0]
        a1.append(coeffs[1])
    assert np.mean(a1) == pytest.approx(1.0, abs=0.1)


def test_emos_window_constant_spread_stays_finite(rng):
    n = 30
    xbar = rng.normal(size=n)
    offsets = np.array([-1.0, 0.0, 1.0])  # exactly constant ensemble sd
    members = xbar[:, None] + offsets[None, :]
    y = xbar + 0.5 * rng.standard_normal(n)
    coeffs = _fit_windows(xbar, members.std(axis=1, ddof=1), y).x[0]
    assert np.all(np.isfinite(coeffs))


def test_emos_predict_positive_sigma_and_insufficient_history(rng):
    series = make_series(rng.normal(size=120), rng=rng)
    model = models.fit("EMOS", series.window(end=series.dates[99]))
    mu, sigma = models.predict(model, series, series.dates[100:110])
    assert np.all(sigma > 0)
    with pytest.raises(InsufficientHistory):
        models.predict(model, series, [series.dates[10]])


@pytest.mark.parametrize("sd_spread, ridge", [(0.4, 0.0), (1e-6, _RIDGE)])
def test_emos_window_gradient_matches_finite_differences(rng, sd_spread, ridge):
    # sd_spread 1e-6: log s is near-constant, so the ridge term is on
    n = 30
    xbar = 10 + 3 * rng.standard_normal(n)
    log_s = np.log(1.3 + sd_spread * rng.random(n))
    y = xbar + rng.standard_normal(n)
    evaluate = _window_evaluate(xbar, log_s, y)
    for _ in range(10):
        # |theta_i| >= 1 keeps the ridge part 2e-8 theta above the 5e-9 tolerance
        theta = rng.choice([-1.0, 1.0], size=4) * rng.uniform(1.0, 2.0, size=4)
        crps = np.mean(crps_normal_series(theta[0] + theta[1] * xbar,
                                          np.exp(theta[2] + theta[3] * log_s), y))
        assert evaluate(theta)[0] == pytest.approx(crps + ridge * theta @ theta, abs=1e-15)
        numeric = numeric_gradient(lambda t: evaluate(t)[0], theta, 1e-6 * (1 + np.abs(theta)))
        assert np.all(np.abs(evaluate(theta)[1] - numeric) <= 5e-9)


@pytest.mark.parametrize("sd_spread, ridge", [(0.4, 0.0), (1e-6, _RIDGE)])
def test_emos_window_value_is_the_mean_crps_plus_ridge_to_the_bit(rng, sd_spread, ridge):
    # the value comes from the CRPS-partials pass; it must equal the
    # value-only kernel's mean plus the ridge term exactly, in a batch too
    n_windows = 6
    xbar = 10 + 3 * rng.standard_normal((n_windows, 30))
    log_s = np.log(1.3 + sd_spread * rng.random((n_windows, 30)))
    y = xbar + rng.standard_normal((n_windows, 30))
    theta = rng.choice([-1.0, 1.0], size=(n_windows, 4)) * rng.uniform(0.5, 2.0, (n_windows, 4))
    rows = np.arange(n_windows)
    crps = crps_normal_series(theta[:, :1] + theta[:, 1:2] * xbar,
                              np.exp(theta[:, 2:3] + theta[:, 3:4] * log_s), y)
    expected = np.mean(crps, -1) + ridge * np.sum(theta * theta, axis=-1)
    assert np.array_equal(_window_evaluate(xbar, log_s, y)(theta, rows)[0], expected)
    for k in range(n_windows):
        assert _window_evaluate(xbar[k], log_s[k], y[k])(theta[k])[0] == expected[k]


@pytest.mark.parametrize("sd_spread, ridge", [(0.4, 0.0), (1e-6, _RIDGE)])
def test_emos_window_hessian_matches_finite_differences(rng, sd_spread, ridge, monkeypatch):
    n = 30
    xbar = 10 + 3 * rng.standard_normal(n)
    log_s = np.log(1.3 + sd_spread * rng.random(n))
    y = xbar + rng.standard_normal(n)
    evaluate = _window_evaluate(xbar, log_s, y)
    monkeypatch.setattr(emos, "_RIDGE", 0.0)
    evaluate_no_ridge = _window_evaluate(xbar, log_s, y)
    for _ in range(10):
        theta = rng.choice([-1.0, 1.0], size=4) * rng.uniform(1.0, 2.0, size=4)
        steps = 1e-6 * (1 + np.abs(theta))
        numeric = np.column_stack([
            numeric_gradient(lambda t: evaluate(t)[1][j], theta, steps) for j in range(4)])
        exact = evaluate(theta)[2]
        assert np.allclose(exact, exact.T, rtol=1e-12, atol=0.0)
        assert np.all(np.abs(exact - numeric) <= 1e-6 * (1 + np.abs(exact)))
        # the ridge's 2 ridge I is below that tolerance, so check it on its own
        assert np.allclose(exact - evaluate_no_ridge(theta)[2], 2.0 * ridge * np.eye(4),
                           rtol=0.0, atol=1e-14)


def test_emos_rolling_newton_fits_match_bfgs(monkeypatch):
    # The sar world's validation year at seed 23: one of its windows has a
    # Hessian that stays indefinite for many steps, where a steepest-descent
    # fallback ran out of iterations 0.016 above the optimum.  Each window of
    # the batched Newton solve is checked against a BFGS fit from its start.
    cfg = cli.RunConfig(leads=[24], n_days=2192, m_members=50, seed=23, dgp="sar")
    series, _ = generate_synthetic(cli.synthetic_config(cfg, 0, 0))
    dates = series.dates[-366:]
    model = models.fit("EMOS", series.window(end=dates[0] - 1))
    solves = []

    def recording(evaluate, init, settings=None):
        solves.append((evaluate, init, minimize_newton(evaluate, init, settings)))
        return solves[-1][-1]

    monkeypatch.setattr(emos, "minimize_newton", recording)
    mu, sigma = models.predict(model, series, dates)
    [(evaluate, init, newton)] = solves
    assert newton.x.shape == (dates.size, 4) and np.all(newton.converged)
    xbar, log_s = series.ens_mean[-366:], np.log(series.ens_sd[-366:])
    for k in range(dates.size):
        bfgs = minimize(lambda t: evaluate(t, k)[:2], init[k],
                        OptimizeSettings(max_iterations=200))
        assert bfgs.converged
        assert newton.value[k] <= bfgs.value + 1e-12
        a0, a1, b0, b1 = bfgs.x
        assert mu[k] == pytest.approx(a0 + a1 * xbar[k], rel=1e-4)
        assert sigma[k] == pytest.approx(np.exp(b0 + b1 * log_s[k]), rel=1e-4)


def test_emos_fit_meta_records_the_optimizer_result(rng, monkeypatch):
    series = make_series(rng.normal(size=120), rng=rng)
    model = models.fit("EMOS", series)
    assert model.meta["converged"] is True
    assert model.meta["iterations"] >= 1 and model.meta["n_evals"] >= 1
    assert model.meta["grad_norm"] <= 1e-8
    monkeypatch.setattr(emos, "_WINDOW_SETTINGS", OptimizeSettings(max_iterations=1))
    capped = models.fit("EMOS", series)
    assert capped.meta["converged"] is False
    assert capped.meta["iterations"] == 1
    assert capped.meta["grad_norm"] > 1e-6


# ---------------------------------------------------------------------------
# AR-EMOS
# ---------------------------------------------------------------------------


def test_ar_emos_weight_endpoints(rng):
    n = 200
    common = np.cumsum(rng.normal(size=n)) * 0.2
    members = common[:, None] + rng.standard_normal((n, 10))
    y = common + rng.standard_normal(n)
    series = make_series(y, members=members)
    est = _estimate(series, np.array([n]))
    sigma1 = float(est.sigma1[0])
    history = series.obs[:n - 1, None] - series.members[:n - 1]
    adjusted = _adjusted_ensemble(series, est.fits, history, np.array([n - 1]), 1)
    sigma2 = float(adjusted.std(ddof=1))
    for w, expected in ((1.0, sigma1), (0.0, sigma2)):
        assert w * sigma1 + (1 - w) * sigma2 == pytest.approx(expected)
    # fitted model sigma lies inside the convex envelope
    model = models.fit("AR-EMOS", series)
    lo, hi = min(sigma1, sigma2), max(sigma1, sigma2)
    blended = model.weight * sigma1 + (1 - model.weight) * sigma2
    assert lo - 1e-12 <= blended <= hi + 1e-12


def test_ar_emos_degenerate_member_falls_back(rng, caplog):
    n = 150
    y = rng.normal(size=n)
    offsets = np.linspace(-1, 1, 5)
    members = y[:, None] + offsets[None, :]  # member errors exactly constant
    series = make_series(y, members=members)
    with caplog.at_level("WARNING"):
        model = models.fit("AR-EMOS", series)
    assert "degenerate" in caplog.text
    assert all(ar.p == 0 for ar in model.members_ar)
    # mean-error adjustment recenters every member onto the observation
    est = _estimate(series, np.array([n]))
    history = series.obs[:n - 1, None] - series.members[:n - 1]
    adjusted = _adjusted_ensemble(series, est.fits, history, np.array([n - 1]), 1)
    assert np.allclose(adjusted, y[n - 1], atol=1e-10)


def test_ar_emos_degenerate_column_warning_names_member(rng, caplog):
    n = 150
    y = rng.normal(size=n)
    members = y[:, None] + rng.standard_normal((n, 4))
    members[:, 2] = y + 0.5  # member 3's errors are constant
    series = make_series(y, members=members)
    with caplog.at_level("WARNING"):
        fits = _estimate(series, np.array([n])).fits
    assert "member 3 error series degenerate" in caplog.text
    assert caplog.text.count("degenerate") == 1
    assert fits.degenerate.tolist() == [False, False, True, False]
    assert fits.p[2] == 0 and fits.eta[2] == pytest.approx(-0.5)


def _member_error_columns(case, rng, n=300):
    """(n, 2) member errors: an AR(5) and an AR(1) column, offset by 1e3
    or with a constant window in member 1 and a window of spread 1e-10 on
    mean 1e3 in member 2."""
    x = np.column_stack([
        timeseries.linear_recursion([0.4, -0.2, 0.1, -0.3, 0.45], rng.standard_normal(n + 200)),
        timeseries.linear_recursion([0.7], rng.standard_normal(n + 200))])[200:]
    if case == "offset":
        x += 1e3
    elif case == "constant":
        x[40:130, 0] = 2.5
        x[150:240, 1] = 1e3 + 1e-10 * rng.standard_normal(90)
    return x


@pytest.mark.parametrize("case", ["plain", "offset", "constant"])
def test_windowed_member_fits_match_per_window_fits(rng, caplog, case):
    x = _member_error_columns(case, rng)
    n, max_order = ar_emos.AR_WINDOW, ar_emos.MAX_MEMBER_AR_ORDER
    starts = np.arange(x.shape[0] - n + 1)  # the first window starts at the first row
    with caplog.at_level("WARNING"):
        fits, variance = ar_emos._fit_members(x, starts, 2, 0)
    for d, s in enumerate(starts):
        window = x[s:s + n]
        ref = fit_ar_yule_walker(window, max_order, mean_fallback=True)
        cols = slice(2 * d, 2 * d + 2)
        assert np.array_equal(fits.p[cols], ref.p)
        assert np.array_equal(fits.degenerate[cols], ref.degenerate)
        assert np.allclose(fits.eta[cols], ref.eta, rtol=1e-12, atol=0.0)
        # tau to 1e-12 of its largest lag weight: a weight near 0 has no
        # relative precision in either path
        scale = np.max(np.abs(ref.tau), axis=1, initial=0.0)
        assert np.all(np.abs(fits.tau[cols, :ref.max_p] - ref.tau).max(axis=1, initial=0.0)
                      <= 1e-12 * scale)
        expected = ar_innovation_variance(window, ref)
        # the spread-1e-10 window on mean 1e3 holds ~3 digits: its variance
        # (~1e-20) agrees only absolutely
        assert np.allclose(variance[cols], expected, rtol=1e-12, atol=1e-15)
        assert np.sqrt(variance[cols].mean()) == pytest.approx(np.sqrt(expected.mean()),
                                                               rel=1e-12)
    assert fits.max_p == max_order
    if case == "constant":
        # each window fitted as constant is named once
        assert np.flatnonzero(fits.degenerate).tolist() == [2 * 40, 2 * 150 + 1]
        assert caplog.text.count("degenerate") == 2
        assert "member 1 error series degenerate" in caplog.text
        assert "member 2 error series degenerate" in caplog.text
    else:
        assert not fits.degenerate.any() and "degenerate" not in caplog.text
    # a window's fit does not depend on which other windows are requested,
    # nor on where the rows passed start, nor on rows outside the windows
    some = np.array([starts[-1], 3, 97, 150])
    unread = np.ones(x.shape[0], dtype=bool)
    unread[some[:, None] + np.arange(n)] = False
    x_outside_nan = np.where(unread[:, None], np.nan, x)
    alone, alone_variance = timeseries.windowed_ar_fits(x_outside_nan[some.min():], some, n,
                                                        max_order, first_row=some.min())
    cols = (2 * some[:, None] + np.arange(2)).ravel()
    assert np.array_equal(alone.p, fits.p[cols]) and np.array_equal(alone.eta, fits.eta[cols])
    assert np.array_equal(alone.tau, fits.tau[cols, :alone.max_p])
    assert np.array_equal(alone_variance, variance[cols])


def test_ar_emos_short_history_padded_with_eta(rng):
    n = 12
    series = make_series(rng.normal(size=n), rng=rng, m=3)
    member_fits = [ARCoeffs(0, 0.3, ()), ARCoeffs(1, -0.1, (0.5,)),
                   ARCoeffs(4, 0.2, (0.3, -0.2, 0.1, 0.05))]
    h, i = 4, 5  # four observed errors (the largest p), two bridged days
    history = series.obs[:h, None] - series.members[:h]
    got = _adjusted_ensemble(series, ARFits.stack(member_fits), history, np.array([i]),
                             i - h + 1)
    for mi, ar in enumerate(member_fits):
        work = [ar.eta] * max(ar.p - h, 0) + list(series.obs[:h] - series.members[:h, mi])
        for _ in range(i - h + 1):
            work.append(ar.eta + sum(t * (work[-j] - ar.eta)
                                     for j, t in enumerate(ar.tau, start=1)))
        assert got[0, mi] == pytest.approx(series.members[i, mi] + work[-1], abs=1e-12)


def test_ar_emos_fits_all_members_once_per_date(rng, monkeypatch):
    n = 200
    series = make_series(rng.normal(size=n), rng=rng, m=6)
    model = models.fit("AR-EMOS", series.window(end=series.dates[149]))
    calls = []
    real = ar_emos.windowed_ar_fits

    def counting(x, starts, length, *args):
        calls.append((np.shape(x)[1], np.asarray(starts), length))
        return real(x, starts, length, *args)

    monkeypatch.setattr(ar_emos, "windowed_ar_fits", counting)
    dates = series.dates[150:162]
    models.predict(model, series, dates)
    # every date's six member columns are fitted once, on the 90-day AR window
    assert all(columns == 6 and length == 90 for columns, _, length in calls)
    starts = np.sort(np.concatenate([s for _, s, _ in calls]))
    assert np.array_equal(starts, np.arange(150, 162) - lead_time_offset(24) - 120)


def test_ar_emos_beats_raw_on_ar1_member_errors(rng):
    # member errors share an AR(1) component the adjustment can predict
    n = 520
    n_valid = 200
    u = np.zeros(n)
    eps = rng.normal(size=n)
    for t in range(1, n):
        u[t] = 0.6 * u[t - 1] + eps[t]
    center = 5 + np.cumsum(rng.normal(size=n)) * 0.1
    members = center[:, None] + rng.standard_normal((n, 12))
    y = members.mean(axis=1) + u
    series = make_series(y, members=members)
    model = models.fit("AR-EMOS", series.window(end=series.dates[n - n_valid - 1]))
    dates = series.dates[n - n_valid:]
    mu, sigma = models.predict(model, series, dates)
    adj_crps = float(np.mean(crps_normal_series(mu, sigma, series.obs[n - n_valid:])))
    raw_crps = float(np.mean([
        crps_ensemble(series.members[i], series.obs[i]) for i in range(n - n_valid, n)]))
    assert adj_crps < raw_crps


def test_ar_emos_fit_meta_records_the_weight_solve(rng, monkeypatch):
    series = make_series(rng.normal(size=200), rng=rng)
    model = models.fit("AR-EMOS", series)
    assert model.meta["converged"] is True and model.meta["iterations"] >= 1
    monkeypatch.setattr(ar_emos, "_WEIGHT_SETTINGS",
                        dataclasses.replace(ar_emos._WEIGHT_SETTINGS, max_iterations=1))
    capped = models.fit("AR-EMOS", series)
    assert capped.meta["converged"] is False and capped.meta["iterations"] == 1


@pytest.mark.parametrize("lead", [24, 72])
def test_ar_emos_predict_emits_no_warning(rng, lead):
    n = 200
    y = rng.normal(size=n)
    members = y[:, None] + rng.standard_normal((n, 4))
    series = make_series(y, members=members, lead_time_h=lead)
    model = models.fit("AR-EMOS", series.window(end=series.dates[149]))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        models.predict(model, series, series.dates[150:170])  # more than one block
    assert record == []


@pytest.mark.parametrize("case", ["interior", "at_zero", "at_one"])
def test_ar_emos_weight_solve_matches_golden_section(rng, case):
    n_dates = 20
    mu = rng.normal(size=(n_dates, 30))
    y = mu + rng.normal(size=(n_dates, 30))
    sigma2 = rng.uniform(0.6, 1.6, size=(n_dates, 30))
    sigma1 = rng.uniform(0.5, 1.8, size=n_dates)
    # both candidates too wide (the errors have sd 1): the narrower one wins
    if case == "at_zero":
        sigma1, sigma2 = sigma1 + 8.0, sigma2 + 2.0
    elif case == "at_one":
        sigma1, sigma2 = sigma1 + 2.0, sigma2 + 8.0
    weights, converged, iterations = _crps_weights(sigma1, mu, sigma2, y)
    assert np.all(converged) and np.all((0.0 <= weights) & (weights <= 1.0))
    for d in range(n_dates):
        def f(w):
            return float(np.mean(crps_normal_series(
                mu[d], np.maximum(w * sigma1[d] + (1 - w) * sigma2[d], 1e-8), y[d])))
        assert f(weights[d]) <= f(golden_section(f, 0.0, 1.0)) + 1e-12
    if case != "interior":
        assert np.all(weights == {"at_zero": 0.0, "at_one": 1.0}[case])


def test_ar_emos_weight_solve_accepts_its_converged_newton_point(monkeypatch):
    # the rolling benchmark's world at seed 12, 120 h, on 2020-03-15: by
    # iteration 4 the derivative is rounding noise, and the solve must accept
    # that Newton point (bisecting a bracket from there took 33 iterations
    # back to it)
    cfg = cli.RunConfig(leads=[120], n_days=2192, m_members=50, seed=12, dgp="sar")
    series, _ = generate_synthetic(cli.synthetic_config(cfg, 0, 0))
    i = int(np.flatnonzero(series.dates == np.datetime64("2020-03-15"))[0])
    est = _estimate(series, np.array([i - lead_time_offset(120)]))
    weight, converged, iterations = _crps_weights(est.sigma1, *est.window)
    monkeypatch.setattr(ar_emos, "_WEIGHT_SETTINGS",
                        dataclasses.replace(ar_emos._WEIGHT_SETTINGS, max_iterations=4))
    fourth, _, _ = _crps_weights(est.sigma1, *est.window)
    assert converged[0] and iterations[0] <= 5
    assert abs(weight[0] - fourth[0]) <= optimize._STEP_TOLERANCE


def test_ar_emos_weight_solve_takes_few_iterations():
    series = _rolling_world(12, 24)
    est = _estimate(series, np.arange(550, 700) - lead_time_offset(24))
    _, converged, iterations = _crps_weights(est.sigma1, *est.window)
    assert np.all(converged) and iterations.max() <= 6


# ---------------------------------------------------------------------------
# batched rolling re-estimation against a per-date reference
# ---------------------------------------------------------------------------


def _emos_per_date_reference(series, indices, k):
    """Per-date EMOS: the dates in order, each window's Newton fit started
    from the previous window's coefficients."""
    mu, sigma = np.empty(indices.size), np.empty(indices.size)
    coeffs = None
    for out in np.argsort(indices, kind="stable"):
        i = indices[out]
        sl = slice(i - k - emos.WINDOW_DAYS, i - k)
        xbar, log_s, y = series.ens_mean[sl], np.log(series.ens_sd[sl]), series.obs[sl]
        if coeffs is None:
            ab = np.linalg.lstsq(np.column_stack([np.ones_like(xbar), xbar]), y, rcond=None)[0]
            coeffs = np.array([*ab, np.log(np.std(y - ab[0] - ab[1] * xbar, ddof=1)), 0.0])
        window = (xbar[None], log_s[None], y[None])
        coeffs = minimize_newton(_window_evaluate(*window), coeffs[None],
                                 emos._WINDOW_SETTINGS).x[0]
        mu[out] = coeffs[0] + coeffs[1] * series.ens_mean[i]
        sigma[out] = np.exp(coeffs[2] + coeffs[3] * np.log(series.ens_sd[i]))
    return mu, sigma


def _ar_emos_per_date_reference(series, indices, k):
    """Per-date AR-EMOS with a golden-section weight search; also each
    date's weight objective and golden-section weight."""
    mu, sigma, searches = [], [], []
    for i in indices:
        h = i - k
        obs, members = series.obs[h - 120:h], series.members[h - 120:h]
        errors = obs[:, None] - members
        fits = fit_ar_yule_walker(errors[:90], ar_emos.MAX_MEMBER_AR_ORDER, mean_fallback=True)
        sigma1 = np.sqrt(np.mean(ar_innovation_variance(errors[:90], fits)))
        adjusted = members[90:] + ar_teacher_forced(fits, errors, 90)

        def objective(w, mu_w=adjusted.mean(axis=1), sigma2_w=adjusted.std(axis=1, ddof=1),
                      y_w=obs[90:], sigma1=sigma1):
            sigma_w = np.maximum(w * sigma1 + (1 - w) * sigma2_w, 1e-8)
            return float(np.mean(crps_normal_series(mu_w, sigma_w, y_w)))

        weight = golden_section(objective, 0.0, 1.0)
        ensemble = series.members[i] + ar_multistep(fits, errors, k + 1)[-1]
        mu.append(ensemble.mean())
        sigma.append(max(weight * sigma1 + (1 - weight) * ensemble.std(ddof=1), 1e-8))
        searches.append((objective, weight))
    return np.array(mu), np.array(sigma), searches


def _rolling_world(seed, lead, n_days=700):
    cfg = cli.RunConfig(leads=[lead], n_days=n_days, seed=seed, dgp="sar")
    series, _ = generate_synthetic(cli.synthetic_config(cfg, 0, 0))
    return series


@pytest.mark.parametrize("lead", [24, 72, 120])
@pytest.mark.parametrize("seed", [3, 12, 23])
def test_batched_rolling_prediction_matches_per_date_reference(seed, lead):
    series = _rolling_world(seed, lead)
    k = lead_time_offset(lead)
    pick = np.random.default_rng(seed).choice(np.arange(550, 700), 30, replace=False)
    # unsorted, with duplicates; 37 dates are not a whole number of blocks
    indices = np.concatenate([pick, pick[:7]])
    assert indices.size % ar_emos._BLOCK_DATES != 0
    dates = series.dates[indices]

    model = models.fit("EMOS", series.window(end=series.dates[500]))
    mu, sigma = models.predict(model, series, dates)
    ref_mu, ref_sigma = _emos_per_date_reference(series, indices, k)
    assert np.allclose(mu, ref_mu, rtol=1e-6, atol=0.0)
    assert np.allclose(sigma, ref_sigma, rtol=1e-6, atol=0.0)

    model = models.fit("AR-EMOS", series.window(end=series.dates[500]))
    mu, sigma = models.predict(model, series, dates)
    ref_mu, ref_sigma, searches = _ar_emos_per_date_reference(series, indices, k)
    assert np.allclose(mu, ref_mu, rtol=1e-12, atol=0.0)
    assert np.allclose(sigma, ref_sigma, rtol=1e-6, atol=0.0)
    est = _estimate(series, indices - k)
    weights, converged, _ = _crps_weights(est.sigma1, *est.window)
    assert np.all(converged)
    for w, (objective, golden) in zip(weights, searches):
        assert objective(w) <= objective(golden) + 1e-12


def _ar_emos_block_reference(series, indices, k):
    """AR-EMOS predictions with every step in blocks of 16 dates in the order
    of their history ends: member fits, bridge and weight windows."""
    ends = indices - k
    order = np.argsort(ends, kind="stable")
    mu, sigma1, sigma2 = np.empty((3, ends.size))
    window = np.empty((3, ends.size, ar_emos.WEIGHT_WINDOW))
    for start in range(0, ends.size, 16):
        block = order[start:start + 16]
        est = _estimate(series, ends[block])
        adjusted = _adjusted_ensemble(series, est.fits, est.errors, indices[block], k + 1)
        mu[block], sigma2[block] = adjusted.mean(axis=1), adjusted.std(axis=1, ddof=1)
        sigma1[block], window[:, block] = est.sigma1, est.window
    weight, _, _ = _crps_weights(sigma1, *window)
    return mu, np.maximum(weight * sigma1 + (1.0 - weight) * sigma2, ar_emos._SIGMA_FLOOR)


@pytest.mark.parametrize("seed, lead", [(12, 24), (3, 120)])
def test_ar_emos_anchor_group_prediction_matches_per_date_and_block_predictions(seed, lead):
    # 366 unsorted dates whose AR windows span at least four anchors of the
    # window sums: each date's (mu, sigma) are those of predicting it alone
    # and those of 16-date blocks, to the bit
    series = _rolling_world(seed, lead, n_days=900)
    k = lead_time_offset(lead)
    model = models.fit("AR-EMOS", series.window(end=series.dates[499]))
    indices = np.random.default_rng(seed).permutation(np.arange(500, 866))
    anchors = timeseries.window_anchors(indices - k - 120, ar_emos.AR_WINDOW,
                                        ar_emos.MAX_MEMBER_AR_ORDER)
    assert np.unique(anchors).size >= 4
    mu, sigma = models.predict(model, series, series.dates[indices])
    ref_mu, ref_sigma = _ar_emos_block_reference(series, indices, k)
    assert np.array_equal(mu, ref_mu) and np.array_equal(sigma, ref_sigma)
    alone = np.array([models.predict(model, series, series.dates[[i]]) for i in indices])
    assert np.array_equal(mu, alone[:, 0, 0]) and np.array_equal(sigma, alone[:, 1, 0])


def test_ar_emos_prediction_of_a_date_does_not_depend_on_the_other_dates():
    series = _rolling_world(3, 72, n_days=900)
    model = models.fit("AR-EMOS", series.window(end=series.dates[500]))
    dates = series.dates[600:700]
    mu, sigma = models.predict(model, series, dates)
    for pick in ([0], [17], [99, 0, 55, 17]):
        mu_p, sigma_p = models.predict(model, series, dates[pick])
        assert np.array_equal(mu_p, mu[pick]) and np.array_equal(sigma_p, sigma[pick])


@pytest.mark.parametrize("lead", [24, 120])
@pytest.mark.parametrize("kind", ["EMOS", "AR-EMOS"])
def test_batched_rolling_prediction_reads_no_later_observations(kind, lead):
    series = _rolling_world(12, lead)
    model = models.fit(kind, series.window(end=series.dates[500]))
    i = 600
    dates = series.dates[560:640]  # dates after i read the corrupted days
    mu, sigma = models.predict(model, series, dates)
    mu_c, sigma_c = models.predict(
        model, _corrupt_after(series, i - lead_time_offset(lead), 1e3), dates)
    upto = i - 560 + 1
    assert np.array_equal(mu[:upto], mu_c[:upto]) and np.array_equal(sigma[:upto], sigma_c[:upto])
    assert not np.array_equal(mu, mu_c)


@pytest.mark.parametrize("kind, span", [("EMOS", 30), ("AR-EMOS", 120)])
def test_rolling_window_errors_name_the_first_bad_date(rng, kind, span):
    obs = rng.normal(size=400)
    series = make_series(obs, rng=rng)
    model = models.fit(kind, series.window(end=series.dates[250]))
    too_early = series.dates[[360, span - 1, span - 5]]
    with pytest.raises(InsufficientHistory, match=(
            f"^date {series.dates[span - 5]} has only {span - 5} observable days, "
            f"needs {span}$")):
        models.predict(model, series, too_early)
    obs[300] = np.nan
    gappy = StationSeries.build(series.station_id, series.lead_time_h, series.dates, obs,
                                series.members)
    # the windows of days 301 to 300 + span hold day 300
    dates = series.dates[[399, 320, 290, 310, 301]]
    with pytest.raises(InvalidInput, match=(
            f"^window before {series.dates[301]} contains missing observations$")):
        models.predict(model, gappy, dates)


# ---------------------------------------------------------------------------
# SEMOS family: recovery, descent, reductions
# ---------------------------------------------------------------------------


def test_semos_recovery_zero_fourier():
    # mild climate cycle keeps xbar and the Fourier columns well separated
    cfg = SyntheticConfig(
        n_days=1826, seed=13,
        loc=SeasonalCoeffs(1.0, 0.9), scale=SeasonalCoeffs(-0.2, 0.2),
        ar=ARCoeffs(0, 0.0, ()),
        clim_amp=3.0, weather_sd=3.0)
    series, _ = generate_synthetic(cfg)
    model = models.fit("SEMOS", series)
    assert model.loc[0] == pytest.approx(1.0, abs=0.1)
    assert model.loc[1] == pytest.approx(0.9, abs=0.1)
    assert np.all(np.abs(model.loc[2:]) < 0.1)


def test_semos_recovery_seasonal_amplitude():
    cfg = SyntheticConfig(
        n_days=1826, seed=14,
        loc=SeasonalCoeffs(0.0, 1.0, (5.0, 0.0, 0.0, 0.0)),
        scale=SeasonalCoeffs(-0.2, 0.2),
        ar=ARCoeffs(0, 0.0, ()))
    series, _ = generate_synthetic(cfg)
    model = models.fit("SEMOS", series)
    amplitude = float(np.hypot(model.loc[2], model.loc[3]))
    assert amplitude == pytest.approx(5.0, abs=0.3)


@pytest.mark.parametrize("kind", ["SEMOS", "DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS"])
def test_every_fit_descends_from_init(kind, dar_world):
    _, series, _ = dar_world
    model = models.fit(kind, series)
    assert model.meta["train_crps"] <= model.meta["init_crps"] + 1e-12


def test_semos_fit_reaches_flat_gradient(dar_world):
    _, series, _ = dar_world
    model = models.fit("SEMOS", series)
    t = time_index(series.dates, series.dates[0])
    fun = _objective("SEMOS", 0, seasonal_design(t, series.ens_mean),
                     seasonal_design(t, series.ens_sd), series.obs)
    theta = np.concatenate([model.loc, model.scale])
    grad = numeric_gradient(lambda t: fun(t)[0], theta, 1e-6 * (1 + np.abs(theta)))
    assert np.max(np.abs(grad)) <= 1e-4


def test_dar_semos_tau_recovery(dar_world):
    _, series, _ = dar_world
    model = models.fit("DAR-SEMOS", series)
    assert model.ar.tau[0] == pytest.approx(0.7, abs=0.1)


def test_dar_semos_whitens_residuals(dar_world):
    _, series, _ = dar_world
    model = models.fit("DAR-SEMOS", series)
    _, p = ljung_box(model.train_residuals, 10)
    assert p > 0.05


def test_sar_semos_tau_recovery(sar_world):
    _, series, _ = sar_world
    model = models.fit("SAR-SEMOS", series)
    assert model.ar.tau[0] == pytest.approx(0.6, abs=0.1)


def test_sar_beats_semos_on_sar_world(sar_world):
    cfg, series, _ = sar_world
    train = series.window(end=series.dates[729])
    dates = series.dates[730:]
    y = series.obs[730:]
    crps = {}
    for kind in ("SEMOS", "SAR-SEMOS"):
        model = models.fit(kind, train)
        mu, sigma = models.predict(model, series, dates)
        assert np.all(sigma > 0)
        crps[kind] = float(np.mean(crps_normal_series(mu, sigma, y)))
    assert crps["SAR-SEMOS"] < crps["SEMOS"]


def test_all_kinds_positive_sigma(sar_world):
    _, series, _ = sar_world
    train = series.window(end=series.dates[849])
    dates = series.dates[850:880]
    for kind in models.MODEL_KINDS:
        model = models.fit(kind, train)
        _, sigma = models.predict(model, series, dates)
        assert np.all(sigma > 0), kind


# ---------------------------------------------------------------------------
# reduction lattice (exact)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def semos_clones(sar_world):
    _, series, _ = sar_world
    base = models.fit("SEMOS", series.window(end=series.dates[729]))

    def clone(kind, ar=None, garch=None):
        return FittedModel(kind=kind, loc=base.loc.copy(), scale=base.scale.copy(),
                           ar=ar, garch=garch, meta=dict(base.meta))

    return series, base, clone


def test_reduction_dar_tau_zero_is_semos(semos_clones):
    series, base, clone = semos_clones
    dates = series.dates[730:790]
    mu0, s0 = models.predict(base, series, dates)
    mu1, s1 = models.predict(clone("DAR-SEMOS", ar=ARCoeffs(2, 0.0, (0.0, 0.0))), series, dates)
    assert np.allclose(mu1, mu0, atol=1e-12)
    assert np.allclose(s1, s0, atol=1e-12)


def test_reduction_sar_tau_zero_is_semos(semos_clones):
    series, base, clone = semos_clones
    dates = series.dates[730:790]
    mu0, s0 = models.predict(base, series, dates)
    mu2, s2 = models.predict(clone("SAR-SEMOS", ar=ARCoeffs(1, 0.0, (0.0,))), series, dates)
    assert np.allclose(mu2, mu0, atol=1e-12)
    assert np.allclose(s2, s0, atol=1e-12)


def test_reduction_unit_garch_is_dar(semos_clones):
    series, base, clone = semos_clones
    dates = series.dates[730:790]
    ar = ARCoeffs(2, 0.25, (0.5, 0.1))
    mu3, s3 = models.predict(clone("DAR-SEMOS", ar=ar), series, dates)
    mu4, s4 = models.predict(
        clone("DAR-GARCH-SEMOS", ar=ar, garch=GARCHCoeffs(1.0, 0.0, 0.0)), series, dates)
    assert np.allclose(mu4, mu3, atol=1e-12)
    assert np.allclose(s4, s3, atol=1e-12)


def test_constant_garch_factor_scales_sigma(semos_clones):
    series, base, clone = semos_clones
    dates = series.dates[730:790]
    ar = ARCoeffs(1, 0.0, (0.3,))
    _, s_dar = models.predict(clone("DAR-SEMOS", ar=ar), series, dates)
    omega0 = 2.5
    _, s_garch = models.predict(
        clone("DAR-GARCH-SEMOS", ar=ar, garch=GARCHCoeffs(omega0, 0.0, 0.0)), series, dates)
    assert np.allclose(s_garch, np.sqrt(omega0) * s_dar, atol=1e-12)


@pytest.mark.parametrize("lead", [24, 72, 120])
def test_reduction_sar_with_constant_scale_is_dar_with_eta_scaled(semos_clones, lead):
    # sigma_S = c: an AR(p) on (y - mu_S) / c around eta is one on y - mu_S
    # around eta c, one step ahead and bridged alike
    series, base, _ = semos_clones
    series = StationSeries.build(series.station_id, lead, series.dates, series.obs,
                                 series.members)
    c = 1.7
    scale = np.zeros(base.scale.size)
    scale[0] = np.log(c)

    def fixed(kind, eta):
        return FittedModel(kind=kind, loc=base.loc.copy(), scale=scale.copy(),
                           ar=ARCoeffs(3, eta, (0.5, -0.2, 0.1)),
                           meta={**base.meta, "lead_time_h": lead})

    sar, dar = fixed("SAR-SEMOS", -0.4), fixed("DAR-SEMOS", -0.4 * c)
    dates = np.concatenate([series.dates[:12], series.dates[730:790]])
    mu_sar, sigma_sar = models.predict(sar, series, dates)
    mu_dar, sigma_dar = models.predict(dar, series, dates)
    np.testing.assert_allclose(mu_sar, mu_dar, rtol=0, atol=1e-12)
    assert np.array_equal(sigma_sar, sigma_dar)
    train = series.window(end=series.dates[729])
    np.testing.assert_allclose(training_residuals(sar, train), training_residuals(dar, train),
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# no look-ahead
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lead", [24, 72])
def test_no_look_ahead_all_kinds(lead):
    cfg = SyntheticConfig(n_days=950, seed=17, lead_time_h=lead,
                          standardized_ar=True, ar=ARCoeffs(1, 0.0, (0.5,)))
    series, _ = generate_synthetic(cfg)
    train = series.window(end=series.dates[849])
    k = {24: 0, 72: 2}[lead]
    i = 900
    date = series.dates[i]
    corrupted = _corrupt_after(series, i - k)  # the k unobservable days and later
    for kind in models.MODEL_KINDS:
        model = models.fit(kind, train)
        a = models.predict(model, series, [date])
        b = models.predict(model, corrupted, [date])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]), kind


# ---------------------------------------------------------------------------
# one-pass seasonal prediction against a per-date reference
# ---------------------------------------------------------------------------

_FIXED_AR = {0: ARCoeffs(0, 0.3, ()), 1: ARCoeffs(1, 0.2, (0.6,)),
             3: ARCoeffs(3, -0.1, (0.5, -0.2, 0.1))}
_FIXED_GARCH = GARCHCoeffs(0.2, 0.6, 0.25)


def _fixed_model(semos_clones, kind, p, lead):
    """(model, series) for a seasonal AR kind with fixed coefficients at a
    lead time; loc/scale come from the SEMOS fit of the clones."""
    series, base, _ = semos_clones
    series = StationSeries.build(series.station_id, lead, series.dates, series.obs,
                                 series.members)
    model = FittedModel(kind=kind, loc=base.loc.copy(), scale=base.scale.copy(),
                        ar=_FIXED_AR[p],
                        garch=_FIXED_GARCH if kind == "DAR-GARCH-SEMOS" else None,
                        meta={**base.meta, "lead_time_h": lead})
    return model, series


def _per_date_reference(model, series, dates):
    """(mu, sigma) one date at a time: the eta-padded residual history, the
    AR recursion by hand and, for DAR-GARCH-SEMOS, the GARCH variance run
    to the last observable day and bridged by scalar steps."""
    t = time_index(series.dates, model.meta["origin"])
    mu_s = seasonal_design(t, series.ens_mean) @ model.loc
    sigma_s = np.exp(seasonal_design(t, series.ens_sd) @ model.scale)
    ar, g = model.ar, model.garch
    sar = model.kind == "SAR-SEMOS"
    x = (series.obs - mu_s) / sigma_s if sar else series.obs - mu_s
    k = lead_time_offset(series.lead_time_h)

    def one_step(window):
        acc = ar.eta
        for j in range(1, ar.p + 1):
            acc += ar.tau[j - 1] * (window[-j] - ar.eta)
        return acc

    mu, sigma = [], []
    for date in dates:
        i = int(np.searchsorted(series.dates, date))
        assert series.dates[i] == date
        h = max(i - k, 0)
        window = [ar.eta] * max(ar.p - h, 0) + list(x[max(h - ar.p, 0):h])
        for _ in range(i - h + 1):
            window.append(one_step(window))
        if sar:
            mu.append(mu_s[i] + sigma_s[i] * window[-1])
        else:
            mu.append(mu_s[i] + window[-1])
        if model.kind != "DAR-GARCH-SEMOS":
            sigma.append(sigma_s[i])
            continue
        w0, w1, w2 = g.omega0, g.omega1, g.omega2
        var = w0 / max(1.0 - w1 - w2, 1e-3)
        steps = max(i - ar.p, 0)
        if h > ar.p:
            for day in range(ar.p, h):
                if day > ar.p:  # the path's recursion, in the kernel's summation order
                    var = (w0 + w2 * rho_sq) + w1 * var
                eps = (x[day] - one_step(x[:day])) / sigma_s[day]
                rho_sq = eps * eps
            var = (w0 + w2 * rho_sq) + w1 * var  # one more path step
            steps = i - h
        for _ in range(steps):
            var = w0 + (w1 + w2) * var
        sigma.append(sigma_s[i] * np.sqrt(var))
    return np.array(mu), np.array(sigma)


@pytest.mark.parametrize("lead", [24, 72, 120])
@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("kind", ["DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS"])
def test_one_pass_prediction_matches_per_date_reference(kind, p, lead, semos_clones):
    model, series = _fixed_model(semos_clones, kind, p, lead)
    # the first days have i < k and h < p: padded histories, no GARCH path yet
    dates = np.concatenate([series.dates[:12], series.dates[730:790]])
    mu, sigma = models.predict(model, series, dates)
    ref_mu, ref_sigma = _per_date_reference(model, series, dates)
    assert np.array_equal(mu, ref_mu) and np.array_equal(sigma, ref_sigma)


@pytest.fixture(scope="module")
def garch_world():
    series, _ = generate_synthetic(SyntheticConfig(n_days=1000, m=10, seed=5,
                                                   garch=GARCHCoeffs(0.1, 0.55, 0.35)))
    return series


@pytest.mark.parametrize("kind", ["DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS"])
def test_24h_prediction_of_training_days_is_the_fit_forward_pass(kind, garch_world):
    # one forecast kernel: predicting the training days p..n-1 at 24 h runs
    # the same AR and GARCH recursions as the fit, to the bit
    model = models.fit(kind, garch_world)
    p = model.ar.p
    x_loc, x_scale = semos._designs(garch_world, model.meta["origin"])
    theta = semos._pack(model.loc, model.scale, model.ar, model.garch)
    fit_mu, fit_sigma, start, _ = semos._evaluate(kind, theta, p, x_loc, x_scale, garch_world.obs)
    assert start == p
    mu, sigma = models.predict(model, garch_world, garch_world.dates[p:])
    assert np.array_equal(mu, fit_mu) and np.array_equal(sigma, fit_sigma)


@pytest.mark.parametrize("kind", ["DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS"])
def test_one_pass_prediction_reads_no_later_observations(kind, semos_clones):
    model, series = _fixed_model(semos_clones, kind, 3, 72)
    i = 760
    h = i - lead_time_offset(72)
    dates = series.dates[730:790]  # dates after i may read the corrupted days
    mu, sigma = models.predict(model, series, dates)
    mu_c, sigma_c = models.predict(model, _corrupt_after(series, h, 1e3), dates)
    upto = i - 730 + 1
    assert np.array_equal(mu[:upto], mu_c[:upto]) and np.array_equal(sigma[:upto], sigma_c[:upto])
    assert not np.array_equal(mu, mu_c)


@pytest.mark.parametrize("lead", [24, 72])
@pytest.mark.parametrize("kind", ["DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS"])
def test_nonstationary_ar_warns_once_per_predict(kind, lead, semos_clones):
    model, series = _fixed_model(semos_clones, kind, 1, lead)
    model.ar = ARCoeffs(1, 0.0, (1.2,))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        models.predict(model, series, series.dates[730:740])
    assert len(record) == 1 and issubclass(record[0].category, UserWarning)
    assert "nonstationary" in str(record[0].message)


@pytest.mark.parametrize("lead", [24, 72])
@pytest.mark.parametrize("kind", ["SEMOS", "DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS"])
def test_stationary_seasonal_predict_emits_no_warning(kind, lead, semos_clones):
    model, series = _fixed_model(semos_clones, kind, 3, lead)
    if kind == "SEMOS":
        model.ar = None
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        models.predict(model, series, series.dates[730:740])
    assert record == []


def test_lead_mismatch_rejected(sar_world):
    _, series, _ = sar_world
    model = models.fit("SEMOS", series.window(end=series.dates[729]))
    other = StationSeries.build(series.station_id, 48, series.dates, series.obs, series.members)
    with pytest.raises(InvalidInput):
        models.predict(model, other, [series.dates[800]])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_fitted_model_json_contract(tmp_path, dar_world):
    _, series, _ = dar_world
    model = models.fit("DAR-GARCH-SEMOS", series)
    path = tmp_path / "fit.json"
    model.save(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"kind", "loc", "scale", "ar", "garch", "weight", "meta"}
    assert set(doc["ar"]) == {"p", "eta", "tau"}
    assert set(doc["garch"]) == {"omega0", "omega1", "omega2"}
    assert len(doc["loc"]) == 10 and len(doc["scale"]) == 10
    back = FittedModel.load(path)
    assert back.kind == model.kind
    assert np.allclose(back.loc, model.loc)
    assert back.ar == model.ar
    assert back.garch == model.garch
    # round trip preserves predictions exactly
    dates = series.dates[1000:1010]
    a = models.predict(model, series, dates)
    b = models.predict(back, series, dates)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_ar_emos_serialization_has_member_block(tmp_path, rng):
    series = make_series(rng.normal(size=160), rng=rng, m=4)
    model = models.fit("AR-EMOS", series)
    path = tmp_path / "aremos.json"
    model.save(path)
    doc = json.loads(path.read_text())
    assert "members_ar" in doc and len(doc["members_ar"]) == 4
    assert 0.0 <= doc["weight"] <= 1.0
    back = FittedModel.load(path)
    assert back.members_ar == model.members_ar


# ---------------------------------------------------------------------------
# objective gradients
# ---------------------------------------------------------------------------


def test_semos_objective_gradient_matches_analytic(dar_world, rng):
    # chain rule through the closed-form CRPS partials
    _, series, _ = dar_world
    t = time_index(series.dates, series.dates[0])
    x_loc = seasonal_design(t, series.ens_mean)
    x_scale = seasonal_design(t, series.ens_sd)
    y = series.obs
    fun = _objective("SEMOS", 0, x_loc, x_scale, y)
    from scipy.special import ndtr

    for _ in range(10):
        theta = np.concatenate([rng.normal(scale=0.3, size=10) + np.array([5] + [0] * 9),
                                rng.normal(scale=0.05, size=10)])
        mu = x_loc @ theta[:10]
        sigma = np.exp(x_scale @ theta[10:])
        z = (y - mu) / sigma
        d_mu = -(2 * ndtr(z) - 1)
        d_sigma = 2 * np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi) - 1 / np.sqrt(np.pi)
        analytic = np.concatenate([
            (d_mu[:, None] * x_loc).mean(axis=0),
            ((d_sigma * sigma)[:, None] * x_scale).mean(axis=0),
        ])
        numeric = numeric_gradient(lambda t: fun(t)[0], theta, 1e-6 * (1 + np.abs(theta)))
        scale = np.maximum(np.abs(analytic), 1e-6)
        assert np.all(np.abs(numeric - analytic) / scale < 1e-4)


@pytest.mark.parametrize("kind", ["DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS"])
def test_objective_gradient_fd_self_consistency(kind, dar_world, rng):
    # Richardson check: halving the step leaves the FD gradient unchanged
    _, series, _ = dar_world
    t = time_index(series.dates, series.dates[0])
    x_loc = seasonal_design(t, series.ens_mean)
    x_scale = seasonal_design(t, series.ens_sd)
    p = 1
    extra = 3 if kind == "DAR-GARCH-SEMOS" else 0
    fun = _objective(kind, p, x_loc, x_scale, series.obs)
    for _ in range(3):
        theta = np.concatenate([
            np.array([5.0, 0.9]), rng.normal(scale=0.2, size=8),
            np.array([0.0, 0.3]), rng.normal(scale=0.05, size=8),
            np.array([0.0, 0.4]),
            np.array([0.9, 0.4, 0.4])[:extra],
        ])
        h = 1e-6 * (1 + np.abs(theta))
        g1 = numeric_gradient(lambda t: fun(t)[0], theta, h)
        g2 = numeric_gradient(lambda t: fun(t)[0], theta, h / 2)
        scale = np.maximum(np.abs(g1), 1e-6)
        assert np.all(np.abs(g1 - g2) / scale < 1e-4)


def _random_theta(kind, p, rng, root_w=None):
    """theta in the seasonal fit layout (loc, scale, eta, tau, sqrt omega)."""
    pieces = [np.array([5.0, 0.9]), rng.normal(scale=0.2, size=8),
              np.array([0.0, 0.3]), rng.normal(scale=0.05, size=8)]
    if kind != "SEMOS":
        pieces.append(np.r_[rng.normal(scale=0.3), rng.uniform(-0.3, 0.3, size=p)])
    if kind == "DAR-GARCH-SEMOS":
        pieces.append(np.sqrt(rng.uniform([0.05, 0.3, 0.05], [0.5, 0.6, 0.3]))
                      if root_w is None else np.asarray(root_w, dtype=float))
    return np.concatenate(pieces)


def _assert_exact_gradient(kind, p, theta, dar_world):
    _, series, _ = dar_world
    t = time_index(series.dates, series.dates[0])
    args = (kind, p, seasonal_design(t, series.ens_mean), seasonal_design(t, series.ens_sd),
            series.obs)
    fun = _objective(*args)
    exact = fun(theta)[1]
    numeric = numeric_gradient(lambda t: fun(t)[0], theta, 1e-6 * (1 + np.abs(theta)))
    assert exact.shape == theta.shape
    np.testing.assert_allclose(exact, numeric, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("kind, p", [("SEMOS", 0)] + [
    (kind, p) for kind in ("DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS") for p in (0, 1, 3)])
def test_exact_gradient_matches_finite_differences(kind, p, dar_world, rng):
    for _ in range(3):
        _assert_exact_gradient(kind, p, _random_theta(kind, p, rng), dar_world)


@pytest.mark.parametrize("root_w", [
    # omega1 + omega2 = 1.05: the start value's denominator sits on its floor
    [0.6, np.sqrt(0.7), np.sqrt(0.35)],
    # omega0 = 0: the start value falls back to 1.0
    [0.0, np.sqrt(0.6), np.sqrt(0.2)],
])
@pytest.mark.parametrize("p", [0, 1, 3])
def test_exact_gradient_garch_start_branches(root_w, p, dar_world, rng):
    theta = _random_theta("DAR-GARCH-SEMOS", p, rng, root_w)
    _assert_exact_gradient("DAR-GARCH-SEMOS", p, theta, dar_world)


def _counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` from here on; returns the count list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kind", models.SEASONAL_KINDS)
def test_seasonal_fit_runs_one_forward_pass_per_point(kind, dar_world, monkeypatch):
    # one per optimizer evaluation (value and gradient together), one for
    # init_crps and one for the training residuals
    _, series, _ = dar_world
    passes = _counting(monkeypatch, semos, "_evaluate")
    model = models.fit(kind, series)
    assert len(passes) == model.meta["n_evals"] + 2


@pytest.mark.parametrize("constant", [None, 2.7, 1.0 / 3.0])
def test_ols_is_the_minimum_norm_least_squares_answer(constant, dar_world):
    # a constant covariate makes the slope columns copies of the intercept
    # columns: rank 5, and lstsq's minimum-norm answer
    _, series, _ = dar_world
    t = time_index(series.dates, series.dates[0])
    covariate = series.ens_mean if constant is None else np.full(t.size, constant)
    design = seasonal_design(t, covariate)
    assert np.linalg.matrix_rank(design) == (10 if constant is None else 5)
    expected, *_ = np.linalg.lstsq(design, series.obs, rcond=None)
    np.testing.assert_allclose(semos._ols(design, series.obs), expected, rtol=0, atol=1e-10)


def _recorded_fit(kind, series, monkeypatch):
    """The fitted model and the arguments and result of its ``minimize`` call."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs, minimize(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(semos, "minimize", recording)
    model = models.fit(kind, series)
    [call] = calls
    return model, call


_TWO_BASINS = pytest.mark.xfail(strict=True, reason=(
    "SAR-SEMOS on the DAR world has two local minima, with a barrier 2e-3 high "
    "between them; the curvature start ends in the one 5.0e-5 higher"))


@pytest.mark.parametrize("kind, world", [
    (kind, world) if (kind, world) != ("SAR-SEMOS", "dar_world")
    else pytest.param(kind, world, marks=_TWO_BASINS)
    for world in ("sar_world", "dar_world") for kind in models.SEASONAL_KINDS])
def test_curvature_start_ends_no_higher_than_an_identity_start(kind, world, request,
                                                                 monkeypatch):
    _, series, _ = request.getfixturevalue(world)
    model, ((fun, theta0, settings), kwargs, result) = _recorded_fit(kind, series, monkeypatch)
    assert kwargs["inverse_hessian"].shape == (theta0.size, theta0.size)
    identity = minimize(fun, theta0, settings)
    assert model.meta["converged"]
    tolerance = 1e-3 if kind == "DAR-GARCH-SEMOS" else 1e-9
    assert result.value <= identity.value + tolerance


def _three_block_gauss_newton(mu, sigma, y, x_loc, x_scale, n_params):
    """The seasonal start's Gauss-Newton matrix as three blocks: the CRPS
    second partials c (1, z, z^2) through mu = X_loc a, sigma = exp(X_scale b)."""
    start = y.size - mu.size
    z = (y[start:] - mu) / sigma
    c = 2.0 * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi) / sigma
    xl, xs, k = x_loc[start:], x_scale[start:], x_loc.shape[1]
    h = np.zeros((n_params, n_params))
    h[:k, :k] = np.einsum("ti,t,tj->ij", xl, c, xl)
    h[:k, k:2 * k] = np.einsum("ti,t,tj->ij", xl, c * z * sigma, xs)
    h[k:2 * k, :k] = h[:k, k:2 * k].T
    h[k:2 * k, k:2 * k] = np.einsum("ti,t,tj->ij", xs, c * z * z * sigma * sigma, xs)
    h /= mu.size
    tail = np.arange(2 * k, n_params)
    h[tail, tail] = np.mean(np.diag(h)[:2 * k])
    return h


@pytest.mark.parametrize("world", ["sar_world", "dar_world"])
@pytest.mark.parametrize("kind", models.SEASONAL_KINDS)
def test_curvature_start_inverts_the_three_block_gauss_newton_matrix(kind, world, request,
                                                                      monkeypatch):
    _, series, _ = request.getfixturevalue(world)
    curvature_start, eigh = semos._curvature_start, np.linalg.eigh
    starts, matrices = [], []
    monkeypatch.setattr(semos, "_curvature_start",
                        lambda *args: starts.append(args) or curvature_start(*args))
    models.fit(kind, series)
    [args] = starts
    monkeypatch.setattr(np.linalg, "eigh", lambda h: matrices.append(h.copy()) or eigh(h))
    curvature_start(*args)
    [matrix] = matrices
    np.testing.assert_allclose(matrix, _three_block_gauss_newton(*args), rtol=1e-12, atol=0)


@pytest.mark.parametrize("world", ["sar_world", "dar_world"])
def test_semos_fit_converges_in_few_iterations(world, request):
    _, series, _ = request.getfixturevalue(world)
    model = models.fit("SEMOS", series)
    assert model.meta["converged"] and model.meta["iterations"] <= 20


def test_dar_garch_semos_scale_intercept_and_omega0_lie_on_a_ridge(dar_world):
    # sigma_S * c and omega0 / c^2 give the same sigma_S * sigma_G: the
    # objective and the predictions do not move along the ridge
    _, series, _ = dar_world
    train = series.window(end=series.dates[899])
    model = models.fit("DAR-GARCH-SEMOS", train)
    c = 2.0
    scale = model.scale.copy()
    scale[0] += np.log(c)
    g = model.garch
    moved = FittedModel(kind=model.kind, loc=model.loc, scale=scale, ar=model.ar,
                        garch=GARCHCoeffs(g.omega0 / c**2, g.omega1, g.omega2),
                        meta=model.meta)
    t = time_index(train.dates, train.dates[0])
    fun = _objective("DAR-GARCH-SEMOS", model.ar.p, seasonal_design(t, train.ens_mean),
                     seasonal_design(t, train.ens_sd), train.obs)
    value = fun(semos._pack(model.loc, model.scale, model.ar, model.garch))[0]
    value_moved = fun(semos._pack(moved.loc, moved.scale, moved.ar, moved.garch))[0]
    assert value_moved == pytest.approx(value, rel=1e-13)
    dates = series.dates[900:1000]
    mu, sigma = semos.seasonal_predict(model, series, dates)
    mu_moved, sigma_moved = semos.seasonal_predict(moved, series, dates)
    np.testing.assert_array_equal(mu_moved, mu)
    np.testing.assert_allclose(sigma_moved, sigma, rtol=1e-13)


def test_fit_garch_runs_one_path_per_evaluation(rng, monkeypatch):
    results = []

    def recording(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(timeseries, "minimize", recording)
    paths = _counting(monkeypatch, timeseries, "garch_path")
    fit_garch(rng.standard_normal(500) * np.sqrt(rng.uniform(0.5, 2.0, size=500)))
    [result] = results
    assert len(paths) == result.n_evals > 1


def test_fits_use_no_finite_differences(dar_world, rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("finite-difference gradient in a production fit")

    monkeypatch.setattr(optimize, "numeric_gradient", forbidden)
    _, series, _ = dar_world
    for kind in models.SEASONAL_KINDS:
        model = models.fit(kind, series)
        assert model.meta["converged"]
    fit_garch(rng.standard_normal(500) * np.sqrt(rng.uniform(0.5, 2.0, size=500)))


def test_seasonal_fit_meta_records_effort(dar_world):
    _, series, _ = dar_world
    model = models.fit("DAR-GARCH-SEMOS", series)
    meta = model.meta
    assert isinstance(meta["n_evals"], int) and meta["n_evals"] >= meta["iterations"]
    assert 0.0 <= meta["grad_norm"] <= 1e-6
    assert FittedModel.from_dict(json.loads(json.dumps(model.to_dict()))).meta == meta


@pytest.mark.parametrize("kind", ["SEMOS", "DAR-SEMOS", "DAR-GARCH-SEMOS", "SAR-SEMOS"])
def test_training_residuals_recomputed_from_stored_coefficients(kind, dar_world):
    _, series, _ = dar_world
    model = models.fit(kind, series)
    stored = FittedModel.from_dict(json.loads(json.dumps(model.to_dict())))
    np.testing.assert_array_equal(training_residuals(stored, series), model.train_residuals)


def test_training_residuals_need_a_seasonal_model(dar_world):
    _, series, _ = dar_world
    with pytest.raises(InvalidInput):
        training_residuals(models.fit("EMOS", series), series)


# ---------------------------------------------------------------------------
# day-of-year climatology helper
# ---------------------------------------------------------------------------


def _empirical_sd_loop(dates, obs, half_width):
    """Reference: one window mask and one np.std per day of year."""
    doy = day_of_year(dates)
    out = np.empty(obs.size)
    for d in np.unique(doy):
        dist = np.abs(doy - d)
        out[doy == d] = np.std(obs[np.minimum(dist, 365 - dist) <= half_width], ddof=1)
    return out


@pytest.mark.parametrize("start, n, half_width", [
    ("2015-01-01", 1826, 15), ("2016-02-20", 400, 15), ("2015-12-25", 30, 3),
    ("2015-01-01", 2192, 0), ("2015-03-01", 1000, 40)])
def test_empirical_sd_matches_the_per_day_loop(start, n, half_width, rng):
    # windows across the year end and the leap day, and a mean far above the
    # spread, where a one-pass variance would cancel
    dates = np.datetime64(start) + np.arange(n)
    obs = 20.0 + 5.0 * np.sin(np.arange(n) / 58.0) + 3.0 * rng.standard_normal(n)
    np.testing.assert_allclose(empirical_sd_by_day_of_year(dates, obs, half_width),
                               _empirical_sd_loop(dates, obs, half_width), rtol=1e-13)


@pytest.mark.parametrize("dates, obs, message", [
    (np.datetime64("2015-06-01") + np.arange(1), np.ones(1),
     "day-of-year window around 152 has < 2 observations"),
    (np.datetime64("2015-06-01") + np.arange(40), np.ones(40),
     "constant observations inside a day-of-year window"),
])
def test_empirical_sd_degenerate_windows(dates, obs, message):
    with pytest.raises(DegenerateSeries, match=f"^{message}$"):
        empirical_sd_by_day_of_year(dates, obs, 15)


def test_empirical_sd_pools_across_years(rng):
    n = 1096
    dates = np.datetime64("2015-01-01") + np.arange(n)
    obs = rng.normal(size=n)
    sd = empirical_sd_by_day_of_year(dates, obs, half_width=15)
    assert sd.shape == (n,)
    assert np.all(sd > 0)
    # same day of year in different years shares the window
    assert sd[0] == pytest.approx(sd[365], abs=1e-12)
