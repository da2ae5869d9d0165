import json

import numpy as np
import pytest

from enspost import models
from enspost.data import StationSeries, SyntheticConfig, generate_synthetic, time_index
from enspost.errors import InsufficientHistory, InvalidInput
from enspost.models import FittedModel
from enspost.models import ar_emos
from enspost.models.ar_emos import _adjusted_ensemble, _estimate_at
from enspost.models.emos import _RIDGE, _window_objective, emos_fit_window
from enspost.models.semos import _objective, empirical_sd_by_day_of_year
from enspost.optimize import numeric_gradient
from enspost.scoring import crps_ensemble, crps_normal_series
from enspost.seasonal import SeasonalCoeffs, seasonal_design
from enspost.timeseries import ARCoeffs, ARFits, GARCHCoeffs, ljung_box

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
        coeffs = emos_fit_window(series.ens_mean[sl], series.ens_sd[sl], series.obs[sl])
        a1.append(coeffs[1])
    assert np.mean(a1) == pytest.approx(1.0, abs=0.1)


def test_emos_window_constant_spread_stays_finite(rng):
    n = 30
    xbar = rng.normal(size=n)
    offsets = np.array([-1.0, 0.0, 1.0])  # exactly constant ensemble sd
    members = xbar[:, None] + offsets[None, :]
    y = xbar + 0.5 * rng.standard_normal(n)
    coeffs = emos_fit_window(xbar, members.std(axis=1, ddof=1), y)
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
    objective, gradient = _window_objective(xbar, log_s, y)
    for _ in range(10):
        # |theta_i| >= 1 keeps the ridge part 2e-8 theta above the 5e-9 tolerance
        theta = rng.choice([-1.0, 1.0], size=4) * rng.uniform(1.0, 2.0, size=4)
        crps = np.mean(crps_normal_series(theta[0] + theta[1] * xbar,
                                          np.exp(theta[2] + theta[3] * log_s), y))
        assert objective(theta) == pytest.approx(crps + ridge * theta @ theta, abs=1e-15)
        numeric = numeric_gradient(objective, theta, 1e-6 * (1 + np.abs(theta)))
        assert np.all(np.abs(gradient(theta) - numeric) <= 5e-9)


# ---------------------------------------------------------------------------
# AR-EMOS
# ---------------------------------------------------------------------------


def test_ar_emos_weight_endpoints(rng):
    n = 200
    common = np.cumsum(rng.normal(size=n)) * 0.2
    members = common[:, None] + rng.standard_normal((n, 10))
    y = common + rng.standard_normal(n)
    series = make_series(y, members=members)
    fits, sigma1, _ = _estimate_at(series, n, 90, 30)
    adjusted = _adjusted_ensemble(series, fits, n - 1, n - 1)
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
    fits, _, _ = _estimate_at(series, n, 90, 30)
    adjusted = _adjusted_ensemble(series, fits, n - 1, n - 1)
    assert np.allclose(adjusted, y[n - 1], atol=1e-10)


def test_ar_emos_degenerate_column_warning_names_member(rng, caplog):
    n = 150
    y = rng.normal(size=n)
    members = y[:, None] + rng.standard_normal((n, 4))
    members[:, 2] = y + 0.5  # member 3's errors are constant
    series = make_series(y, members=members)
    with caplog.at_level("WARNING"):
        fits, _, _ = _estimate_at(series, n, 90, 30)
    assert "member 3 error series degenerate" in caplog.text
    assert caplog.text.count("degenerate") == 1
    assert fits.degenerate.tolist() == [False, False, True, False]
    assert fits.p[2] == 0 and fits.eta[2] == pytest.approx(-0.5)


def test_ar_emos_short_history_padded_with_eta(rng):
    n = 12
    series = make_series(rng.normal(size=n), rng=rng, m=3)
    member_fits = [ARCoeffs(0, 0.3, ()), ARCoeffs(1, -0.1, (0.5,)),
                   ARCoeffs(4, 0.2, (0.3, -0.2, 0.1, 0.05))]
    h, i = 2, 5  # two observed errors, four unobservable days
    got = _adjusted_ensemble(series, ARFits.stack(member_fits), h, i)
    for mi, ar in enumerate(member_fits):
        work = [ar.eta] * max(ar.p - h, 0) + list(series.obs[:h] - series.members[:h, mi])
        for _ in range(i - h + 1):
            work.append(ar.eta + sum(t * (work[-j] - ar.eta)
                                     for j, t in enumerate(ar.tau, start=1)))
        assert got[mi] == pytest.approx(series.members[i, mi] + work[-1], abs=1e-12)


def test_ar_emos_fits_all_members_once_per_date(rng, monkeypatch):
    n = 200
    series = make_series(rng.normal(size=n), rng=rng, m=6)
    model = models.fit("AR-EMOS", series.window(end=series.dates[149]))
    calls = []
    real = ar_emos.fit_ar_yule_walker

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(ar_emos, "fit_ar_yule_walker", counting)
    dates = series.dates[150:162]
    models.predict(model, series, dates)
    assert calls == [(90, 6)] * dates.size


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
    grad = numeric_gradient(fun, theta, 1e-6 * (1 + np.abs(theta)))
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
        numeric = numeric_gradient(fun, theta, 1e-6 * (1 + np.abs(theta)))
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
        g1 = numeric_gradient(fun, theta, h)
        g2 = numeric_gradient(fun, theta, h / 2)
        scale = np.maximum(np.abs(g1), 1e-6)
        assert np.all(np.abs(g1 - g2) / scale < 1e-4)


# ---------------------------------------------------------------------------
# day-of-year climatology helper
# ---------------------------------------------------------------------------


def test_empirical_sd_pools_across_years(rng):
    n = 1096
    dates = np.datetime64("2015-01-01") + np.arange(n)
    obs = rng.normal(size=n)
    sd = empirical_sd_by_day_of_year(dates, obs, half_width=15)
    assert sd.shape == (n,)
    assert np.all(sd > 0)
    # same day of year in different years shares the window
    assert sd[0] == pytest.approx(sd[365], abs=1e-12)
