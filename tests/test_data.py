import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enspost.data import (
    StationSeries,
    SyntheticConfig,
    ensemble_stats,
    generate_synthetic,
    impute_missing,
    impute_series,
    lead_time_offset,
    load_station_csv,
    time_index,
    write_station_csv,
)
from enspost.errors import (
    ImputationFailure,
    InvalidConfig,
    InvalidEnsemble,
    ParseError,
)
from enspost.seasonal import SeasonalCoeffs
from enspost.timeseries import ARCoeffs, GARCHCoeffs

from conftest import make_series


# ---------------------------------------------------------------------------
# ensemble statistics
# ---------------------------------------------------------------------------


def test_ensemble_stats_symmetric_case():
    assert ensemble_stats([1.0, 2.0, 3.0]) == pytest.approx((2.0, 1.0))


def test_ensemble_stats_constant_then_rejected_downstream():
    mean, sd = ensemble_stats([5.0, 5.0, 5.0, 5.0])
    assert (mean, sd) == (5.0, 0.0)
    dates = np.datetime64("2015-01-01") + np.arange(2)
    with pytest.raises(InvalidEnsemble):
        StationSeries.build("X", 24, dates, [1.0, 2.0], [[5.0, 5.0], [5.0, 5.0]])


def test_ensemble_stats_two_pass_oracle(rng):
    x = rng.standard_normal(50)
    mean, sd = ensemble_stats(x)
    oracle_mean = sum(float(v) for v in x) / 50
    oracle_var = sum((float(v) - oracle_mean) ** 2 for v in x) / 49
    assert mean == pytest.approx(oracle_mean, abs=1e-12)
    assert sd == pytest.approx(np.sqrt(oracle_var), abs=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=40))
def test_ensemble_stats_matches_two_pass(values):
    mean, sd = ensemble_stats(values)
    m = sum(values) / len(values)
    v = sum((x - m) ** 2 for x in values) / (len(values) - 1)
    assert mean == pytest.approx(m, abs=1e-9)
    assert sd == pytest.approx(np.sqrt(v), abs=1e-9)


def test_ensemble_stats_rejects_small_or_nonfinite():
    with pytest.raises(InvalidEnsemble):
        ensemble_stats([1.0])
    with pytest.raises(InvalidEnsemble):
        ensemble_stats([1.0, np.inf])


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------


def test_impute_symmetric_neighbors():
    out = impute_missing([1.0, np.nan, 3.0], half_window=1, decay=0.5)
    assert out[1] == pytest.approx(2.0)


def test_impute_identity_on_complete():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(impute_missing(x), x)


def test_impute_weighted_sum_oracle():
    x = np.array([0.0, np.nan, np.nan, np.nan, 4.0])
    out = impute_missing(x, half_window=4, decay=0.5)
    lam = 0.5
    for i in (1, 2, 3):
        wsum = vsum = 0.0
        for d in range(1, 5):
            for j in (i - d, i + d):
                if 0 <= j < 5 and np.isfinite(x[j]):
                    wsum += lam ** d
                    vsum += lam ** d * x[j]
        assert out[i] == pytest.approx(vsum / wsum, abs=1e-12)


def test_impute_long_gap_rejected():
    x = np.array([1.0, np.nan, np.nan, np.nan, np.nan, 2.0])
    with pytest.raises(ImputationFailure, match="index 4"):
        impute_missing(x, half_window=6)


def test_impute_unreachable_side_rejected():
    with pytest.raises(ImputationFailure):
        impute_missing(np.array([np.nan, np.nan, 1.0, 2.0]), half_window=1, max_gap=3)


def test_impute_idempotent(rng):
    x = rng.normal(size=30)
    x[[4, 11, 12]] = np.nan
    once = impute_missing(x)
    twice = impute_missing(once)
    assert np.array_equal(once, twice)


def test_impute_series_round_trip(rng):
    obs = rng.normal(size=20)
    obs[7] = np.nan
    series = make_series(obs, rng=rng)
    fixed = impute_series(series)
    assert fixed.is_complete()
    mask = np.ones(20, dtype=bool)
    mask[7] = False
    assert np.array_equal(fixed.obs[mask], series.obs[mask])


# ---------------------------------------------------------------------------
# series invariants and CSV round trip
# ---------------------------------------------------------------------------


def test_build_rejects_date_gap():
    dates = np.array(["2015-01-01", "2015-01-02", "2015-01-04"], dtype="datetime64[D]")
    with pytest.raises(ParseError, match="gapped"):
        StationSeries.build("X", 24, dates, np.zeros(3), np.random.default_rng(0).normal(size=(3, 4)))


def test_build_rejects_duplicate_date():
    # duplicate pair sits at file rows 3 and 4 (header counted); the second is named
    dates = np.array(["2015-01-01", "2015-01-02", "2015-01-02"], dtype="datetime64[D]")
    with pytest.raises(ParseError, match="row 4"):
        StationSeries.build("X", 24, dates, np.zeros(3), np.random.default_rng(0).normal(size=(3, 4)))


def test_series_arrays_read_only(rng):
    series = make_series(rng.normal(size=5), rng=rng)
    with pytest.raises(ValueError):
        series.obs[0] = 1.0


def test_load_smoke_three_rows(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "station_id,date,lead_time_h,obs,m1,m2\n"
        "A,2015-01-01,24,1.5,1.0,2.0\n"
        "A,2015-01-02,24,,2.0,3.0\n"
        "A,2015-01-03,24,2.5,3.0,4.0\n")
    series = load_station_csv(path)
    assert series.n_days == 3
    assert series.station_id == "A"
    assert np.isnan(series.obs[1])
    assert series.ens_mean[0] == pytest.approx(1.5)


def test_load_duplicate_date_names_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "station_id,date,lead_time_h,obs,m1,m2\n"
        "A,2015-01-01,24,1.5,1.0,2.0\n"
        "A,2015-01-01,24,1.6,1.0,2.0\n")
    with pytest.raises(ParseError, match="row 3"):
        load_station_csv(path)


@pytest.mark.parametrize("lead", ["24.5", "24.9"])
def test_load_non_integral_lead_time_names_row(tmp_path, lead):
    path = tmp_path / "s.csv"
    path.write_text(
        "station_id,date,lead_time_h,obs,m1,m2\n"
        "A,2015-01-01,24,1.5,1.0,2.0\n"
        f"A,2015-01-02,{lead},1.6,1.0,2.0\n")
    with pytest.raises(ParseError, match="row 3"):
        load_station_csv(path, lead_time_h=24)


def test_load_bad_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("station,when,lead,obs,m1\nA,2015-01-01,24,1,2\n")
    with pytest.raises(ParseError, match="row 1"):
        load_station_csv(path)


def test_load_filters_mixed_file(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "station_id,date,lead_time_h,obs,m1,m2\n"
        "A,2015-01-01,24,1.5,1.0,2.0\n"
        "B,2015-01-01,24,2.5,2.0,3.0\n"
        "A,2015-01-02,24,1.6,1.1,2.1\n")
    series = load_station_csv(path, station_id="A", lead_time_h=24)
    assert series.n_days == 2
    with pytest.raises(ParseError, match="filters"):
        load_station_csv(path)


def test_csv_round_trip(tmp_path, rng):
    series, _ = generate_synthetic(SyntheticConfig(n_days=40, m=5, seed=9))
    path = tmp_path / "round.csv"
    write_station_csv(series, path)
    back = load_station_csv(path)
    assert np.array_equal(back.dates, series.dates)
    assert np.allclose(back.obs, series.obs, atol=1e-9)
    assert np.allclose(back.members, series.members, atol=1e-9)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_synthetic_degenerate_dgp_moments():
    # all seasonal amplitudes 0, tau=0, bias 0, a1=b1=0: obs iid N(a0, e^(2 b0))
    cfg = SyntheticConfig(
        n_days=4000, seed=11,
        loc=SeasonalCoeffs(3.0, 0.0), scale=SeasonalCoeffs(0.2, 0.0),
        ar=ARCoeffs(0, 0.0, ()),
        clim_amp=0.0, weather_sd=0.0, spread_amp=0.0)
    series, truth = generate_synthetic(cfg)
    sigma = np.exp(0.2)
    n = series.n_days
    assert np.mean(series.obs) == pytest.approx(3.0, abs=3 * sigma / np.sqrt(n))
    assert np.std(series.obs) == pytest.approx(sigma, abs=3 * sigma / np.sqrt(2 * n))
    assert np.allclose(truth.mu, 3.0)
    assert np.allclose(truth.sigma, sigma)


def test_synthetic_ar_autocorrelation():
    cfg = SyntheticConfig(n_days=2000, seed=21, ar=ARCoeffs(1, 0.0, (0.8,)),
                          scale=SeasonalCoeffs(0.0, 0.0))
    series, truth = generate_synthetic(cfg)
    r = series.obs - truth.mu_seasonal
    rho1 = np.corrcoef(r[1:], r[:-1])[0, 1]
    assert rho1 == pytest.approx(0.8, abs=0.05)


def test_synthetic_same_seed_identical():
    a, ta = generate_synthetic(SyntheticConfig(n_days=100, seed=5))
    b, tb = generate_synthetic(SyntheticConfig(n_days=100, seed=5))
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.members, b.members)
    assert np.array_equal(ta.mu, tb.mu)


def test_synthetic_seed_changes_draw_not_invariants():
    for seed in (1, 2, 3):
        series, truth = generate_synthetic(SyntheticConfig(n_days=150, seed=seed))
        assert series.is_complete()
        assert np.all(series.ens_sd > 0)
        assert np.all(np.diff(series.dates) == np.timedelta64(1, "D"))
        assert np.all(truth.sigma > 0)
    a, _ = generate_synthetic(SyntheticConfig(n_days=150, seed=1))
    b, _ = generate_synthetic(SyntheticConfig(n_days=150, seed=2))
    assert not np.array_equal(a.obs, b.obs)


def test_synthetic_truth_innovations_standard_normal():
    series, truth = generate_synthetic(SyntheticConfig(n_days=3000, seed=3,
                                                       standardized_ar=True))
    z = (series.obs - truth.mu) / truth.sigma
    assert abs(np.mean(z)) < 0.06
    assert np.std(z) == pytest.approx(1.0, abs=0.05)


def test_synthetic_nonstationary_rejected():
    with pytest.raises(InvalidConfig):
        generate_synthetic(SyntheticConfig(ar=ARCoeffs(1, 0.0, (1.05,))))
    with pytest.raises(InvalidConfig):
        generate_synthetic(SyntheticConfig(garch=GARCHCoeffs(0.1, 0.7, 0.3)))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_synthetic_invariants_hold_for_any_seed(seed):
    series, _ = generate_synthetic(SyntheticConfig(n_days=60, m=6, seed=seed))
    assert series.is_complete()
    assert np.all(series.ens_sd > 0)


# ---------------------------------------------------------------------------
# time index and lead offsets
# ---------------------------------------------------------------------------


def test_time_index_runs_across_years():
    dates = np.datetime64("2015-12-30") + np.arange(5)
    t = time_index(dates, "2015-12-30")
    assert np.array_equal(t, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_lead_time_offsets():
    assert [lead_time_offset(h) for h in (24, 48, 72, 96, 120)] == [0, 1, 2, 3, 4]
