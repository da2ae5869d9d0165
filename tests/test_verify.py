import numpy as np
import pytest
from hypothesis import given, strategies as st

from enspost.errors import (
    AlignmentError,
    DegenerateDifferential,
    EmptyInput,
    InvalidInput,
    InvalidPIT,
)
from enspost.scoring import GaussianParams, ScoreSample, crps_normal, score_cases
from enspost.verify import (
    ScoreTable,
    benjamini_hochberg,
    dm_test,
    pit_histogram,
    rank_histogram,
    residual_dependence_table,
    significance_matrix,
)


# ---------------------------------------------------------------------------
# Diebold-Mariano
# ---------------------------------------------------------------------------


def test_dm_identical_series_degenerate(rng):
    s = rng.normal(size=100)
    with pytest.raises(DegenerateDifferential):
        dm_test(s, s)


def test_dm_constant_offset_degenerate(rng):
    s = rng.normal(size=100)
    with pytest.raises(DegenerateDifferential):
        dm_test(s, s + 0.4)


def test_dm_statistic_antisymmetric(rng):
    a = rng.normal(size=300)
    b = rng.normal(size=300)
    stat_ab, _ = dm_test(a, b)
    stat_ba, _ = dm_test(b, a)
    assert stat_ab == pytest.approx(-stat_ba, abs=1e-12)


def test_dm_tail_p_values_keep_their_digits_far_out(rng):
    # |stat| near 9, where 1 - ndtr(stat) cancels to 0: each one-sided
    # p-value is the other's with the scores swapped, to the bit, and the
    # two-sided p-value is twice the one-sided one
    b = rng.normal(size=365)
    a = b - 0.47 + rng.normal(size=365)
    stat, p_a = dm_test(a, b, "a_better")
    _, p_b = dm_test(b, a, "b_better")
    _, p_two = dm_test(a, b)
    assert 8.5 < abs(stat) < 9.5
    assert 0.0 < p_a == p_b < 1e-17
    assert p_two == 2.0 * p_a


def test_dm_size_two_sided():
    rejections = 0
    n_seeds = 400
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=1000)
        _, p = dm_test(d, np.zeros(1000))
        rejections += p < 0.05
    assert rejections / n_seeds == pytest.approx(0.05, abs=0.025)


def test_dm_power_one_sided():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.normal(-0.2, 1.0, size=365)
        _, p = dm_test(a, np.zeros(365), "a_better")
        hits += p < 0.01
    assert hits > 90


def test_dm_alternative_validation(rng):
    with pytest.raises(InvalidInput):
        dm_test(rng.normal(size=50), rng.normal(size=50), "better")
    with pytest.raises(AlignmentError):
        dm_test(rng.normal(size=50), rng.normal(size=49))
    with pytest.raises(InvalidInput):
        dm_test(rng.normal(size=5), rng.normal(size=5))


# ---------------------------------------------------------------------------
# Benjamini-Hochberg
# ---------------------------------------------------------------------------


def test_bh_hand_worked_example():
    flags = benjamini_hochberg([0.01, 0.02, 0.03, 0.04, 0.20], alpha=0.05)
    assert flags.tolist() == [True, True, True, True, False]


def test_bh_all_ones_no_rejection():
    assert not benjamini_hochberg(np.ones(7), alpha=0.05).any()


def test_bh_single_p_reduces_to_plain_test():
    assert benjamini_hochberg([0.04], alpha=0.05).tolist() == [True]
    assert benjamini_hochberg([0.06], alpha=0.05).tolist() == [False]


@given(st.lists(st.floats(0, 1), min_size=1, max_size=20), st.integers(0, 19))
def test_bh_monotone_in_p(p_values, idx):
    alpha = 0.05
    before = benjamini_hochberg(p_values, alpha).sum()
    lowered = list(p_values)
    lowered[idx % len(lowered)] = lowered[idx % len(lowered)] / 2.0
    after = benjamini_hochberg(lowered, alpha).sum()
    assert after >= before


# ---------------------------------------------------------------------------
# significance matrix
# ---------------------------------------------------------------------------


def _table_from_crps(case_crps_by_method, n_cells=1, n_cases=None):
    table = ScoreTable()
    for method, crps_cells in case_crps_by_method.items():
        for cell, crps in enumerate(crps_cells):
            crps = np.asarray(crps, dtype=float)
            sample = score_cases(np.zeros(crps.size), np.ones(crps.size),
                                 np.zeros(crps.size), level=0.9)
            sample.crps = crps
            table.add_sample(method, f"S{cell:02d}", 24, sample)
    return table


def test_significance_matrix_diagonal_zero(rng):
    crps = [rng.uniform(0.5, 1.5, size=200)]
    table = _table_from_crps({"A": crps, "B": [crps[0] + rng.normal(0, 0.01, 200)]})
    matrix = significance_matrix(table)
    assert matrix.percent[0, 0] == 0.0
    assert matrix.percent[1, 1] == 0.0


def test_significance_matrix_identical_methods_zero(rng):
    crps = [rng.uniform(0.5, 1.5, size=120)]
    table = _table_from_crps({"A": crps, "B": [crps[0].copy()]})
    matrix = significance_matrix(table)
    assert matrix.percent[0, 1] == 0.0
    assert matrix.percent[1, 0] == 0.0


def test_significance_matrix_constructed_dominance(rng):
    # A dominates B by 0.3 in distribution across every cell (a literal
    # constant per-case offset would degenerate the DM differential)
    cells_a, cells_b = [], []
    for _ in range(20):
        cells_b.append(rng.uniform(1.0, 2.0, size=365) + rng.normal(0, 0.3, size=365))
        cells_a.append(rng.uniform(1.0, 2.0, size=365) + rng.normal(0, 0.3, size=365) - 0.3)
    table = _table_from_crps({"A": cells_a, "B": cells_b})
    matrix = significance_matrix(table, alpha=0.05)
    i, j = 0, 1
    assert matrix.percent[i, j] >= 95.0
    assert matrix.percent[j, i] == 0.0
    assert matrix.percent[i, j] + matrix.percent[j, i] <= 100.0


def test_significance_matrix_misaligned_rejected(rng):
    table = _table_from_crps({"A": [rng.uniform(1, 2, 100)]})
    sample = score_cases(np.zeros(90), np.ones(90), np.zeros(90), level=0.9)
    table.add_sample("B", "S99", 24, sample)
    with pytest.raises(AlignmentError):
        significance_matrix(table)


def test_significance_matrix_repeated_row_keeps_the_first(rng):
    crps = [rng.uniform(0.5, 1.5, size=120) for _ in range(3)]
    table = _table_from_crps({"A": crps, "B": [c + 0.2 + rng.normal(0, 0.2, 120) for c in crps]})
    before = significance_matrix(table).percent
    sample = score_cases(np.zeros(120), np.ones(120), np.zeros(120), level=0.9)
    sample.crps = crps[0] + 5.0  # a later A row for S00 that would lose every test
    table.add_sample("A", "S00", 24, sample)
    after = significance_matrix(table)
    assert after.methods == ["A", "B"]
    np.testing.assert_array_equal(after.percent, before)


# ---------------------------------------------------------------------------
# residual dependence
# ---------------------------------------------------------------------------


def test_residual_dependence_white_noise_near_zero():
    residuals = [np.random.default_rng(seed).normal(size=1200) for seed in range(50)]
    out = residual_dependence_table({"M": residuals}, lags=(5,), alpha=0.05)
    pct_plain, pct_sq = out["M"][5]
    assert pct_plain <= 7.0
    assert pct_sq <= 7.0


def test_residual_dependence_ar1_power():
    residuals = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = np.zeros(1200)
        eps = rng.normal(size=1200)
        for t in range(1, 1200):
            x[t] = 0.5 * x[t - 1] + eps[t]
        residuals.append(x)
    out = residual_dependence_table({"M": residuals}, lags=(5,), alpha=0.05)
    pct_plain, _ = out["M"][5]
    assert pct_plain > 90.0


# ---------------------------------------------------------------------------
# PIT histogram
# ---------------------------------------------------------------------------


def test_pit_histogram_uniform_grid_equal_counts():
    values = (np.arange(1000) + 0.5) / 1000
    counts, _ = pit_histogram(values, bins=10)
    assert np.all(counts == 100)


def test_pit_histogram_variance_sampling(rng):
    counts, variance = pit_histogram(rng.uniform(size=10000), bins=10)
    assert variance == pytest.approx(1 / 12, abs=0.005)
    assert counts.sum() == 10000


def test_pit_histogram_point_mass():
    counts, variance = pit_histogram(np.full(50, 0.5), bins=10)
    assert counts.max() == 50
    assert np.count_nonzero(counts) == 1
    assert variance == 0.0


def test_pit_histogram_rejects_out_of_range():
    with pytest.raises(InvalidPIT):
        pit_histogram([0.5, 1.2], bins=10)


def test_rank_histogram_counts():
    counts = rank_histogram([1, 1, 3, 5], n_members=4)
    assert counts.tolist() == [2, 0, 1, 0, 1]
    with pytest.raises(InvalidInput):
        rank_histogram([0], n_members=4)


# ---------------------------------------------------------------------------
# table plumbing
# ---------------------------------------------------------------------------


def test_add_sample_single_case():
    sample = score_cases([1.0], [2.0], [1.5], level=0.9)
    row = ScoreTable().add_sample("A", "S01", 24, sample)
    assert row.n == 1
    assert row.mean_crps == pytest.approx(crps_normal(GaussianParams(1.0, 2.0), 1.5))
    assert row.rmse == pytest.approx(0.5)
    assert row.coverage_pct in (0.0, 100.0)


def test_add_sample_rmse_hand_arithmetic():
    sample = ScoreSample(
        crps=np.array([0.1, 0.2]), logs=np.array([1.0, 2.0]),
        se=np.array([1.0, 9.0]), pit=np.array([0.5, 0.5]),
        width=np.array([1.0, 2.0]), covered=np.array([True, False]))
    row = ScoreTable().add_sample("A", "S01", 24, sample)
    assert row.rmse == pytest.approx(np.sqrt(5.0))
    assert row.coverage_pct == pytest.approx(50.0)


def test_add_sample_empty_rejected():
    sample = ScoreSample(*(np.empty(0) for _ in range(6)))
    table = ScoreTable()
    with pytest.raises(EmptyInput, match="cannot summarize an empty score sample"):
        table.add_sample("A", "S01", 24, sample)
    assert table.rows == []


def test_add_sample_without_logs_has_no_mean_logs(tmp_path):
    sample = ScoreSample(
        crps=np.array([0.1, 0.3]), logs=None, se=np.array([1.0, 9.0]), pit=None,
        width=np.array([1.0, 2.0]), covered=np.array([True, False]))
    table = ScoreTable()
    assert table.add_sample("raw-ensemble", "S01", 24, sample).mean_logs is None
    table.to_csv(tmp_path / "scores.csv")
    assert (tmp_path / "scores.csv").read_text().splitlines()[1] == (
        "raw-ensemble,S01,24,2,0.200000,,2.236068,1.500000,50.000000")


def test_score_table_csv_schema(tmp_path, rng):
    table = _table_from_crps({"A": [rng.uniform(1, 2, 50)]})
    path = tmp_path / "scores.csv"
    table.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ("method,station_id,lead_time_h,n,mean_crps,mean_logs,"
                      "rmse,mean_width,coverage_pct")


def test_significance_matrix_csv(tmp_path, rng):
    crps = [rng.uniform(0.5, 1.5, size=60)]
    table = _table_from_crps({"A": crps, "B": [crps[0] + 0.5 + rng.normal(0, 0.2, 60)]})
    matrix = significance_matrix(table)
    path = tmp_path / "dm.csv"
    matrix.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,A,B"
    assert len(lines) == 3


def test_table_aggregate(rng):
    table = _table_from_crps({"A": [rng.uniform(1, 2, 50), rng.uniform(1, 2, 50)]})
    agg = table.aggregate("A")
    assert agg["n"] == 100
    assert agg["mean_crps"] == pytest.approx(
        np.mean([r.mean_crps for r in table.rows]), abs=1e-12)
