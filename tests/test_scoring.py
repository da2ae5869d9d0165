import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import chisquare, kstest

from enspost.errors import InvalidInput, InvalidLevel, InvalidReference
from enspost.optimize import numeric_gradient
from enspost.scoring import (
    GaussianParams,
    central_interval,
    crps_ensemble,
    crps_integral,
    crps_normal,
    crps_normal_partials,
    crps_normal_series,
    crpss,
    logs_normal,
    m_member_level,
    pit_normal,
    score_cases,
    verification_rank,
)

STD_NORMAL = GaussianParams(0.0, 1.0)


def _phi(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)


# ---------------------------------------------------------------------------
# CRPS
# ---------------------------------------------------------------------------


def test_crps_normal_at_center():
    # analytic: 2 phi(0) - 1/sqrt(pi)
    expected = 2 * _phi(0.0) - 1 / np.sqrt(np.pi)
    assert expected == pytest.approx(0.2336950, abs=1e-6)
    assert crps_normal(STD_NORMAL, 0.0) == pytest.approx(expected, abs=1e-12)


def test_crps_normal_at_one():
    z = 1.0
    expected = z * (2 * ndtr(z) - 1) + 2 * _phi(z) - 1 / np.sqrt(np.pi)
    assert expected == pytest.approx(0.6024414, abs=1e-6)
    assert crps_normal(STD_NORMAL, 1.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("sigma", [0.5, 2.0, 10.0])
def test_crps_scale_equivariance(sigma):
    assert crps_normal(GaussianParams(0.0, sigma), 0.0) == pytest.approx(
        sigma * 0.2336950, abs=1e-6 * sigma)


def test_crps_location_scale_equivariance_exact(rng):
    for _ in range(20):
        mu, sigma, y = rng.normal(), float(rng.uniform(0.1, 5)), rng.normal(scale=3)
        lhs = crps_normal(GaussianParams(mu, sigma), y)
        rhs = sigma * crps_normal(STD_NORMAL, (y - mu) / sigma)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_crps_integral_matches_closed_form_std():
    val = crps_integral(lambda z: ndtr(z), 0.0, tol=1e-8)
    assert val == pytest.approx(crps_normal(STD_NORMAL, 0.0), abs=1e-6)


def test_crps_integral_matches_closed_form_shifted():
    g = GaussianParams(3.0, 2.0)
    val = crps_integral(lambda z: ndtr((z - 3.0) / 2.0), -1.0, tol=1e-8)
    assert val == pytest.approx(crps_normal(g, -1.0), abs=1e-6)


def test_crps_integral_point_mass_is_zero():
    y = 1.25
    val = crps_integral(lambda z: np.where(z >= y, 1.0, 0.0), y, breakpoints=[y])
    assert val == pytest.approx(0.0, abs=1e-8)


def test_crps_closed_form_vs_quadrature_grid(rng):
    for _ in range(100):
        mu, sigma, y = rng.normal(scale=5), float(rng.uniform(0.2, 4)), rng.normal(scale=6)
        closed = crps_normal(GaussianParams(mu, sigma), y)
        quad = crps_integral(lambda z: ndtr((z - mu) / sigma), y, tol=1e-8)
        assert closed == pytest.approx(quad, abs=1e-6)


def test_crps_integral_reports_nonconvergence():
    from enspost.errors import NumericalFailure

    def wild(z):  # violates monotonicity hard enough that quad gives up
        z = np.asarray(z, dtype=float)
        return 0.5 + 0.5 * np.sin(1e7 * z)

    with pytest.raises(NumericalFailure):
        crps_integral(wild, 0.0, tol=1e-10)


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("y", [-1.0, 0.0, 1.0, 2.0])
def test_crps_integral_takes_array_breakpoints_one_ulp_apart(y, as_array):
    # the middle piece is one ulp wide: it is skipped, not integrated
    members = np.array([1.0, np.nextafter(1.0, 2.0)])
    assert members[1] == 1.0 + 2.2e-16

    def step_cdf(z):
        return np.searchsorted(members, np.asarray(z, dtype=float), side="right") / 2.0

    quad = crps_integral(step_cdf, y, tol=1e-9,
                         breakpoints=members if as_array else list(members))
    assert quad == pytest.approx(crps_ensemble(members, y), abs=1e-8)


def test_crps_ensemble_single_member():
    assert crps_ensemble([2.0], 5.0) == pytest.approx(3.0)


def test_crps_ensemble_perfect():
    assert crps_ensemble([1.5] * 6, 1.5) == pytest.approx(0.0)


def test_crps_ensemble_matches_step_cdf_quadrature(rng):
    members = np.sort(rng.normal(size=10))
    y = float(rng.normal())

    def step_cdf(z):
        z = np.asarray(z, dtype=float)
        return np.searchsorted(members, z, side="right") / members.size

    energy = crps_ensemble(members, y)
    quad = crps_integral(step_cdf, y, tol=1e-9, breakpoints=list(members))
    assert energy == pytest.approx(quad, abs=1e-8)


def test_crps_ensemble_nonnegative_zero_iff_perfect(rng):
    for _ in range(20):
        members = rng.normal(size=8)
        y = float(rng.normal())
        val = crps_ensemble(members, y)
        assert val >= 0
        assert (val == 0) == bool(np.all(members == y))


def _energy_form(x, y):
    """The ensemble CRPS from all m^2 member pairs, as the definition writes it."""
    m = x.size
    return np.mean(np.abs(x - y)) - np.abs(x[:, None] - x[None, :]).sum() / (2.0 * m * m)


@pytest.mark.parametrize("n, m", [(1, 1), (16, 5), (37, 50)])
def test_crps_ensemble_rows_are_the_energy_form_of_each_row_to_the_bit(rng, n, m):
    # the sorted-gap sum rounds differently from the pair sum; a row alone is its
    # batch value to the bit
    members = rng.normal(size=(n, m)) * 3.0
    y = rng.normal(size=n)
    rows = crps_ensemble(members, y)
    assert rows.shape == (n,)
    np.testing.assert_allclose(rows, [_energy_form(x, v) for x, v in zip(members, y)],
                               rtol=0, atol=1e-12)
    assert np.array_equal(rows, [crps_ensemble(x, v) for x, v in zip(members, y)])
    assert all(type(crps_ensemble(x, v)) is float for x, v in zip(members, y))


# values on a 0.01 grid, half of them from six: ties are common
_TIED_VALUES = (st.sampled_from([-3.25, -1.0, 0.0, 0.1, 2.5, 13.7])
                | st.integers(-4000, 4000).map(lambda k: k / 100))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 50]).flatmap(lambda m: st.tuples(
    st.lists(st.lists(_TIED_VALUES, min_size=m, max_size=m), min_size=1, max_size=4),
    st.lists(_TIED_VALUES, min_size=4, max_size=4))))
@example(([[13.7] * 50], [13.7] * 4))  # a pair-free sum of (2i - m - 1) x_(i) gives < 0 here
def test_crps_ensemble_is_the_energy_form_and_the_step_cdf_integral_with_ties(case):
    # members drawn from a few values tie often; y may sit on a member
    members, y = np.array(case[0]), np.array(case[1][:len(case[0])])
    rows = crps_ensemble(members, y)
    for x, v, row in zip(members, y, rows):
        assert row >= 0.0 and row == crps_ensemble(x, v)
        assert row == pytest.approx(_energy_form(x, v), rel=0, abs=1e-12)
        if np.all(x == v):
            assert row == 0.0
        step_cdf = lambda z, s=np.sort(x): np.searchsorted(s, z, side="right") / s.size
        assert row == pytest.approx(crps_integral(step_cdf, v, tol=1e-9, breakpoints=list(x)),
                                    abs=1e-7)


@pytest.mark.parametrize("members, y", [
    ([], 1.0), (np.ones((3, 0)), np.ones(3)), (np.ones((3, 4)), np.ones(2)),
    (np.ones((3, 4)), 1.0), (np.ones(4), np.ones(4)), (np.ones((2, 3, 4)), np.ones(2))])
def test_crps_ensemble_rejects_members_and_observations_that_do_not_pair(members, y):
    with pytest.raises(InvalidInput):
        crps_ensemble(members, y)


# ---------------------------------------------------------------------------
# LogS, PIT
# ---------------------------------------------------------------------------


def test_logs_normal_values():
    assert logs_normal(STD_NORMAL, 0.0) == pytest.approx(0.9189385, abs=1e-6)
    assert logs_normal(STD_NORMAL, 2.0) == pytest.approx(2.9189385, abs=1e-6)


def test_logs_minimized_at_mean():
    g = GaussianParams(1.3, 0.8)
    grid = np.linspace(-3, 5, 801)
    vals = [logs_normal(g, y) for y in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(1.3, abs=0.02)


def test_logs_convex_in_y():
    g = GaussianParams(0.5, 1.7)
    h = 1e-4
    for y in np.linspace(-4, 4, 9):
        second = (logs_normal(g, y + h) - 2 * logs_normal(g, y) + logs_normal(g, y - h)) / h**2
        assert second > 0


def test_pit_at_median():
    assert pit_normal(GaussianParams(4.0, 2.0), 4.0) == pytest.approx(0.5)


def test_pit_upper_quantile():
    g = GaussianParams(1.0, 3.0)
    assert pit_normal(g, 1.0 + 1.959964 * 3.0) == pytest.approx(0.975, abs=1e-6)


def test_pit_sample_variance_one_twelfth(rng):
    mu, sigma = 2.0, 1.5
    y = rng.normal(mu, sigma, size=10000)
    pit = ndtr((y - mu) / sigma)
    assert np.var(pit) == pytest.approx(1 / 12, abs=0.005)


def test_pit_of_true_model_uniform(rng):
    y = rng.normal(size=10000) * 2.0 - 1.0
    pit = ndtr((y + 1.0) / 2.0)
    assert kstest(pit, "uniform").pvalue > 0.01


# ---------------------------------------------------------------------------
# intervals and ranks
# ---------------------------------------------------------------------------


def test_m_member_level():
    assert m_member_level(50) == pytest.approx(0.960784, abs=1e-6)


def test_central_interval_width_std_normal():
    level = 49 / 51
    lower, upper, width, _ = central_interval(STD_NORMAL, level, 0.0)
    # quantile-function oracle
    expected = 2 * ndtri(1 - (1 - level) / 2)
    assert width == pytest.approx(expected, abs=1e-12)
    assert width == pytest.approx(4.1238, abs=1e-3)
    assert lower == pytest.approx(-upper, abs=1e-12)


def test_central_interval_coverage_flag():
    *_, covered = central_interval(STD_NORMAL, 0.9, 50.0)
    assert covered is False
    *_, covered = central_interval(STD_NORMAL, 0.9, 0.3)
    assert covered is True


@pytest.mark.parametrize("level", [0.0, 1.0, -0.2, 1.7])
def test_central_interval_invalid_level(level):
    with pytest.raises(InvalidLevel):
        central_interval(STD_NORMAL, level, 0.0)


def test_verification_rank_extremes(rng):
    members = np.arange(1.0, 9.0)
    assert verification_rank(members, -5.0, rng) == 1
    assert verification_rank(members, 50.0, rng) == members.size + 1


def test_verification_rank_uniform_under_exchangeability(rng):
    m, n = 9, 20000
    ranks = np.empty(n, dtype=int)
    for i in range(n):
        draws = rng.normal(size=m + 1)
        ranks[i] = verification_rank(draws[:m], draws[m], rng)
    counts = np.bincount(ranks, minlength=m + 2)[1:]
    assert chisquare(counts).pvalue > 0.01


def test_verification_rank_ties_randomized(rng):
    members = np.zeros(4)
    ranks = {verification_rank(members, 0.0, rng) for _ in range(200)}
    assert ranks == {1, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# skill score
# ---------------------------------------------------------------------------


def test_crpss_values():
    assert crpss(1.0, 1.0) == pytest.approx(0.0)
    assert crpss(0.890, 1.165) == pytest.approx(0.236, abs=5e-4)
    assert crpss(2.0, 1.0) == pytest.approx(-1.0)


def test_crpss_invalid_reference():
    with pytest.raises(InvalidReference):
        crpss(1.0, 0.0)


def test_gaussian_params_validation():
    with pytest.raises(InvalidInput):
        GaussianParams(0.0, 0.0)
    with pytest.raises(InvalidInput):
        GaussianParams(np.nan, 1.0)


@pytest.mark.parametrize("mu, sigma", [
    (0.0, -1.0), (0.0, np.nan), (np.inf, 1.0), (0.0, 0.0)])
def test_score_cases_rejects_invalid_parameters(mu, sigma):
    with pytest.raises(InvalidInput, match="case 1 of 3"):
        score_cases([0.0, mu, 1.0], [1.0, sigma, 2.0], [0.5, 0.5, 0.5], level=0.9)


def test_crps_normal_partials_value_is_the_series_value_to_the_bit():
    # |z| reaches 40, where phi(z) underflows to 0
    sigma = np.array([[0.3], [1.0], [2.7]])
    y = np.linspace(-2.0, 2.0, 321)
    mu = y - sigma * np.linspace(-40.0, 40.0, 321)
    crps, *_, z = crps_normal_partials(mu, sigma, y)
    assert np.max(np.abs(z)) > 39.9 and _phi(np.max(np.abs(z))) == 0.0
    np.testing.assert_array_equal(crps, crps_normal_series(mu, sigma, y))


def test_crps_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        mu, sigma, y = rng.normal(), rng.uniform(0.3, 3.0), rng.normal(scale=2.0)
        analytic = crps_normal_partials(mu, sigma, y)[1:3]
        numeric = numeric_gradient(lambda v: float(crps_normal_series(v[0], v[1], y)),
                                   np.array([mu, sigma]), 1e-6 * (1 + np.abs([mu, sigma])))
        for num, ana in zip(numeric, analytic):
            worst = max(worst, abs(num - ana) / max(abs(ana), 1e-2))
    assert worst <= 1e-5


def test_crps_hessian_matches_finite_differences_of_gradient():
    rng = np.random.default_rng(78)
    worst = 0.0
    for _ in range(50):
        mu, sigma, y = rng.normal(), rng.uniform(0.3, 3.0), rng.normal(scale=2.0)
        _, _, _, c, z = crps_normal_partials(mu, sigma, y)
        analytic = c * np.array([[1.0, z], [z, z * z]])
        x = np.array([mu, sigma])
        steps = 1e-6 * (1 + np.abs(x))
        numeric = np.column_stack([
            numeric_gradient(lambda v: float(crps_normal_partials(v[0], v[1], y)[1 + j]), x,
                             steps)
            for j in range(2)])
        worst = max(worst, float(np.max(np.abs(numeric - analytic) / (1 + np.abs(analytic)))))
    assert worst <= 1e-6
