import numpy as np
import pytest

from enspost import timeseries
from enspost.errors import DegenerateSeries, HistoryTooShort, InvalidInput, InvalidStart
from enspost.timeseries import (
    ARCoeffs,
    ARFits,
    GARCHCoeffs,
    acf,
    ar_innovation_variance,
    ar_multistep,
    ar_teacher_forced,
    autocovariances,
    chi2_sf,
    fit_ar_yule_walker,
    fit_garch,
    garch_path,
    garch_path_adjoint,
    is_stationary,
    linear_recursion,
    ljung_box,
    windowed_ar_fits,
)
from enspost.timeseries import (
    _ar_fits,
    _garch_likelihood,
    ar_teacher_forced_adjoint,
)
from enspost.models.semos import _objective
from enspost.seasonal import N_COEFFS
from enspost.optimize import numeric_gradient


def simulate_ar(tau, n, rng, eta=0.0, sd=1.0, burn=200):
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    x = np.zeros(n + burn)
    eps = rng.normal(0.0, sd, size=n + burn)
    for t in range(n + burn):
        acc = eta
        for j, tj in enumerate(tau, start=1):
            acc += tj * ((x[t - j] if t - j >= 0 else eta) - eta)
        x[t] = acc + eps[t]
    return x[burn:]


# ---------------------------------------------------------------------------
# acf
# ---------------------------------------------------------------------------


def test_acf_alternating_series():
    x = np.tile([1.0, -1.0], 5000)
    assert acf(x, 1)[0] == pytest.approx(-1.0, abs=1e-3)


def test_acf_iid_noise_bound(rng):
    n = 5000
    rho1 = acf(rng.normal(size=n), 1)[0]
    assert abs(rho1) < 3 / np.sqrt(n)


def test_acf_ar1_simulation(rng):
    x = simulate_ar(0.7, 5000, rng)
    assert acf(x, 1)[0] == pytest.approx(0.7, abs=0.05)


def test_acf_constant_series_rejected():
    with pytest.raises(DegenerateSeries):
        acf(np.full(100, 3.2), 2)


@pytest.mark.parametrize("max_lag", [-3, 0, 100, 120])
def test_acf_lag_out_of_range_is_invalid_input(rng, max_lag):
    with pytest.raises(InvalidInput, match=r"^max_lag must be in \[1, n-1\]"):
        acf(rng.normal(size=100), max_lag)


@pytest.mark.parametrize("columns", [1, 2])
@pytest.mark.parametrize("max_order", [-1, 50, 60])
def test_autocovariances_order_out_of_range_is_invalid_input(rng, columns, max_order):
    with pytest.raises(InvalidInput, match=r"^max_order must be in \[0, n-1\], got -?\d+ for n=50$"):
        autocovariances(rng.normal(size=(50, columns)), max_order)


def test_autocovariances_order_n_minus_1_is_the_last_lag(rng):
    x = rng.normal(size=(50, 2))
    gamma, eta, _ = autocovariances(x, 49)
    assert gamma.shape == (50, 2)
    assert np.allclose(gamma[49], (x[49] - eta) * (x[0] - eta) / 50, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# Yule-Walker fits
# ---------------------------------------------------------------------------


def test_yule_walker_order_zero_majority():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ar = fit_ar_yule_walker(rng.normal(size=5000))
        hits += ar.p == 0
    assert hits > 55  # AIC picks the true order 0 in the clear majority


def test_yule_walker_ar2_recovery(rng):
    x = simulate_ar([0.5, 0.3], 5000, rng)
    ar = fit_ar_yule_walker(x)
    assert ar.p == 2
    assert ar.tau[0] == pytest.approx(0.5, abs=0.05)
    assert ar.tau[1] == pytest.approx(0.3, abs=0.05)


def test_yule_walker_eta_is_sample_mean(rng):
    x = simulate_ar(0.4, 2000, rng, eta=5.0)
    ar = fit_ar_yule_walker(x)
    assert ar.eta == pytest.approx(np.mean(x), abs=1e-12)


def test_yule_walker_low_orders_on_residual_style_data():
    # deseasonalized-error style series: AR(1) plus small iid measurement noise
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed + 10)
        x = simulate_ar(0.6, 1800, rng) + rng.normal(0, 0.1, size=1800)
        hits += fit_ar_yule_walker(x).p in (1, 2, 3)
    assert hits >= 42


def test_levinson_durbin_ar1_equals_rho1(rng):
    x = simulate_ar(0.5, 800, rng)
    ar = fit_ar_yule_walker(x, max_order=1)
    if ar.p == 1:
        assert ar.tau[0] == pytest.approx(acf(x, 1)[0], abs=1e-12)
    else:  # AIC chose white noise; force order 1 via a longer series
        x = simulate_ar(0.5, 5000, np.random.default_rng(7))
        ar = fit_ar_yule_walker(x, max_order=1)
        assert ar.p == 1
        assert ar.tau[0] == pytest.approx(acf(x, 1)[0], abs=1e-12)


def test_fit_ar_degenerate_rejected():
    with pytest.raises(DegenerateSeries):
        fit_ar_yule_walker(np.ones(500))


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("max_order", [None, 0, 3])
def test_fit_ar_on_fewer_than_two_values_is_degenerate(n, max_order):
    with pytest.raises(DegenerateSeries, match="need at least 2 observations"):
        fit_ar_yule_walker(np.ones(n), max_order)


# ---------------------------------------------------------------------------
# column (n, m) kernels against a per-column reference loop
# ---------------------------------------------------------------------------


def _reference_yule_walker(x, max_order):
    """Scalar Levinson-Durbin with AIC order selection, one series."""
    n = x.size
    c = x - x.mean()
    gamma = [float(np.dot(c[k:], c[:n - k])) / n for k in range(max_order + 1)]
    best_aic, best = n * np.log(gamma[0]), ()
    phi, v = [], gamma[0]
    for k in range(1, max_order + 1):
        kappa = (gamma[k] - sum(phi[j] * gamma[k - 1 - j] for j in range(k - 1))) / v
        phi = [phi[j] - kappa * phi[k - 2 - j] for j in range(k - 1)] + [kappa]
        v *= 1.0 - kappa * kappa
        aic = n * np.log(v) + 2.0 * k
        if aic < best_aic:
            best_aic, best = aic, tuple(phi)
    return len(best), float(x.mean()), best


def _reference_innovation_variance(x, ar):
    if ar.p == 0:
        return float(np.mean((x - ar.eta) ** 2))
    pred = [ar.eta + sum(ar.tau[j - 1] * (x[t - j] - ar.eta) for j in range(1, ar.p + 1))
            for t in range(ar.p, x.size)]
    return float(np.mean((x[ar.p:] - np.array(pred)) ** 2))


def _reference_multistep(ar, history, steps):
    work = list(history)
    for _ in range(steps):
        acc = ar.eta
        for j, t in enumerate(ar.tau, start=1):
            acc += t * (work[-j] - ar.eta)
        work.append(acc)
    return np.array(work[len(history):])


MIXED_FITS = [ARCoeffs(0, 0.4, ()), ARCoeffs(1, -0.2, (0.6,)),
              ARCoeffs(3, 1.1, (0.4, -0.2, 0.1)), ARCoeffs(2, 0.0, (0.5, 0.3))]


def test_yule_walker_columns_match_reference_loop():
    rng = np.random.default_rng(31)
    n = 90
    cols = [rng.normal(size=n), simulate_ar(0.8, n, rng, eta=1.0),
            simulate_ar([0.6, -0.5], n, rng), simulate_ar([0.3, 0.2, 0.45], n, rng),
            np.full(n, 2.5)]
    x = np.column_stack(cols)
    with pytest.raises(DegenerateSeries, match="columns \\[4\\]"):
        fit_ar_yule_walker(x, 5)
    fits = fit_ar_yule_walker(x, 5, mean_fallback=True)
    assert fits.degenerate.tolist() == [False, False, False, False, True]
    for i, col in enumerate(cols[:4]):
        p, eta, tau = _reference_yule_walker(col, 5)
        got = fits.members()[i]
        assert got.p == p
        assert got.eta == pytest.approx(eta, rel=1e-12)
        assert got.tau == pytest.approx(tau, rel=1e-10)
        # the 1-D call is the m = 1 case of the same kernel
        single = fit_ar_yule_walker(col, 5)
        assert single.p == got.p and single.eta == pytest.approx(got.eta, rel=1e-12)
        assert single.tau == pytest.approx(got.tau, rel=1e-12)
    assert 0 in fits.p[:4] and len(set(fits.p.tolist())) >= 3  # mixed orders
    assert fits.p[4] == 0 and fits.eta[4] == pytest.approx(2.5)


def test_innovation_variance_and_teacher_forcing_columns_match_reference(rng):
    fits = ARFits.stack(MIXED_FITS)
    x = rng.normal(size=(40, len(MIXED_FITS)))
    got = ar_innovation_variance(x, fits)
    pred = ar_teacher_forced(fits, x, 30)
    for i, ar in enumerate(MIXED_FITS):
        assert got[i] == pytest.approx(_reference_innovation_variance(x[:, i], ar), rel=1e-12)
        assert ar_innovation_variance(x[:, i], ar) == pytest.approx(got[i], rel=1e-12)
        expected = [ar_multistep(ar, x[:t, i], 1)[0] for t in range(30, 40)]
        assert np.array_equal(pred[:, i], expected)
    with pytest.raises(HistoryTooShort):
        ar_teacher_forced(fits, x, 2)


@pytest.mark.parametrize("steps", [1, 5])
def test_multistep_columns_match_reference_loop(rng, steps):
    fits = ARFits.stack(MIXED_FITS)
    history = rng.normal(size=(7, len(MIXED_FITS)))
    got = ar_multistep(fits, history, steps)
    assert got.shape == (steps, len(MIXED_FITS))
    for i, ar in enumerate(MIXED_FITS):
        assert np.array_equal(got[:, i], _reference_multistep(ar, history[:, i], steps))
    # only the last max-p rows are read
    assert np.array_equal(ar_multistep(fits, history[-3:], steps), got)
    with pytest.raises(HistoryTooShort):
        ar_multistep(fits, history[-2:], steps)


def test_is_stationary_stack_matches_roots(rng):
    stack = rng.uniform(-0.9, 0.9, size=(200, 3))
    expected = [bool(np.all(np.abs(np.roots(np.r_[-row[::-1], 1.0])) > 1.0)) for row in stack]
    assert [is_stationary(row) for row in stack] == expected
    assert 0 < sum(expected) < len(expected)


def _hard_columns(rng, n=90):
    """(n, m) columns far from stationary white noise: random walks,
    triple-integrated noise, near-unit-root AR(2), pure sinusoids and
    explosive +-g^t up to g = 1.5."""
    noise = rng.standard_normal((n, 20))
    t = np.arange(n)[:, None]
    periods = np.linspace(3.0, 80.0, 20)
    growth = np.linspace(1.01, 1.5, 25)
    return np.column_stack([
        np.cumsum(noise, axis=0),
        np.cumsum(np.cumsum(np.cumsum(noise, axis=0), axis=0), axis=0),
        np.column_stack([simulate_ar((0.5, 0.49), n, rng) for _ in range(20)]),
        np.sin(2.0 * np.pi * t / periods + rng.uniform(0.0, 2.0 * np.pi, periods.size)),
        growth ** t,
        (-growth) ** t,
    ])


@pytest.mark.parametrize("max_order", [5, None])
def test_yule_walker_fits_are_stationary(rng, max_order):
    # biased autocovariances keep every Levinson-Durbin reflection inside
    # (-1, 1), so no multi-step caller of these fits needs a check
    fits = fit_ar_yule_walker(_hard_columns(rng), max_order)
    assert fits.max_p > 0
    assert all(is_stationary(ar.tau) for ar in fits.members())


def test_windowed_yule_walker_fits_are_stationary(rng):
    # the window sums round unlike the direct path; AR-EMOS's multi-step
    # bridge relies on their fits being stationary all the same
    fits, variance = windowed_ar_fits(_hard_columns(rng, n=160), np.arange(71), 90, 5)
    assert fits.max_p > 0
    assert all(is_stationary(ar.tau) for ar in fits.members())
    assert np.all(variance > 0)


def _all_order_levinson_fits(gamma, n, degenerate):
    """(p, tau, variance) from every order's Levinson-Durbin solution and
    np.argmin over the AIC of all orders: the order choice the one-pass
    ``_ar_fits`` keeps, kept here as its oracle."""
    gamma = gamma.copy()
    gamma[:, degenerate] = 0.0
    gamma[0, degenerate] = 1.0
    order = gamma.shape[0] - 1
    coeffs = np.zeros((order + 1, order, gamma.shape[1]))
    variances = np.empty_like(gamma)
    variances[0] = v = gamma[0]
    for k in range(1, order + 1):
        phi = coeffs[k - 1, :k - 1]
        kappa = (gamma[k] - np.einsum("jm,jm->m", phi, gamma[k - 1:0:-1])) / v
        coeffs[k, :k - 1] = phi - kappa * phi[::-1]
        coeffs[k, k - 1] = kappa
        variances[k] = v = v * (1.0 - kappa * kappa)
    aic = n * np.log(np.maximum(variances, 1e-300)) + 2.0 * np.arange(order + 1)[:, None]
    p = np.argmin(aic, axis=0)
    columns = np.arange(p.size)
    return p, coeffs[p, :int(p.max()), columns], variances[p, columns]


def _fused_pass_columns(case, rng):
    n = 90
    if case == "random":
        return np.column_stack([simulate_ar(rng.uniform(-0.45, 0.45, size=rng.integers(1, 6)),
                                           n, rng) for _ in range(200)])
    if case == "hard":
        return _hard_columns(rng, n)
    if case == "order_zero":
        return rng.standard_normal((n, 200))
    x = rng.standard_normal((n, 12))  # degenerate: constant columns among noise
    x[:, ::3] = rng.normal(size=4) * 1e3
    return x


@pytest.mark.parametrize("max_order", [0, 1, 5, 19])
@pytest.mark.parametrize("case", ["random", "hard", "order_zero", "degenerate"])
def test_one_levinson_pass_keeps_the_all_order_aic_choice_to_the_bit(case, max_order):
    x = _fused_pass_columns(case, np.random.default_rng(301))
    gamma, eta, degenerate = autocovariances(x, max_order)
    assert degenerate.any() == (case == "degenerate")
    p, tau, variance = _all_order_levinson_fits(gamma, x.shape[0], degenerate)
    fits, got_variance = _ar_fits(gamma, x.shape[0], eta, degenerate)
    assert np.array_equal(fits.p, p) and np.array_equal(fits.tau, tau)
    assert np.array_equal(got_variance, variance)
    assert np.array_equal(fits.eta, eta) and np.array_equal(fits.degenerate, degenerate)
    public = fit_ar_yule_walker(x, max_order, mean_fallback=True)
    assert np.array_equal(public.p, p) and np.array_equal(public.tau, tau)
    if case == "order_zero":
        assert np.any(p == 0)
    if case == "random":  # every order up to 5 is chosen somewhere
        assert np.unique(p).size >= min(max_order + 1, 6)


def test_windowed_variance_is_the_direct_variance_at_every_order():
    # AR(k) columns, k = 0..5, with one strong lag at k: their windows'
    # fits cover every order, and the edge errors of each must be right
    rng = np.random.default_rng(302)
    max_order, n = 5, 90
    x = np.column_stack([simulate_ar(np.eye(k)[-1] * 0.7, 220, rng, eta=2.0) if k else
                         rng.normal(2.0, 1.0, 220) for k in range(max_order + 1)
                         for _ in range(3)])
    starts = np.arange(0, 220 - n + 1, 5)
    fits, variance = windowed_ar_fits(x, starts, n, max_order)
    assert set(fits.p.tolist()) == set(range(max_order + 1))
    m = x.shape[1]
    for col in range(variance.size):
        window = x[starts[col // m]:starts[col // m] + n, [col % m]]
        expected = ar_innovation_variance(window, fits.columns([col]))
        assert variance[col] == pytest.approx(expected[0], rel=1e-10)


# ---------------------------------------------------------------------------
# AR prediction
# ---------------------------------------------------------------------------


# one-step prediction is the first step of the multi-step recursion


def test_ar_one_step_direct():
    ar = ARCoeffs(p=1, eta=0.0, tau=(0.5,))
    assert ar_multistep(ar, [1.0], 1)[0] == pytest.approx(0.5)


def test_ar_one_step_mean_reversion_limit():
    ar = ARCoeffs(p=2, eta=3.0, tau=(0.0, 0.0))
    assert ar_multistep(ar, [9.0, -4.0], 1)[0] == pytest.approx(3.0)


def test_ar_one_step_formula_oracle(rng):
    eta, t1, t2 = rng.normal(), 0.4, -0.3
    ar = ARCoeffs(p=2, eta=float(eta), tau=(t1, t2))
    hist = rng.normal(size=5)
    expected = eta + t1 * (hist[-1] - eta) + t2 * (hist[-2] - eta)
    assert ar_multistep(ar, hist, 1)[0] == pytest.approx(expected, abs=1e-12)


def test_ar_one_step_history_too_short():
    with pytest.raises(HistoryTooShort):
        ar_multistep(ARCoeffs(p=3, eta=0.0, tau=(0.1, 0.1, 0.1)), [1.0, 2.0], 1)


def test_ar_multistep_geometric_decay():
    ar = ARCoeffs(p=1, eta=0.0, tau=(0.5,))
    assert np.allclose(ar_multistep(ar, [1.0], 2), [0.5, 0.25])


def test_ar_multistep_first_equals_one_step(rng):
    ar = ARCoeffs(p=2, eta=0.3, tau=(0.4, 0.2))
    hist = rng.normal(size=4)
    # the teacher-forced prediction of the row after ``hist``
    one_step = ar_teacher_forced(ar, np.append(hist, 0.0), hist.size)[0]
    assert ar_multistep(ar, hist, 1)[0] == pytest.approx(one_step)


def test_ar_multistep_matches_hand_recursion(rng):
    eta = 0.2
    tau = (0.4, -0.2, 0.1)
    ar = ARCoeffs(p=3, eta=eta, tau=tau)
    hist = list(rng.normal(size=6))
    got = ar_multistep(ar, hist, 5)
    work = list(hist)
    for step in range(5):
        pred = eta + sum(tau[j] * (work[-1 - j] - eta) for j in range(3))
        assert got[step] == pytest.approx(pred, abs=1e-12)
        work.append(pred)


def test_ar_multistep_converges_to_eta():
    ar = ARCoeffs(p=2, eta=1.5, tau=(0.6, 0.2))
    preds = ar_multistep(ar, [4.0, 3.0], 60)
    gaps = np.abs(preds - 1.5)
    # geometric envelope from the dominant AR root
    lam = max(abs(np.roots([1, -0.6, -0.2])))
    assert lam < 1
    bound = gaps[0] * lam ** np.arange(60) / lam
    assert np.all(gaps <= bound + 1e-9)


def test_ar_multistep_runs_nonstationary_coefficients_as_given():
    ar = ARCoeffs(p=1, eta=0.0, tau=(1.2,))
    assert np.allclose(ar_multistep(ar, [1.0], 3), [1.2, 1.44, 1.728], rtol=1e-14)


def test_is_stationary():
    assert is_stationary((0.6,))
    assert is_stationary((0.5, 0.3))
    assert not is_stationary((1.01,))
    assert not is_stationary((0.7, 0.5))


# ---------------------------------------------------------------------------
# GARCH
# ---------------------------------------------------------------------------


# garch_path(w, rho_sq)[i] is the variance after seeing rho_sq[i - 1]; the
# path starts at garch_start(w) = omega0 / max(1 - omega1 - omega2, 1e-3)


def test_garch_filter_direct_substitution():
    # start 0.1 / 0.2 = 0.5, then 0.1 + 0.5 * 0.5 + 0.3 * 2.0
    out = garch_path((0.1, 0.5, 0.3), np.array([2.0, 0.0]))
    assert out[0] == pytest.approx(0.5)
    assert out[1] == pytest.approx(0.95)


def test_garch_filter_no_persistence():
    # omega1 = omega2 = 0: the start and every step are omega0
    rho_sq = np.abs(np.random.default_rng(0).normal(size=50))
    out = garch_path((0.7, 0.0, 0.0), np.append(rho_sq, 0.0))
    assert np.allclose(out, 0.7)


def test_garch_filter_long_run_mean(rng):
    g = GARCHCoeffs(0.2, 0.7, 0.2)
    n = 20000
    z = rng.standard_normal(n)
    sig2 = np.empty(n)
    rho = np.empty(n)
    sig2[0] = g.omega0 / (1.0 - g.omega1 - g.omega2)  # unconditional variance, 2.0
    rho[0] = np.sqrt(sig2[0]) * z[0]
    for t in range(1, n):
        sig2[t] = g.omega0 + g.omega1 * sig2[t - 1] + g.omega2 * rho[t - 1] ** 2
        rho[t] = np.sqrt(sig2[t]) * z[t]
    filtered = garch_path((g.omega0, g.omega1, g.omega2), np.square(rho))
    assert np.mean(filtered) == pytest.approx(2.0, rel=0.10)
    assert np.allclose(filtered, sig2, atol=1e-10)


def test_garch_filter_positivity(rng):
    # start 0.05 / 0.1 = 0.5
    rho_sq = np.square(rng.normal(size=500))
    out = garch_path((0.05, 0.6, 0.3), np.append(rho_sq, 0.0))
    assert np.all(out > 0)


def test_garch_start_branches():
    assert timeseries.garch_start((0.1, 0.5, 0.3)) == 0.1 / (1.0 - 0.5 - 0.3)
    assert timeseries.garch_start((0.1, 0.6, 0.4)) == 0.1 / 1e-3  # the floored denominator
    assert timeseries.garch_start((0.0, 0.5, 0.3)) == 1.0


def _scalar_garch_path(w, rho_sq):
    # one step at a time, rounding as out[i] = drive[i-1] + omega1 * out[i-1]
    out = [timeseries.garch_start(w)]
    for r in rho_sq[:-1].tolist():
        out.append((w[0] + w[2] * r) + w[1] * out[-1])
    return np.array(out)


def _scalar_garch_lam(w, d_path):
    # lam[i] = d_path[i] + omega1 * lam[i+1], listed from the last day back
    lam = []
    for d in d_path[::-1].tolist():
        lam.append(d if not lam else d + w[1] * lam[-1])
    return lam


def _garch_kernel_draws(count):
    # omega1 = 1 and 1.3 put the start's denominator on its floor, and
    # omega0 = 0 gives the constant start 1.0
    rng = np.random.default_rng(11)
    lengths = np.r_[1, 2, 3, 2200, rng.integers(1, 2201, size=count - 4)]
    omega1 = np.r_[0.0, 1.0, 1.3, rng.uniform(0.0, 1.0, size=count - 3)]
    omega0 = np.r_[0.0, 0.0, rng.uniform(0.01, 1.0, size=count - 2)]
    for n, w0, w1 in zip(lengths, rng.permutation(omega0), rng.permutation(omega1)):
        w = (float(w0), float(w1), rng.uniform(0.0, 0.5))
        yield w, np.square(rng.normal(size=n)), rng.normal(size=n)


def test_garch_path_is_the_scalar_recursion_to_the_bit():
    for w, rho_sq, _ in _garch_kernel_draws(150):
        assert np.array_equal(garch_path(w, rho_sq), _scalar_garch_path(w, rho_sq))


def test_garch_path_adjoint_is_the_scalar_recursion_to_the_bit():
    for w, rho_sq, d_path in _garch_kernel_draws(150):
        path = garch_path(w, rho_sq)
        d_w, d_rho_sq = garch_path_adjoint(w, rho_sq, path, d_path)
        backward = _scalar_garch_lam(w, d_path)
        expected = np.zeros(rho_sq.size)
        expected[:-1] = [w[2] * v for v in backward[-2::-1]]
        assert np.array_equal(d_rho_sq, expected)
        # lam laid out in reversed time, as the reductions read it, then the
        # start's terms: lam[0] times the derivative of omega0 / max(denom, 1e-3)
        ahead = np.array(backward)[::-1][1:]
        reductions = np.array([ahead.sum(), ahead @ path[:-1], ahead @ rho_sq[:-1]])
        denom = 1.0 - w[1] - w[2]
        if w[0] > 0:
            reductions[0] += backward[-1] / max(denom, 1e-3)
            if denom > 1e-3:
                reductions[1:] += backward[-1] * path[0] / denom
        assert np.array_equal(d_w, reductions, equal_nan=True)


@pytest.mark.parametrize("w, free", [
    ((0.2, 0.5, 0.3), [0, 1, 2]),   # 1 - omega1 - omega2 = 0.2, above the floor
    ((0.2, 0.7, 0.35), [0, 1, 2]),  # 1 - omega1 - omega2 < 0, on the 1e-3 floor
    # omega0 = 0: the start is the constant 1.0, and it jumps to omega0 / denom
    # for omega0 > 0, so only omega1 and omega2 have a two-sided derivative
    ((0.0, 0.5, 0.3), [1, 2]),
], ids=["above-floor", "on-floor", "omega0-zero"])
def test_garch_path_adjoint_matches_central_differences(w, free):
    rng = np.random.default_rng(8)
    rho_sq = np.square(rng.normal(size=300))
    d_path = rng.normal(size=300)
    d_w, _ = garch_path_adjoint(np.array(w), rho_sq, garch_path(w, rho_sq), d_path)
    numeric = numeric_gradient(lambda v: float(d_path @ garch_path(v, rho_sq)), np.array(w), 1e-7)
    np.testing.assert_allclose(d_w[free], numeric[free], rtol=1e-6, atol=1e-8)


def test_garch_path_stays_inf_after_an_infinite_rho_sq():
    # the solve carries inf on where a filter with a zero feed-forward term
    # turned it into 0 * inf = nan; either way the fits see a non-finite value
    w = (0.1, 0.55, 0.35)
    rho_sq = np.square(np.random.default_rng(3).normal(size=200))
    rho_sq[120] = np.inf
    path = garch_path(w, rho_sq)
    assert np.isposinf(path[121:]).all()
    assert np.array_equal(path, _scalar_garch_path(w, rho_sq))
    assert _garch_likelihood(rho_sq)(np.sqrt(w))[0] == np.inf


def test_dar_garch_semos_objective_is_not_finite_after_an_infinite_rho_sq():
    rng = np.random.default_rng(4)
    n, p = 300, 1
    x_loc = np.column_stack([np.ones(n), rng.normal(size=(n, N_COEFFS - 1))])
    x_scale = np.zeros((n, N_COEFFS))
    y = x_loc @ np.r_[5.0, np.zeros(N_COEFFS - 1)] + rng.normal(size=n)
    y[150] = 1e200  # its squared innovation overflows to inf
    theta = np.r_[5.0, np.zeros(2 * N_COEFFS - 1), 0.0, 0.5, np.sqrt([0.1, 0.55, 0.35])]
    with np.errstate(over="ignore", invalid="ignore"):
        value, _ = _objective("DAR-GARCH-SEMOS", p, x_loc, x_scale, y)(theta)
    assert not np.isfinite(value)


# ---------------------------------------------------------------------------
# linear recursion kernel
# ---------------------------------------------------------------------------


def _scalar_recursion(coeffs, drive):
    # out[i] = drive[i] + coeffs[0, i] * out[i-1] + coeffs[1, i] * out[i-2] + ...,
    # one step at a time; returns the path and each step's sum of |terms|
    coeffs = np.asarray(coeffs, dtype=float)
    band = coeffs if coeffs.ndim == 2 else np.repeat(coeffs[:, None], drive.size, axis=1)
    out, size = [], []
    for i, d in enumerate(drive.tolist()):
        acc, mag = d, abs(d)
        for j in range(1, min(i, band.shape[0]) + 1):
            term = band[j - 1, i] * out[i - j]
            acc, mag = acc + term, mag + abs(term)
        out.append(acc)
        size.append(mag)
    return np.array(out), np.array(size)


def _recursion_draws(count, orders, scale, edges=()):
    # each order with constant (p,) and time-varying (p, n) coefficients in
    # turn, lengths 1..2200; the first draws of each kind hold every
    # coefficient at one of the edge values
    rng = np.random.default_rng(17)
    lengths = np.r_[1, 2, 3, 2200, rng.integers(1, 2201, size=count - 4)]
    for k, n in enumerate(lengths):
        p = orders[k % len(orders)]
        kind, rank = divmod(k // len(orders), 2)
        coeffs = rng.uniform(-scale, scale, size=(p, n) if rank else (p,))
        if kind < len(edges):
            coeffs[...] = edges[kind]
        yield coeffs, rng.normal(size=n) * rng.uniform(0.1, 10.0)


@pytest.fixture(params=[
    pytest.param("_blas_band_solve", id="blas", marks=pytest.mark.skipif(
        timeseries._CBLAS_DTBSV is None, reason="the loaded numpy exports no cblas_dtbsv")),
    pytest.param("_loop_band_solve", id="loop"),
])
def recursion_kernel(request, monkeypatch):
    # runs the test on numpy's BLAS binding and on the Python fallback
    monkeypatch.setattr(timeseries, "_band_solve", getattr(timeseries, request.param))
    return request.param


def test_linear_recursion_is_the_scalar_loop_to_the_bit(recursion_kernel):
    for coeffs, drive in _recursion_draws(150, (0, 1), 1.0, edges=(0.0, 1.0, 1.3, -1.0)):
        given = drive.copy()
        out = linear_recursion(coeffs, drive)
        assert np.array_equal(out, _scalar_recursion(coeffs, drive)[0])
        assert np.array_equal(drive, given)  # the drive is not overwritten


def test_linear_recursion_higher_orders_match_the_loop(recursion_kernel):
    # BLAS adds the p lag terms in its own order: equal to rtol 1e-13 of the
    # terms' magnitudes, which bounds the rounding where the sum cancels
    for coeffs, drive in _recursion_draws(150, (2, 3), 0.3):
        expected, size = _scalar_recursion(coeffs, drive)
        assert np.all(np.abs(linear_recursion(coeffs, drive) - expected) <= 1e-13 * size)


@pytest.mark.parametrize("coeffs, drive", [
    pytest.param([0.5], np.ones((4, 2)), id="2-D drive"),
    pytest.param(np.full((1, 3), 0.5), np.ones(4), id="3 columns for 4 steps"),
    pytest.param(np.full((2, 5), 0.5), np.ones(4), id="5 columns for 4 steps"),
    pytest.param(np.full((1, 4, 1), 0.5), np.ones(4), id="3-D coefficients"),
    pytest.param(0.5, np.ones(4), id="scalar coefficient"),
])
def test_linear_recursion_checks_shapes_before_the_kernel(monkeypatch, coeffs, drive):
    def tripwire(band, x):
        raise AssertionError("the kernel was reached")
    monkeypatch.setattr(timeseries, "_band_solve", tripwire)
    with pytest.raises(InvalidInput):
        linear_recursion(coeffs, drive)


@pytest.mark.skipif(timeseries._CBLAS_DTBSV is None,
                    reason="the loaded numpy exports no cblas_dtbsv")
@pytest.mark.parametrize("band, x", [
    pytest.param(np.zeros((2, 3), order="F"), np.zeros(4), id="3 band columns for 4 steps"),
    pytest.param(np.zeros((2, 4)), np.zeros(4), id="C-ordered band"),
    pytest.param(np.zeros((2, 4), dtype=np.float32, order="F"), np.zeros(4), id="float32 band"),
    pytest.param(np.zeros((2, 4), order="F"), np.zeros(8)[::2], id="strided vector"),
    pytest.param(np.zeros((2, 4), order="F"), np.zeros((4, 1)), id="2-D vector"),
])
def test_blas_band_solve_checks_the_layout_before_the_foreign_call(band, x):
    with pytest.raises(InvalidInput):
        timeseries._blas_band_solve(band, x)


def test_linear_recursion_takes_one_column_for_every_step(recursion_kernel):
    drive = np.random.default_rng(3).normal(size=50)
    out = linear_recursion([0.6, -0.2], drive)
    assert np.array_equal(linear_recursion([[0.6], [-0.2]], drive), out)
    assert np.array_equal(linear_recursion(np.repeat([[0.6], [-0.2]], 50, axis=1), drive), out)


def test_linear_recursion_runs_an_ar_process_around_its_mean():
    tau = (0.5, -0.3)
    innovations = np.random.default_rng(2).normal(size=400)
    x = 4.0 + linear_recursion(tau, innovations)
    ar = ARCoeffs(2, 4.0, tau)
    np.testing.assert_allclose(x[2:] - ar_teacher_forced(ar, x, 2), innovations[2:],
                               rtol=0, atol=1e-13)


def test_fit_garch_recovers_persistence(rng):
    g = GARCHCoeffs(0.1, 0.6, 0.3)
    n = 4000
    z = rng.standard_normal(n)
    sig2 = np.empty(n)
    rho = np.empty(n)
    sig2[0] = g.omega0 / (1.0 - g.omega1 - g.omega2)
    rho[0] = np.sqrt(sig2[0]) * z[0]
    for t in range(1, n):
        sig2[t] = g.omega0 + g.omega1 * sig2[t - 1] + g.omega2 * rho[t - 1] ** 2
        rho[t] = np.sqrt(sig2[t]) * z[t]
    fit = fit_garch(rho)
    assert fit.omega1 + fit.omega2 == pytest.approx(0.9, abs=0.1)
    assert fit.omega2 == pytest.approx(0.3, abs=0.1)


def test_fit_garch_degenerate_rejected():
    with pytest.raises(DegenerateSeries):
        fit_garch(np.zeros(100))


def test_fit_garch_infinite_sample_variance_is_an_invalid_start():
    # the likelihood at the start is not finite, so minimize rejects the start
    rho = np.random.default_rng(0).normal(size=200)
    rho[100] = 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.var(rho) == np.inf
        with pytest.raises(InvalidStart):
            fit_garch(rho)


def test_fit_garch_likelihood_gradient_matches_finite_differences(rng):
    rho = rng.standard_normal(800) * np.sqrt(rng.uniform(0.5, 2.0, size=800))
    fun = _garch_likelihood(np.square(rho))
    for _ in range(5):
        theta = np.sqrt(rng.uniform([0.05, 0.2, 0.05], [0.5, 0.7, 0.3]))
        numeric = numeric_gradient(lambda t: fun(t)[0], theta, 1e-6 * (1 + np.abs(theta)))
        np.testing.assert_allclose(fun(theta)[1], numeric, rtol=1e-6, atol=1e-8)


def test_fit_garch_likelihood_path_starts_at_garch_start(rng, monkeypatch):
    # the pre-fit scores the path the seasonal models run, from
    # garch_start(omega), not from the sample variance of its series
    starts = []
    kernel = timeseries.garch_path

    def recording(w, *args):
        path = kernel(w, *args)
        starts.append((path[0], timeseries.garch_start(w)))
        return path

    monkeypatch.setattr(timeseries, "garch_path", recording)
    fit_garch(rng.standard_normal(500) * np.sqrt(rng.uniform(0.5, 2.0, size=500)))
    assert len(starts) > 1
    for first, start in starts:
        assert first == start


def test_ar_teacher_forced_adjoint_is_the_transpose(rng):
    # the predictions are affine in (x, eta, tau): the adjoint of a weighted
    # sum of them is its exact gradient, here checked by differencing
    ar = ARCoeffs(3, 0.4, (0.5, -0.2, 0.1))
    x = rng.normal(size=40)
    start = 5
    weights = rng.normal(size=x.size - start)

    def weighted(v):
        fit = ARCoeffs(3, float(v[0]), tuple(v[1:4]))
        return float(weights @ ar_teacher_forced(fit, v[4:], start))

    d_x, d_eta, d_tau = ar_teacher_forced_adjoint(ar, x, start, weights)
    v = np.concatenate([[ar.eta], ar.tau, x])
    numeric = numeric_gradient(weighted, v, 1e-6)
    np.testing.assert_allclose(np.concatenate([[d_eta], d_tau, d_x]), numeric,
                               rtol=1e-7, atol=1e-8)


# ---------------------------------------------------------------------------
# Ljung-Box
# ---------------------------------------------------------------------------


def test_ljung_box_zero_autocorrelation():
    x = np.tile([0.0, 1.0, 0.0, -1.0], 10)  # lag-1 sample autocovariance exactly 0
    q, p = ljung_box(x, 1)
    assert q == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0)


def test_ljung_box_size_under_null():
    rejections = 0
    n_seeds = 1000
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        _, p = ljung_box(rng.normal(size=300), 10)
        rejections += p < 0.05
    assert rejections / n_seeds == pytest.approx(0.05, abs=0.02)


def test_ljung_box_power_ar1(rng):
    x = simulate_ar(0.8, 1000, rng)
    _, p = ljung_box(x, 5)
    assert p < 1e-6


def test_ljung_box_degenerate():
    with pytest.raises(DegenerateSeries):
        ljung_box(np.full(50, 2.0), 3)


@pytest.mark.parametrize("lag", [0, 50])
def test_ljung_box_lag_out_of_range_is_invalid_input(rng, lag):
    with pytest.raises(InvalidInput, match=r"^max_lag must be in \[1, n-1\]"):
        ljung_box(rng.normal(size=50), lag)
    with pytest.raises(DegenerateSeries):  # a constant series is named first
        ljung_box(np.full(50, 2.0), lag)


def _gammq_reference(a: float, x: float) -> float:
    """Regularized upper incomplete gamma via series / continued fraction
    (Numerical Recipes style), independent of scipy."""
    import math

    if x < 0 or a <= 0:
        raise ValueError
    if x == 0:
        return 1.0
    gln = math.lgamma(a)
    if x < a + 1.0:
        ap, total, delta = a, 1.0 / a, 1.0 / a
        for _ in range(500):
            ap += 1.0
            delta *= x / ap
            total += delta
            if abs(delta) < abs(total) * 1e-16:
                break
        return 1.0 - total * math.exp(-x + a * math.log(x) - gln)
    b = x + 1.0 - a
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < 1e-300:
            d = 1e-300
        c = b + an / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + a * math.log(x) - gln) * h


def test_chi2_tail_matches_independent_implementation():
    for dof in (1, 2, 5, 10, 30):
        for q in (0.01, 0.5, 1.0, 3.0, 10.0, 25.0, 60.0):
            assert chi2_sf(q, dof) == pytest.approx(
                _gammq_reference(dof / 2.0, q / 2.0), abs=1e-10)


def test_ar_innovation_variance_white_noise(rng):
    x = rng.normal(size=2000)
    ar = ARCoeffs(p=0, eta=float(np.mean(x)), tau=())
    assert ar_innovation_variance(x, ar) == pytest.approx(np.var(x), rel=1e-10)
