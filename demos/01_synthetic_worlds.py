# Synthetic station worlds: what the generator produces and why its 24 h
# truth sidecar is exactly calibrated.
#
# Run:  python3 demos/01_synthetic_worlds.py

import numpy as np

from enspost.data import SyntheticConfig, generate_synthetic
from enspost.scoring import m_member_level, score_cases
from enspost.seasonal import SeasonalCoeffs
from enspost.timeseries import ARCoeffs, GARCHCoeffs
from enspost.verify import pit_histogram

# A "standardized-AR" world: the postprocessing truth has seasonal location
# and scale, AR(1) dependence in the standardized errors, and the delivered
# ensemble is 1.5 degrees too warm and clearly underdispersed.
cfg = SyntheticConfig(
    n_days=1826,
    seed=42,
    standardized_ar=True,
    ens_bias=1.5,
    ens_dispersion=0.6,
    loc=SeasonalCoeffs(0.0, 1.0, (2.0, 1.0, 0.3, 0.2)),
    scale=SeasonalCoeffs(-0.1, 0.25, (0.15, 0.1, 0.0, 0.0)),
    ar=ARCoeffs(1, 0.0, (0.6,)),
)
series, truth = generate_synthetic(cfg)

print(f"series: {series.n_days} days x {series.n_members} members, "
      f"{series.dates[0]} .. {series.dates[-1]}")
print(f"observations: mean {series.obs.mean():.2f} C, "
      f"range [{series.obs.min():.1f}, {series.obs.max():.1f}] C")

# The raw ensemble is biased and underdispersed by construction:
bias = (series.ens_mean - series.obs).mean()
print(f"\nraw ensemble mean error: {bias:+.2f} C (configured bias 1.5)")
print(f"mean ensemble spread {series.ens_sd.mean():.2f} C vs "
      f"mean truth sigma {truth.sigma.mean():.2f} C (underdispersion)")

# At this 24 h lead the truth sidecar is the exact one-step conditional
# distribution, so its PIT is uniform (variance 1/12) and standardized
# innovations are N(0, 1):
z = (series.obs - truth.mu) / truth.sigma
print(f"\ntruth innovations: mean {z.mean():+.3f}, sd {z.std():.3f} (target 0, 1)")
sample = score_cases(truth.mu, truth.sigma, series.obs, level=m_member_level(50))
counts, variance = pit_histogram(sample.pit, bins=10)
print(f"truth PIT variance: {variance:.4f} (uniform reference 1/12 = 0.0833)")
print(f"truth PIT histogram (10 bins): {counts.tolist()}")

# Miscalibration of the raw ensemble shows up as fat outer PIT bins when the
# ensemble spread is used in place of the truth:
naive = score_cases(series.ens_mean, series.ens_sd, series.obs, level=m_member_level(50))
counts_naive, var_naive = pit_histogram(naive.pit, bins=10)
print(f"\nraw-ensemble PIT variance: {var_naive:.4f} (0.0833 = neutral; larger = underdispersed)")
print(f"raw-ensemble PIT histogram: {counts_naive.tolist()}")

# The AR(1) dependence the time-series models exploit:
zs = (series.obs - truth.mu_seasonal) / truth.sigma_seasonal
rho1 = np.corrcoef(zs[1:], zs[:-1])[0, 1]
print(f"\nlag-1 autocorrelation of standardized errors: {rho1:.3f} (configured 0.6)")

# The deseasonalized world with GARCH produces volatility clustering instead:
garch_cfg = SyntheticConfig(
    n_days=1826, seed=42,
    ar=ARCoeffs(1, 0.0, (0.6,)),
    garch=GARCHCoeffs(0.1, 0.55, 0.35),
)
g_series, g_truth = generate_synthetic(garch_cfg)
rho = (g_series.obs - g_truth.mu) / g_truth.sigma_seasonal
sq = rho**2
rho1_sq = np.corrcoef(sq[1:], sq[:-1])[0, 1]
print(f"\nGARCH world: lag-1 autocorrelation of squared standardized "
      f"innovations: {rho1_sq:.3f} (clustering the GARCH factor must absorb)")
