"""The benchmark's traced run wraps the optimizer at its callers' names and
reads each result's ``n_evals``; a fit under the tracer must record the same
effort its fit file does, and two traced passes the same counts."""

import importlib.util
from pathlib import Path

from enspost import models, timeseries
from enspost.data import SyntheticConfig, generate_synthetic
from enspost.timeseries import ARCoeffs, GARCHCoeffs

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_fits_record_their_effort_and_repeat(monkeypatch):
    tracing = _tracing()
    series, _ = generate_synthetic(SyntheticConfig(
        n_days=1096, seed=8, ar=ARCoeffs(1, 0.0, (0.7,)), garch=GARCHCoeffs(0.1, 0.6, 0.25)))
    train = series.window(end=series.dates[729])
    dates = series.dates[730:800]
    garch_results = []
    minimize = timeseries.minimize

    def recording(*args, **kwargs):
        garch_results.append(minimize(*args, **kwargs))
        return garch_results[-1]

    monkeypatch.setattr(timeseries, "minimize", recording)
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        garch_results.clear()
        with tracer.installed():
            model = models.fit("DAR-GARCH-SEMOS", train)
            models.predict(models.fit("EMOS", train), series, dates)
        [garch] = garch_results
        assert tracer.total("optimize.minimize", "semos", "calls") == 1
        assert tracer.total("optimize.minimize", "semos", "n_evals") == model.meta["n_evals"]
        assert tracer.total("optimize.minimize", "semos", "iterations") == (
            model.meta["iterations"])
        assert tracer.total("optimize.minimize", "garch", "calls") == 1
        assert tracer.total("optimize.minimize", "garch", "n_evals") == garch.n_evals > 0
        assert tracer.total("models.predict", "EMOS", "calls") == 1
        assert tracer.total("scoring.crps_normal_series", "emos", "calls") > 0
        passes.append(tracer.exact_counts())
    assert tracing.count_mismatches(*passes) == []
