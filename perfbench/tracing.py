"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the program from outside: ``src/`` is
not changed.  A wrapper is installed at every module attribute through which
a caller looks the function up, because most callers import by name (for
example ``models.emos`` does ``from ..optimize import minimize``), so
patching the defining module alone would miss them.  Each site carries a
caller label, which ends up in the metric name
``<module>.<function>[.<caller>].<quantity>``.

Spans are kept in memory as flat arrays and written out once the run is
over.  A span's self time is its duration minus the durations of its direct
children; spans never overlap, so the children's sum is the covered part.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import logging
import os
import time
import warnings
from array import array
from collections import defaultdict

import numpy as np


def _models_fit_kind(args, kwargs):
    return args[0] if args else kwargs["kind"]


def _models_predict_kind(args, kwargs):
    return (args[0] if args else kwargs["model"]).kind


# (module the caller looks the name up in, attribute, span name, caller label).
# A callable caller label is evaluated per call; for models.fit/predict it is
# the model kind.
SITES = (
    ("enspost.models", "fit", "models.fit", _models_fit_kind),
    ("enspost.models", "predict", "models.predict", _models_predict_kind),
    ("enspost.models.emos", "minimize", "optimize.minimize", "emos"),
    ("enspost.models.semos", "minimize", "optimize.minimize", "semos"),
    ("enspost.timeseries", "minimize", "optimize.minimize", "garch"),
    ("enspost.optimize", "numeric_gradient", "optimize.numeric_gradient", None),
    ("enspost.models.ar_emos", "golden_section", "optimize.golden_section", None),
    ("enspost.models.emos", "crps_normal_series", "scoring.crps_normal_series", "emos"),
    ("enspost.models.ar_emos", "crps_normal_series", "scoring.crps_normal_series", "ar_emos"),
    ("enspost.models.semos", "crps_normal_series", "scoring.crps_normal_series", "semos"),
    ("enspost.scoring", "crps_normal_series", "scoring.crps_normal_series", "scoring"),
    ("enspost.cli", "crps_ensemble", "scoring.crps_ensemble", None),
    ("enspost.cli", "score_cases", "scoring.score_cases", None),
    ("enspost.scoring", "score_cases", "scoring.score_cases", None),
    ("enspost.models.ar_emos", "fit_ar_yule_walker", "timeseries.fit_ar_yule_walker", None),
    ("enspost.models.semos", "fit_ar_yule_walker", "timeseries.fit_ar_yule_walker", None),
    ("enspost.models.ar_emos", "ar_multistep", "timeseries.ar_multistep", None),
    ("enspost.models.semos", "ar_multistep", "timeseries.ar_multistep", None),
    ("enspost.timeseries", "is_stationary", "timeseries.is_stationary", None),
    ("enspost.data", "is_stationary", "timeseries.is_stationary", None),
    ("enspost.models.ar_emos", "ar_innovation_variance", "timeseries.ar_innovation_variance",
     None),
    ("enspost.models.semos", "fit_garch", "timeseries.fit_garch", None),
    ("enspost.verify", "ljung_box", "timeseries.ljung_box", None),
    ("enspost.models.semos", "seasonal_design", "seasonal.seasonal_design", None),
    # cli.training_residuals imports seasonal_design from the module at call time
    ("enspost.seasonal", "seasonal_design", "seasonal.seasonal_design", None),
    ("enspost.cli", "generate_synthetic", "data.generate_synthetic", None),
    ("enspost.data", "generate_synthetic", "data.generate_synthetic", None),
    ("enspost.cli", "write_station_csv", "data.write_station_csv", None),
    ("enspost.cli", "load_station_csv", "data.load_station_csv", None),
    ("enspost.cli", "impute_series", "data.impute_series", None),
    ("enspost.cli", "significance_matrix", "verify.significance_matrix", None),
    ("enspost.verify", "significance_matrix", "verify.significance_matrix", None),
    ("enspost.verify", "dm_test", "verify.dm_test", None),
    ("enspost.cli", "residual_dependence_table", "verify.residual_dependence_table", None),
    ("enspost.verify", "residual_dependence_table", "verify.residual_dependence_table", None),
    ("enspost.cli", "pit_histogram", "verify.pit_histogram", None),
    ("enspost.verify", "pit_histogram", "verify.pit_histogram", None),
    ("enspost.cli", "training_residuals", "cli.training_residuals", None),
    ("enspost.cli", "load_predictions", "cli.load_predictions", None),
)


def _path_arg(args, kwargs, position):
    return args[position] if len(args) > position else kwargs["path"]


# Work counted at a span boundary, from the call's arguments and result.
# Every one of these repeats exactly for a fixed seed.
COUNTERS = {
    "optimize.minimize": lambda a, k, r: {
        "n_evals": r.n_evals, "iterations": r.iterations, "converged": int(r.converged)},
    "scoring.crps_normal_series": lambda a, k, r: {"elements": np.size(r)},
    "timeseries.ar_multistep": lambda a, k, r: {"steps": np.size(r)},
    "data.write_station_csv": lambda a, k, r: {
        "bytes": os.path.getsize(_path_arg(a, k, 1))},
    "data.load_station_csv": lambda a, k, r: {
        "bytes": os.path.getsize(_path_arg(a, k, 0))},
}

#: spans the workloads open around each stage: bench.* in memory, cli.* per CLI step
STAGE_SPANS = tuple(f"{prefix}.{stage}" for prefix in ("bench", "cli")
                    for stage in ("simulate", "fit", "predict", "verify"))
KNOWN_SPANS = frozenset(site[2] for site in SITES) | frozenset(STAGE_SPANS)

#: quantities that must repeat exactly across two traced passes of one seed
EXACT_QUANTITIES = ("calls", "n_evals", "iterations", "converged", "steps", "elements", "bytes")


class _CountingHandler(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    """In-memory span recorder plus per-label aggregates.

    A label is a (span name, caller) pair.  ``calls``/``busy``/``self_time``
    and ``counts`` are indexed by label id; the ``span_*`` arrays hold one
    entry per span, ``span_parent`` being -1 for top-level spans.
    """

    def __init__(self):
        self.labels: list[tuple[str, str | None]] = []
        self._ids: dict[tuple[str, str | None], int] = {}
        self.calls: list[int] = []
        self.busy: list[float] = []
        self.self_time: list[float] = []
        self.counts: list[dict] = []
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, time covered by children]
        self.warnings = 0

    def label_id(self, name: str, caller: str | None) -> int:
        key = (name, caller)
        lid = self._ids.get(key)
        if lid is None:
            lid = self._ids[key] = len(self.labels)
            self.labels.append(key)
            self.calls.append(0)
            self.busy.append(0.0)
            self.self_time.append(0.0)
            self.counts.append(defaultdict(int))
        return lid

    def begin(self, lid: int) -> None:
        sid = len(self.span_label)
        self.span_label.append(lid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([sid, 0.0])
        self.span_start.append(time.perf_counter())

    def end(self, lid: int) -> None:
        now = time.perf_counter()
        sid, covered = self._stack.pop()
        self.span_end[sid] = now
        duration = now - self.span_start[sid]
        self.calls[lid] += 1
        self.busy[lid] += duration
        self.self_time[lid] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str, caller: str | None = None):
        lid = self.label_id(name, caller)
        self.begin(lid)
        try:
            yield
        finally:
            self.end(lid)

    def _wrap(self, fn, name: str, caller):
        counter = COUNTERS.get(name)
        fixed = None if callable(caller) else self.label_id(name, caller)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lid = fixed if fixed is not None else self.label_id(name, caller(args, kwargs))
            self.begin(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(lid)
            if counter is not None:
                counts = self.counts[lid]
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += int(value)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper, count warnings, and restore it all on exit.

        Warnings are counted per ``warnings.warn`` call (filter "always")
        plus every WARNING-or-worse record of the package's loggers.
        """
        originals = []
        handler = _CountingHandler()
        logger = logging.getLogger("enspost")
        try:
            for module_name, attr, name, caller in SITES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, caller))
            logger.addHandler(handler)
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = self._count_warning
                yield self
        finally:
            logger.removeHandler(handler)
            self.warnings += handler.count
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def _count_warning(self, *args, **kwargs):
        self.warnings += 1

    # -- aggregates --------------------------------------------------------

    def total(self, name: str, caller: str | None, quantity: str) -> float:
        """Sum of one quantity over the labels of a span name; ``caller``
        None sums over every caller."""
        out = 0.0
        for lid, (n, c) in enumerate(self.labels):
            if n != name or (caller is not None and c != caller):
                continue
            if quantity == "calls":
                out += self.calls[lid]
            elif quantity == "busy_s":
                out += self.busy[lid]
            elif quantity == "self_s":
                out += self.self_time[lid]
            else:
                out += self.counts[lid].get(quantity, 0)
        return out

    def metric(self, name: str) -> float:
        """Value of a per-layer metric ``<module>.<function>[.<caller>].<quantity>``."""
        parts = name.split(".")
        span = ".".join(parts[:2])
        if len(parts) not in (3, 4) or span not in KNOWN_SPANS:
            raise ValueError(f"per-layer metric {name!r} names no traced span")
        caller = parts[2] if len(parts) == 4 else None
        quantity = parts[-1]
        ratios = {"converged_frac": ("converged", "calls", 1.0),
                  "elements_per_call": ("elements", "calls", 1.0),
                  "ns_per_element": ("busy_s", "elements", 1e9)}
        if quantity in ratios:
            top, bottom, scale = ratios[quantity]
            base = self.total(span, caller, bottom)
            return scale * self.total(span, caller, top) / base if base else 0.0
        if quantity not in ("busy_s", "self_s") + EXACT_QUANTITIES:
            raise ValueError(f"per-layer metric {name!r} has an unknown quantity")
        return self.total(span, caller, quantity)

    def exact_counts(self) -> dict[str, int]:
        """Every deterministic count, keyed ``name[.caller].quantity``."""
        out = {}
        for lid, (name, caller) in enumerate(self.labels):
            prefix = name if caller is None else f"{name}.{caller}"
            out[f"{prefix}.calls"] = self.calls[lid]
            for key, value in self.counts[lid].items():
                if key in EXACT_QUANTITIES:
                    out[f"{prefix}.{key}"] = value
        return out

    def save(self, path) -> None:
        """Write the spans as a compressed npz: per-span label index, parent
        span index, start and end (perf_counter seconds), plus the label
        table as "name|caller" strings."""
        np.savez_compressed(
            path,
            labels=np.array([f"{n}|{c or ''}" for n, c in self.labels]),
            label=np.frombuffer(self.span_label, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def count_mismatches(first: dict[str, int], second: dict[str, int]) -> list[str]:
    """Names of the counts that differ between two traced passes."""
    return sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
