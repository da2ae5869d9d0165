"""The benchmark's tracer wraps functions at the module attributes its
callers look them up through; every one of those names must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


@pytest.mark.parametrize("module_name, attribute",
                         sorted({(site[0], site[1]) for site in _sites()}))
def test_tracer_site_resolves(module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute, None))
