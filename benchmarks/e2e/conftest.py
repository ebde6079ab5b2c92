"""Tests here must not run under a ``repro.obs`` recorder."""

import pytest


@pytest.fixture(autouse=True)
def record_stage_timings():
    """Overrides the autouse fixture of ``benchmarks/conftest.py``, which
    would trace every test: this benchmark measures with tracing off."""
    yield
