"""Shared fixtures.

Observability (:mod:`repro.obs`) is process-global state; every test that
turns it on goes through ``obs_registry`` so the global switch and registry
are restored afterwards and tests stay order-independent.
"""

import os

import pytest
from hypothesis import settings as hypothesis_settings

from repro import obs
from repro.obs.causal import disable_causal, enable_causal

# One fixed profile for every property/stateful test: no per-example deadline
# (the invariant-checked machines do real work per step) and derandomized
# example generation so CI failures reproduce locally byte-for-byte.
hypothesis_settings.register_profile(
    "repro-ci", deadline=None, derandomize=True, print_blob=True
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro-ci"))


@pytest.fixture()
def obs_registry():
    """Enable metrics into a fresh registry; restore globals on teardown."""
    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    obs.enable()
    yield registry
    obs.disable()
    obs.set_registry(previous)


@pytest.fixture()
def obs_disabled_guard():
    """Assert-and-restore guard for tests relying on metrics being off."""
    from repro.obs import metrics as obs_metrics

    assert obs_metrics.ENABLED is False
    yield
    obs_metrics.ENABLED = False


@pytest.fixture()
def ambient_tracer():
    """Install a process-wide tracer; restore the previous one on teardown."""
    previous = disable_causal()
    tracer = enable_causal(seed=0)
    yield tracer
    disable_causal()
    if previous is not None:
        enable_causal(previous)
