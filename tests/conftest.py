"""Shared test configuration.

Registers Hypothesis settings profiles so the generative suites are
deterministic and time-bounded in CI (fixed seed via ``derandomize``,
bounded example counts) while staying exploratory for local runs.
Select with ``HYPOTHESIS_PROFILE=ci|dev`` (default ``ci``).

An autouse fixture fails any test that leaves a simulated OS thread
(``sim:`` prefix) alive: a simulation that is not run to completion must
be ended with ``close()``.
"""

import os
import threading

import pytest

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "ci",
        max_examples=40,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", max_examples=100, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
except ImportError:  # pragma: no cover - hypothesis is an optional dep
    pass


def _sim_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("sim:")}


@pytest.fixture(autouse=True)
def no_leaked_sim_threads():
    before = _sim_threads()
    yield
    leaked = _sim_threads() - before
    if leaked:
        pytest.fail("test left simulated OS threads alive: "
                    + ", ".join(sorted(t.name for t in leaked)),
                    pytrace=False)
