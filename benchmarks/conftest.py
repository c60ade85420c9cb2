"""Shared fixtures for the benchmark harness.

The Chapter 6 figures are all produced from the same Table 5.4 sweep, so the
sweep is run once per benchmark session (module-scoped fixture) and every
figure/table benchmark reads from it.  The size of the sweep is controlled
by environment variables (see ``repro.experiments.runner.ExperimentScale``):

* default                      -- one representative application per class,
                                  short traces, all 3 retention times and all
                                  14 policy combinations (a few minutes);
* ``REFRINT_APPS=all``         -- the full eleven-application suite;
* ``REFRINT_LENGTH_SCALE=1.0`` -- full-length synthetic traces.

Benchmark timings therefore measure the figure-regeneration code on top of a
prepared sweep; the sweep itself is reported by ``test_sweep_table_5_4``.
"""

from __future__ import annotations

import pytest

from repro.campaign.engine import run_campaign
from repro.experiments.runner import ExperimentScale


@pytest.fixture(scope="session")
def sweep():
    """Run the shared sweep once and reuse it across figure benchmarks."""
    scale = ExperimentScale.from_environment()
    result, _ = run_campaign(scale.workload_requests(), points=scale.policy_points())
    return result
