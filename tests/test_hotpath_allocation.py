"""The cache index API must not allocate per access.

A lookup returns a plain int line index, hit or miss.  A GC-churn bound
pins that down: with the gen-0 threshold squeezed, a hundred thousand
accesses must not trigger collections (ints are untracked; one tracked
container per access would force thousands of gen-0 passes).

The refresh layer has the same contract: on the array backend the four
paper policies are applied as index arithmetic, so a whole simulation never
asks a policy object for a :class:`~repro.refresh.policies.PolicyDecision`.
"""

from __future__ import annotations

import gc

import pytest

from repro.config.parameters import CacheGeometry
from repro.mem.cache import Cache
from repro.mem.line import MESI_SHARED


def geometry() -> CacheGeometry:
    return CacheGeometry(
        name="test", size_bytes=4096, associativity=4, line_bytes=64,
        access_cycles=1, write_back=True, num_refresh_groups=4,
        sentry_group_size=4,
    )


def test_staged_hits_cause_no_gc_churn():
    cache = Cache(geometry())
    cache.fill_block(0x1000, MESI_SHARED, cycle=0)
    access_index = cache.access_index
    # Warm up any lazy state, then squeeze gen-0 so that even modest
    # per-access container allocation would force collections.
    for cycle in range(1000):
        access_index(0x1000, cycle)
    old_threshold = gc.get_threshold()
    gc.collect()
    try:
        gc.set_threshold(50, 2, 2)
        before = gc.get_stats()[0]["collections"]
        for cycle in range(100_000):
            access_index(0x1000, cycle)
        after = gc.get_stats()[0]["collections"]
    finally:
        gc.set_threshold(*old_threshold)
    # One tracked object per access would mean ~2000 gen-0 collections.
    assert after - before < 50


# -- refresh policy actions --------------------------------------------------


@pytest.fixture
def decide_calls(monkeypatch):
    """Count every ``DataPolicy.decide`` call of the built-in policies."""
    from repro.refresh import policies

    calls = []
    for cls in (
        policies.AllPolicy, policies.ValidPolicy,
        policies.DirtyPolicy, policies.WritebackPolicy,
    ):
        def counting(self, line, _decide=cls.decide):
            calls.append(type(self).__name__)
            return _decide(self, line)

        monkeypatch.setattr(cls, "decide", counting)
    return calls


@pytest.fixture(scope="module")
def barnes():
    from repro.config.presets import scaled_architecture
    from repro.workloads.suite import build_application

    return build_application("barnes", scaled_architecture(), length_scale=0.1)


def _run_barnes(workload, timing, policy, backend):
    from repro.config.parameters import (
        DataPolicySpec, SimulationConfig, TimingPolicyKind,
    )
    from repro.config.presets import scaled_architecture, scaled_retention_cycles
    from repro.core.simulator import RefrintSimulator
    from tests.conftest import make_refresh_config

    architecture = scaled_architecture()
    refresh = make_refresh_config(
        architecture,
        timing=TimingPolicyKind[timing],
        data={
            "all": DataPolicySpec.all_lines(),
            "valid": DataPolicySpec.valid(),
            "dirty": DataPolicySpec.dirty(),
            "WB(4,4)": DataPolicySpec.writeback(4, 4),
        }[policy],
        retention_cycles=scaled_retention_cycles(50.0),
    )
    config = SimulationConfig.edram(refresh, architecture)
    return RefrintSimulator(config, cache_backend=backend).run(workload)


@pytest.mark.parametrize("policy", ["all", "valid", "dirty", "WB(4,4)"])
@pytest.mark.parametrize("timing", ["PERIODIC", "REFRINT"])
def test_array_refresh_never_asks_the_policy_object(
    decide_calls, barnes, timing, policy
):
    result = _run_barnes(barnes, timing, policy, "array")
    assert decide_calls == []
    if policy in ("dirty", "WB(4,4)"):
        # The run did reach the policy actions the tripwire is about.
        assert result.counters.get("l3_policy_invalidations_total", 0) > 0


@pytest.mark.parametrize("timing", ["PERIODIC", "REFRINT"])
def test_object_refresh_asks_the_policy_object(decide_calls, barnes, timing):
    """Sanity: the oracle backend still goes through ``decide()``, so the
    counting wrapper above really intercepts the policy calls."""
    _run_barnes(barnes, timing, "WB(4,4)", "object")
    assert decide_calls
