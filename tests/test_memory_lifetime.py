"""A simulation's memory is released by reference counting alone.

Building a hierarchy must not cost one object per cache line, and once
``RefrintSimulator.run`` returns nothing may hold the run's hierarchy alive:
not the refresh wheel's timers (which can never fire again), not a
controller or cache holding a bound method of itself.  Either would leave
every line view and sharer set of the run for the cyclic garbage collector,
whose full passes then cost more than building the hierarchy.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.config.parameters import SimulationConfig, TimingPolicyKind
from repro.config.presets import scaled_architecture
from repro.core import simulator as simulator_module
from repro.core.simulator import RefrintSimulator
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.workloads.suite import build_application
from tests.conftest import make_refresh_config, make_tiny_architecture


def test_hierarchy_construction_is_not_per_line():
    architecture = scaled_architecture()
    num_lines = architecture.num_cores * (
        architecture.l1i.num_lines
        + architecture.l1d.num_lines
        + architecture.l2.num_lines
    ) + architecture.num_l3_banks * architecture.l3_bank.num_lines
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        hierarchy = CacheHierarchy(architecture)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert hierarchy.cores and added < num_lines / 8


@pytest.fixture(scope="module")
def tiny_workload():
    return build_application("fft", make_tiny_architecture(), length_scale=0.05)


def configs():
    architecture = make_tiny_architecture()
    return {
        "sram": SimulationConfig.sram(architecture),
        "periodic": SimulationConfig.edram(
            make_refresh_config(architecture, timing=TimingPolicyKind.PERIODIC),
            architecture,
        ),
        "refrint": SimulationConfig.edram(
            make_refresh_config(architecture, timing=TimingPolicyKind.REFRINT),
            architecture,
        ),
    }


@pytest.mark.parametrize("backend", ["array", "object"])
@pytest.mark.parametrize("point", ["sram", "periodic", "refrint"])
def test_run_leaves_nothing_for_the_cycle_collector(
    monkeypatch, tiny_workload, point, backend
):
    built = []

    class RecordedHierarchy(CacheHierarchy):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(simulator_module, "CacheHierarchy", RecordedHierarchy)
    simulator = RefrintSimulator(configs()[point], cache_backend=backend)
    gc.collect()
    gc.disable()
    try:
        result = simulator.run(tiny_workload)
        hierarchy_alive = built[0]() is not None
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert result.execution_cycles > 0
    if point != "sram":
        assert simulator.last_replay_stats.wheel_drains > 0
    assert not hierarchy_alive
    assert unreachable == 0
