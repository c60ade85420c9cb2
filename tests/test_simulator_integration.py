"""Integration tests: full simulations on the tiny and scaled geometries."""

from __future__ import annotations

import pytest

from repro.config.parameters import (
    DataPolicySpec,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.core.simulator import RefrintSimulator
from repro.workloads.suite import build_application
from tests.conftest import make_refresh_config

#: A short trace keeps each integration simulation well under a second.
LENGTH = 0.08


def edram(architecture, timing, data, retention=1000):
    refresh = make_refresh_config(
        architecture, timing=timing, data=data, retention_cycles=retention
    )
    return SimulationConfig.edram(refresh, architecture)


@pytest.fixture(scope="module")
def scaled_workload():
    from repro.config.presets import scaled_architecture

    return build_application("barnes", scaled_architecture(), length_scale=LENGTH)


@pytest.fixture(scope="module")
def scaled_results(scaled_workload):
    """One SRAM baseline and a handful of eDRAM points, simulated once."""
    from repro.config.presets import scaled_architecture

    arch = scaled_architecture()
    results = {"SRAM": RefrintSimulator(SimulationConfig.sram(arch)).run(scaled_workload)}
    points = {
        "P.all": (TimingPolicyKind.PERIODIC, DataPolicySpec.all_lines()),
        "P.valid": (TimingPolicyKind.PERIODIC, DataPolicySpec.valid()),
        "R.valid": (TimingPolicyKind.REFRINT, DataPolicySpec.valid()),
        "R.WB(8,8)": (TimingPolicyKind.REFRINT, DataPolicySpec.writeback(8, 8)),
    }
    for label, (timing, data) in points.items():
        config = edram(arch, timing, data, retention=1562)
        results[label] = RefrintSimulator(config).run(scaled_workload)
    return results


class TestBasicRuns:
    def test_simulation_completes_and_reports(self, scaled_results, scaled_workload):
        result = scaled_results["SRAM"]
        assert result.execution_cycles > 0
        assert result.memory_energy() > 0
        assert result.system_energy() > result.memory_energy()
        assert len(result.per_core_finish_cycles) == 16
        assert result.counter("instructions") > 0
        assert result.application == "barnes"

    def test_same_workload_same_result(self, scaled_workload):
        from repro.config.presets import scaled_architecture

        arch = scaled_architecture()
        config = SimulationConfig.sram(arch)
        first = RefrintSimulator(config).run(scaled_workload)
        second = RefrintSimulator(config).run(scaled_workload)
        assert first.execution_cycles == second.execution_cycles
        assert first.memory_energy() == pytest.approx(second.memory_energy())

    def test_thread_count_mismatch_rejected(self, tiny_architecture):
        workload = build_application("fft", tiny_architecture, length_scale=0.01)
        bad = SimulationConfig.scaled()
        # tiny and scaled architectures differ, but both have 16 cores, so
        # mismatches must be created explicitly.
        traces = workload.traces[:8]
        from repro.workloads.suite import ApplicationWorkload

        short = ApplicationWorkload(spec=workload.spec, traces=traces)
        with pytest.raises(ValueError):
            RefrintSimulator(bad).run(short)

    def test_empty_trace_core_finishes_at_cycle_zero(self, tiny_architecture):
        from repro.cpu.trace import TraceStream
        from repro.workloads.suite import ApplicationWorkload

        workload = build_application("fft", tiny_architecture, length_scale=0.05)
        traces = list(workload.traces)
        traces[3] = TraceStream([], thread_id=3)
        workload = ApplicationWorkload(spec=workload.spec, traces=tuple(traces))
        config = SimulationConfig.edram(
            make_refresh_config(tiny_architecture), tiny_architecture
        )
        result = RefrintSimulator(config).run(workload)
        assert result.per_core_finish_cycles[3] == 0
        assert result.execution_cycles == max(result.per_core_finish_cycles) > 0


class TestPaperInvariants:
    """The qualitative claims of Section 6 that must hold on any run."""

    def test_every_edram_config_beats_sram_memory_energy(self, scaled_results):
        baseline = scaled_results["SRAM"]
        for label, result in scaled_results.items():
            if label == "SRAM":
                continue
            assert result.normalised_memory_energy(baseline) < 1.0, label

    def test_sram_has_no_refresh_energy_and_edram_does(self, scaled_results):
        assert scaled_results["SRAM"].energy.by_component["refresh"] == 0.0
        assert scaled_results["R.valid"].energy.by_component["refresh"] > 0.0

    def test_refrint_competitive_with_periodic_at_same_data_policy(self, scaled_results):
        # Refrint pays a Sentry-bit margin (its lines are refreshed a third
        # more often than strictly necessary, Section 4.1) but avoids the
        # periodic scheme's cache blocking; on a short trace the energy gap
        # can be within noise, so assert Refrint is at least competitive on
        # energy and strictly better on execution time.
        baseline = scaled_results["SRAM"]
        periodic = scaled_results["P.valid"]
        refrint = scaled_results["R.valid"]
        assert refrint.normalised_memory_energy(baseline) <= (
            1.05 * periodic.normalised_memory_energy(baseline)
        )
        assert refrint.normalised_execution_time(baseline) <= periodic.normalised_execution_time(baseline)

    def test_refrint_wb_beats_naive_edram_baseline(self, scaled_results):
        # The paper's headline comparison: intelligent refresh (Refrint)
        # versus the naive eDRAM baseline (Periodic-All).
        baseline = scaled_results["SRAM"]
        naive = scaled_results["P.all"]
        refrint = scaled_results["R.WB(8,8)"]
        assert refrint.normalised_memory_energy(baseline) < naive.normalised_memory_energy(baseline)

    def test_periodic_slowdown_exceeds_refrint_slowdown(self, scaled_results):
        baseline = scaled_results["SRAM"]
        assert (
            scaled_results["P.all"].normalised_execution_time(baseline)
            > scaled_results["R.valid"].normalised_execution_time(baseline)
        )

    def test_refrint_valid_refreshes_fewer_lines_than_periodic_all(self, scaled_results):
        assert (
            scaled_results["R.valid"].counter("l3_refreshes")
            < scaled_results["P.all"].counter("l3_refreshes")
        )

    def test_no_decay_violations_anywhere(self, scaled_results):
        for label, result in scaled_results.items():
            assert result.counter("decay_violations") == 0, label

    def test_wb_policy_reduces_refresh_rate_versus_valid(self, scaled_results):
        # WB(8, 8) stops refreshing idle lines after their Count runs out, so
        # its refreshes per executed cycle cannot exceed Valid's (it may run
        # slightly longer because of the extra misses its invalidations
        # cause, which is why the comparison is rate based).
        wb = scaled_results["R.WB(8,8)"]
        valid = scaled_results["R.valid"]
        wb_rate = wb.counter("l3_refreshes") / wb.execution_cycles
        valid_rate = valid.counter("l3_refreshes") / valid.execution_cycles
        assert wb_rate <= valid_rate * 1.02

    def test_wb_policy_causes_policy_invalidations(self, scaled_results):
        assert scaled_results["R.WB(8,8)"].counter("l3_policy_invalidations") > 0
        assert scaled_results["R.valid"].counter("l3_policy_invalidations") == 0

    def test_component_breakdown_sums_to_memory_total(self, scaled_results):
        for result in scaled_results.values():
            total = sum(result.energy.by_component.values())
            assert total == pytest.approx(result.memory_energy(), rel=1e-9)

    def test_normalised_breakdowns_sum_to_normalised_memory(self, scaled_results):
        baseline = scaled_results["SRAM"]
        for label, result in scaled_results.items():
            levels = result.normalised_level_breakdown(baseline)
            components = result.normalised_component_breakdown(baseline)
            expected = result.normalised_memory_energy(baseline)
            assert sum(levels.values()) == pytest.approx(expected, rel=1e-9), label
            assert sum(components.values()) == pytest.approx(expected, rel=1e-9), label


class TestResultSerialisation:
    def test_to_dict_roundtrips_key_metrics(self, scaled_results):
        result = scaled_results["R.valid"]
        data = result.to_dict()
        assert data["application"] == "barnes"
        assert data["label"] == "R.valid"
        assert data["memory_energy_j"] == pytest.approx(result.memory_energy())
        assert data["execution_cycles"] == result.execution_cycles
        assert isinstance(data["counters"], dict)
