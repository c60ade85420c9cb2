"""Unit tests for the configuration dataclasses and presets."""

from __future__ import annotations

import pytest

from repro.config.parameters import (
    ArchitectureConfig,
    CacheGeometry,
    DataPolicyKind,
    DataPolicySpec,
    RefreshConfig,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.config.presets import (
    PAPER_RETENTION_TIMES_US,
    paper_architecture,
    paper_data_policies,
    paper_retention_times_cycles,
    scaled_architecture,
    scaled_retention_cycles,
)


class TestCacheGeometry:
    def test_derived_quantities(self):
        geometry = CacheGeometry(
            name="l2", size_bytes=256 * 1024, associativity=8, line_bytes=64,
            access_cycles=2,
        )
        assert geometry.num_sets == 512
        assert geometry.num_lines == 4096
        assert geometry.lines_per_refresh_group == 1024

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            CacheGeometry(
                name="bad", size_bytes=1000, associativity=8, line_bytes=64,
                access_cycles=1,
            )

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheGeometry(
                name="bad", size_bytes=3 * 64 * 8, associativity=8, line_bytes=64,
                access_cycles=1,
            )


class TestDataPolicySpec:
    def test_labels(self):
        assert DataPolicySpec.valid().label == "valid"
        assert DataPolicySpec.dirty().label == "dirty"
        assert DataPolicySpec.all_lines().label == "all"
        assert DataPolicySpec.writeback(32, 32).label == "WB(32,32)"

    def test_wb_requires_parameters(self):
        with pytest.raises(ValueError):
            DataPolicySpec(DataPolicyKind.WRITEBACK)

    def test_non_wb_rejects_parameters(self):
        with pytest.raises(ValueError):
            DataPolicySpec(DataPolicyKind.VALID, dirty_refreshes=4, clean_refreshes=4)

    def test_wb_rejects_negative(self):
        with pytest.raises(ValueError):
            DataPolicySpec.writeback(-1, 4)


class TestRefreshConfig:
    def test_sentry_retention(self):
        config = RefreshConfig(
            retention_cycles=1000,
            sentry_margin_cycles=100,
            timing_policy=TimingPolicyKind.REFRINT,
            l3_data_policy=DataPolicySpec.valid(),
        )
        assert config.sentry_retention_cycles == 900
        assert config.label == "R.valid"

    def test_margin_must_be_smaller_than_retention(self):
        with pytest.raises(ValueError):
            RefreshConfig(
                retention_cycles=100,
                sentry_margin_cycles=100,
                timing_policy=TimingPolicyKind.REFRINT,
                l3_data_policy=DataPolicySpec.valid(),
            )

    def test_derive_sentry_margin_is_conservative(self):
        margin = RefreshConfig.derive_sentry_margin(16384, 50_000)
        assert margin == 16384
        # Margin never swallows the whole retention period.
        assert RefreshConfig.derive_sentry_margin(100, 50) == 49

    def test_per_level_policies_default_to_valid(self):
        config = RefreshConfig(
            retention_cycles=1000,
            sentry_margin_cycles=16,
            timing_policy=TimingPolicyKind.REFRINT,
            l3_data_policy=DataPolicySpec.writeback(8, 8),
        )
        assert config.data_policy_for_level("l1").kind is DataPolicyKind.VALID
        assert config.data_policy_for_level("l2").kind is DataPolicyKind.VALID
        assert config.data_policy_for_level("l3").kind is DataPolicyKind.WRITEBACK
        with pytest.raises(ValueError):
            config.data_policy_for_level("l4")


class TestSimulationConfig:
    def test_sram_cannot_have_refresh(self, tiny_architecture):
        from tests.conftest import make_refresh_config

        with pytest.raises(ValueError):
            SimulationConfig(
                architecture=tiny_architecture,
                technology=SimulationConfig.sram().technology,
                refresh=make_refresh_config(tiny_architecture),
            )

    def test_edram_requires_refresh(self, tiny_architecture):
        with pytest.raises(ValueError):
            SimulationConfig.edram(None, tiny_architecture)  # type: ignore[arg-type]

    def test_labels(self, tiny_edram_config, tiny_sram_config):
        assert tiny_sram_config.label == "SRAM"
        assert tiny_edram_config.label.startswith("R.")

    def test_as_sram_baseline_roundtrip(self, tiny_edram_config):
        baseline = tiny_edram_config.as_sram_baseline()
        assert not baseline.is_edram
        assert baseline.architecture is tiny_edram_config.architecture
        again = SimulationConfig.edram(tiny_edram_config.refresh, baseline.architecture)
        assert again.is_edram

    def test_scaled_factory(self):
        config = SimulationConfig.scaled(retention_us=100.0)
        assert config.is_edram
        assert config.refresh.retention_cycles == scaled_retention_cycles(100.0)


class TestArchitecture:
    def test_paper_architecture_matches_table_5_1(self):
        arch = paper_architecture()
        assert arch.num_cores == 16
        assert arch.l1i.size_bytes == 32 * 1024 and arch.l1i.associativity == 2
        assert arch.l1d.size_bytes == 32 * 1024 and arch.l1d.associativity == 4
        assert not arch.l1d.write_back  # write-through
        assert arch.l2.size_bytes == 256 * 1024 and arch.l2.associativity == 8
        assert arch.l3_bank.size_bytes == 1024 * 1024 and arch.num_l3_banks == 16
        assert arch.line_bytes == 64
        assert arch.dram_access_cycles == 40
        assert arch.mesh_width == 4 and arch.mesh_height == 4
        assert arch.l3_total_bytes == 16 * 1024 * 1024

    def test_scaled_architecture_preserves_structure(self):
        arch = scaled_architecture()
        paper = paper_architecture()
        assert arch.num_cores == paper.num_cores
        assert arch.line_bytes == paper.line_bytes
        assert arch.l1d.associativity == paper.l1d.associativity
        assert arch.l2.associativity == paper.l2.associativity
        assert arch.l3_bank.associativity == paper.l3_bank.associativity
        assert arch.l3_total_bytes < paper.l3_total_bytes
        # L1 < L2 < aggregate L3 ordering survives scaling.
        assert arch.l1d.size_bytes < arch.l2.size_bytes < arch.l3_total_bytes

    def test_cores_must_match_mesh(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(num_cores=8)

    def test_cycle_second_conversion(self):
        arch = paper_architecture()
        assert arch.cycles_from_seconds(50e-6) == 50_000
        assert arch.seconds_from_cycles(50_000) == pytest.approx(50e-6)


class TestPresets:
    def test_retention_times(self):
        assert PAPER_RETENTION_TIMES_US == (50.0, 100.0, 200.0)
        assert paper_retention_times_cycles() == (50_000, 100_000, 200_000)

    def test_scaled_retention_preserves_refresh_rate(self):
        # lines / retention must match between paper and scaled geometries.
        paper = paper_architecture()
        scaled = scaled_architecture()
        paper_rate = paper.l3_bank.num_lines / 50_000
        scaled_rate = scaled.l3_bank.num_lines / scaled_retention_cycles(50.0)
        assert scaled_rate == pytest.approx(paper_rate, rel=0.05)

    def test_paper_data_policies_match_table_5_4(self):
        labels = [spec.label for spec in paper_data_policies()]
        assert labels == [
            "all", "valid", "dirty", "WB(4,4)", "WB(8,8)", "WB(16,16)", "WB(32,32)",
        ]
