"""Unit tests for the energy tables, accounting and system model."""

from __future__ import annotations

import pytest

from repro.config.parameters import CellTechnology
from repro.config.presets import paper_architecture
from repro.energy.accounting import EnergyAccount
from repro.energy.model import ActivitySummary, SystemEnergyModel
from repro.energy.tables import (
    EDRAM_LEAKAGE_RATIO,
    default_tables,
    edram_tables,
    geometry_for_level,
    instances_for_level,
    sram_tables,
)
from repro.utils.statistics import Counter


class TestTables:
    def test_edram_has_quarter_leakage_same_access_energy(self):
        for level, sram in sram_tables().items():
            edram = edram_tables()[level]
            assert edram.leakage_power_w == pytest.approx(
                sram.leakage_power_w * EDRAM_LEAKAGE_RATIO
            )
            assert edram.read_energy_nj == sram.read_energy_nj
            assert edram.write_energy_nj == sram.write_energy_nj

    def test_refresh_energy_equals_read_energy(self):
        """Table 5.2: refresh energy is modelled as one access energy."""
        for table in edram_tables().values():
            assert table.refresh_energy_nj == table.read_energy_nj

    def test_levels_get_monotonically_bigger_tables(self):
        tables = sram_tables()
        assert tables["l1d"].read_energy_nj < tables["l2"].read_energy_nj
        assert tables["l2"].read_energy_nj < tables["l3"].read_energy_nj
        assert tables["l2"].leakage_power_w < tables["l3"].leakage_power_w

    def test_instances_per_level(self):
        arch = paper_architecture()
        assert instances_for_level(arch, "l1d") == 16
        assert instances_for_level(arch, "l2") == 16
        assert instances_for_level(arch, "l3") == 16
        with pytest.raises(KeyError):
            instances_for_level(arch, "l4")

    def test_geometry_lookup(self):
        arch = paper_architecture()
        assert geometry_for_level(arch, "l2") is arch.l2
        with pytest.raises(KeyError):
            geometry_for_level(arch, "dram")

    def test_l3_dominates_chip_leakage(self):
        """Calibration: the shared L3 should carry most on-chip leakage."""
        arch = paper_architecture()
        tables = sram_tables()
        total = sum(
            tables[level].leakage_power_w * instances_for_level(arch, level)
            for level in ("l1i", "l1d", "l2", "l3")
        )
        l3 = tables["l3"].leakage_power_w * instances_for_level(arch, "l3")
        assert 0.5 < l3 / total < 0.8


class TestAccounting:
    def test_levels_and_components_sum_to_same_total(self):
        account = EnergyAccount()
        account.add_dynamic("l1d", 1.0)
        account.add_dynamic("l1i", 0.5)
        account.add_leakage("l2", 2.0)
        account.add_refresh("l3", 0.25)
        account.add_dram_access(0.75)
        breakdown = account.breakdown()
        assert breakdown.memory_total() == pytest.approx(4.5)
        assert sum(breakdown.by_level.values()) == pytest.approx(4.5)
        assert sum(breakdown.by_component.values()) == pytest.approx(4.5)
        assert breakdown.by_level["l1"] == pytest.approx(1.5)

    def test_system_total_includes_cores_and_network(self):
        account = EnergyAccount()
        account.add_dynamic("l1d", 1.0)
        account.add_core(2.0)
        account.add_network(0.5)
        assert account.system_total() == pytest.approx(3.5)
        assert account.memory_total() == pytest.approx(1.0)

    def test_negative_contribution_rejected(self):
        account = EnergyAccount()
        with pytest.raises(ValueError):
            account.add_dynamic("l1d", -1.0)
        with pytest.raises(ValueError):
            account.add_core(-1.0)

    def test_unknown_component_rejected(self):
        account = EnergyAccount()
        with pytest.raises(ValueError):
            account.add_memory("l1d", "magic", 1.0)


class TestSystemEnergyModel:
    def activity(self, **counts) -> ActivitySummary:
        counters = Counter(counts)
        return ActivitySummary(
            counters=counters, execution_cycles=10_000, busy_core_cycles=80_000
        )

    def test_sram_model_has_no_refresh_energy(self):
        arch = paper_architecture()
        model = SystemEnergyModel(arch, CellTechnology.SRAM)
        account = model.account_for(self.activity(l1d_reads=1000, l3_reads=10))
        assert account.component_total("refresh") == 0.0
        assert account.component_total("dynamic") > 0.0
        assert account.component_total("leakage") > 0.0

    def test_sram_model_rejects_refresh_counts(self):
        arch = paper_architecture()
        model = SystemEnergyModel(arch, CellTechnology.SRAM)
        with pytest.raises(ValueError):
            model.account_for(self.activity(l3_refreshes=5))

    def test_edram_leakage_is_quarter_of_sram(self):
        arch = paper_architecture()
        activity = self.activity(l1d_reads=100)
        sram = SystemEnergyModel(arch, CellTechnology.SRAM).account_for(activity)
        edram = SystemEnergyModel(arch, CellTechnology.EDRAM).account_for(activity)
        assert edram.component_total("leakage") == pytest.approx(
            sram.component_total("leakage") * EDRAM_LEAKAGE_RATIO
        )

    def test_refresh_energy_counts(self):
        arch = paper_architecture()
        model = SystemEnergyModel(arch, CellTechnology.EDRAM)
        account = model.account_for(self.activity(l3_refreshes=1000))
        expected = 1000 * model.tables.cache("l3").refresh_energy_nj * 1e-9
        assert account.component_total("refresh") == pytest.approx(expected)

    def test_dram_energy_counts(self):
        arch = paper_architecture()
        model = SystemEnergyModel(arch, CellTechnology.SRAM)
        account = model.account_for(self.activity(dram_accesses=500))
        expected = 500 * model.tables.dram_access_energy_nj * 1e-9
        assert account.component_total("dram") == pytest.approx(expected)

    def test_network_energy_counts(self):
        arch = paper_architecture()
        model = SystemEnergyModel(arch, CellTechnology.SRAM)
        account = model.account_for(
            self.activity(network_router_hops=100, network_link_hops=100)
        )
        assert account.breakdown().system["network"] > 0.0

    def test_longer_execution_means_more_leakage(self):
        arch = paper_architecture()
        model = SystemEnergyModel(arch, CellTechnology.SRAM)
        short = model.account_for(
            ActivitySummary(Counter(), execution_cycles=1000, busy_core_cycles=0)
        )
        long = model.account_for(
            ActivitySummary(Counter(), execution_cycles=2000, busy_core_cycles=0)
        )
        assert long.component_total("leakage") == pytest.approx(
            2 * short.component_total("leakage")
        )
