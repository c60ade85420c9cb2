"""Shared fixtures for the test suite.

The fixtures provide small-but-real configurations: the scaled architecture
(so full simulations finish in seconds) and a miniature architecture (for
tests that walk every cache line).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.store import PROVENANCE_FILE, entry_payload
from repro.config.parameters import (
    ArchitectureConfig,
    CacheGeometry,
    DataPolicySpec,
    RefreshConfig,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.config.presets import scaled_architecture
from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE


def make_tiny_architecture() -> ArchitectureConfig:
    """A deliberately tiny chip for line-level tests (still 16 cores)."""
    line = 64
    return ArchitectureConfig(
        num_cores=16,
        frequency_hz=1.0e9,
        l1i=CacheGeometry(
            name="l1i", size_bytes=1024, associativity=2, line_bytes=line,
            access_cycles=1, write_back=False, num_refresh_groups=2,
            sentry_group_size=1,
        ),
        l1d=CacheGeometry(
            name="l1d", size_bytes=1024, associativity=2, line_bytes=line,
            access_cycles=1, write_back=False, num_refresh_groups=2,
            sentry_group_size=1,
        ),
        l2=CacheGeometry(
            name="l2", size_bytes=4096, associativity=4, line_bytes=line,
            access_cycles=2, write_back=True, num_refresh_groups=2,
            sentry_group_size=4,
        ),
        l3_bank=CacheGeometry(
            name="l3", size_bytes=8192, associativity=4, line_bytes=line,
            access_cycles=4, write_back=True, num_refresh_groups=4,
            sentry_group_size=16,
        ),
        num_l3_banks=16,
        dram_access_cycles=40,
        mesh_width=4,
        mesh_height=4,
    )


def write_legacy_store(root, pairs, provenance=TRACE_GENERATOR_PROVENANCE) -> Path:
    """Write ``(job, result)`` pairs in the legacy one-file-per-result layout.

    Byte for byte what that layout's writer produced: one
    ``<key>.json`` per result holding ``json.dump(entry_payload(...),
    indent=2, sort_keys=True)``, and the provenance stamp beside them.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / PROVENANCE_FILE).write_text(
        json.dumps({"trace_generator": provenance}, indent=2) + "\n"
    )
    for job, result in pairs:
        with (root / f"{job.key()}.json").open("w", encoding="utf-8") as handle:
            json.dump(entry_payload(job, result), handle, indent=2, sort_keys=True)
    return root


@pytest.fixture
def tiny_architecture() -> ArchitectureConfig:
    """Tiny 16-core architecture for fast, line-level tests."""
    return make_tiny_architecture()


@pytest.fixture
def scaled_arch() -> ArchitectureConfig:
    """The scaled preset architecture used by the experiments."""
    return scaled_architecture()


def make_refresh_config(
    architecture: ArchitectureConfig,
    timing: TimingPolicyKind = TimingPolicyKind.REFRINT,
    data: DataPolicySpec | None = None,
    retention_cycles: int = 1000,
) -> RefreshConfig:
    """A refresh configuration sized for the given architecture."""
    margin = RefreshConfig.derive_sentry_margin(
        architecture.l3_bank.num_lines, retention_cycles
    )
    return RefreshConfig(
        retention_cycles=retention_cycles,
        sentry_margin_cycles=margin,
        timing_policy=timing,
        l3_data_policy=data if data is not None else DataPolicySpec.writeback(8, 8),
    )


@pytest.fixture
def tiny_edram_config(tiny_architecture) -> SimulationConfig:
    """An eDRAM simulation config on the tiny architecture."""
    return SimulationConfig.edram(
        make_refresh_config(tiny_architecture), tiny_architecture
    )


@pytest.fixture
def tiny_sram_config(tiny_architecture) -> SimulationConfig:
    """The SRAM baseline config on the tiny architecture."""
    return SimulationConfig.sram(tiny_architecture)
