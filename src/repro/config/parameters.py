"""Configuration dataclasses for the Refrint simulator.

The classes here encode the architectural parameters of the paper's Table 5.1
(16-core CMP, three-level cache hierarchy, 4x4 torus, directory MESI at L3),
the cell-technology ratios of Table 5.2 (SRAM baseline vs eDRAM proposal) and
the refresh-policy space of Tables 3.1 / 5.4.

Everything that the simulator, the refresh controllers and the energy model
need is derived from a single :class:`SimulationConfig` so that a sweep point
is fully described by one picklable object.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.utils.addr import is_power_of_two


class CellTechnology(enum.Enum):
    """Memory cell technology of a cache level."""

    SRAM = "sram"
    EDRAM = "edram"


class TimingPolicyKind(enum.Enum):
    """When to refresh (Table 3.1, time-based component)."""

    PERIODIC = "periodic"
    REFRINT = "refrint"

    @property
    def short_name(self) -> str:
        """Single-letter prefix used in the paper's figure labels (P / R)."""
        return "P" if self is TimingPolicyKind.PERIODIC else "R"


class DataPolicyKind(enum.Enum):
    """What to refresh (Table 3.1, data-based component)."""

    ALL = "all"
    VALID = "valid"
    DIRTY = "dirty"
    WRITEBACK = "wb"


@dataclass(frozen=True)
class DataPolicySpec:
    """A concrete data policy, e.g. Valid or WB(32, 32).

    ``dirty_refreshes`` (n) and ``clean_refreshes`` (m) are only meaningful
    for the WRITEBACK kind: a dirty line is refreshed n times before being
    written back and becoming valid-clean; a valid-clean line is refreshed m
    times before being invalidated.  ``Dirty`` is equivalent to WB(inf, 0)
    and ``Valid`` to WB(inf, inf), as noted in Section 3.2.
    """

    kind: DataPolicyKind
    dirty_refreshes: Optional[int] = None
    clean_refreshes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is DataPolicyKind.WRITEBACK:
            if self.dirty_refreshes is None or self.clean_refreshes is None:
                raise ValueError("WB policy requires both (n, m) refresh counts")
            if self.dirty_refreshes < 0 or self.clean_refreshes < 0:
                raise ValueError("WB refresh counts must be non-negative")
        else:
            if self.dirty_refreshes is not None or self.clean_refreshes is not None:
                raise ValueError(
                    f"{self.kind.value} policy does not take (n, m) parameters"
                )

    @property
    def label(self) -> str:
        """Label matching the paper's figure axes, e.g. ``WB(32,32)``."""
        if self.kind is DataPolicyKind.WRITEBACK:
            return f"WB({self.dirty_refreshes},{self.clean_refreshes})"
        return self.kind.value

    @staticmethod
    def all_lines() -> "DataPolicySpec":
        """Refresh every line, valid or not (reference policy)."""
        return DataPolicySpec(DataPolicyKind.ALL)

    @staticmethod
    def valid() -> "DataPolicySpec":
        """Refresh valid lines only."""
        return DataPolicySpec(DataPolicyKind.VALID)

    @staticmethod
    def dirty() -> "DataPolicySpec":
        """Refresh dirty lines only; valid-clean lines are invalidated."""
        return DataPolicySpec(DataPolicyKind.DIRTY)

    @staticmethod
    def writeback(n: int, m: int) -> "DataPolicySpec":
        """WB(n, m): n refreshes for dirty lines, m for valid-clean lines."""
        return DataPolicySpec(DataPolicyKind.WRITEBACK, n, m)


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache (per bank for the banked L3)."""

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int
    access_cycles: int
    write_back: bool = True
    num_refresh_groups: int = 4
    sentry_group_size: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} is not a multiple of "
                f"associativity*line ({self.associativity}*{self.line_bytes})"
            )
        if not is_power_of_two(self.line_bytes):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if not is_power_of_two(self.num_sets):
            raise ValueError(f"{self.name}: number of sets must be a power of two")
        if self.num_refresh_groups < 1:
            raise ValueError(f"{self.name}: need at least one refresh group")
        if self.sentry_group_size < 1:
            raise ValueError(f"{self.name}: sentry group size must be >= 1")

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.associativity * self.line_bytes)

    @property
    def num_lines(self) -> int:
        """Total number of lines in the cache."""
        return self.num_sets * self.associativity

    @property
    def lines_per_refresh_group(self) -> int:
        """Lines refreshed together by one periodic refresh event."""
        return max(1, self.num_lines // self.num_refresh_groups)


@dataclass(frozen=True)
class RefreshConfig:
    """Refresh behaviour of the eDRAM hierarchy for one sweep point.

    Attributes:
        retention_cycles: eDRAM cell retention period in core cycles.  The
            paper uses 50/100/200 us at 1 GHz (50 000 / 100 000 / 200 000
            cycles); the scaled preset shrinks these together with the caches.
        sentry_margin_cycles: how much earlier than the line the Sentry bit
            decays.  The paper derives 16 us for a 16K-line bank (one cycle
            of margin per line that could fire simultaneously); we mirror
            that rule via :meth:`derive_sentry_margin`.
        timing_policy: Periodic or Refrint.
        l3_data_policy: the data policy applied at the L3 (the level the
            paper's intelligent refresh targets).
        l1_data_policy / l2_data_policy: the paper always runs L1/L2 at
            Valid; kept configurable for ablations.
        refresh_cycles_per_line: time to refresh one line (paper: one access
            time, pipelined to one line per cycle within a group).
    """

    retention_cycles: int
    sentry_margin_cycles: int
    timing_policy: TimingPolicyKind
    l3_data_policy: DataPolicySpec
    l1_data_policy: DataPolicySpec = field(default_factory=DataPolicySpec.valid)
    l2_data_policy: DataPolicySpec = field(default_factory=DataPolicySpec.valid)
    refresh_cycles_per_line: int = 1

    def __post_init__(self) -> None:
        if self.retention_cycles <= 0:
            raise ValueError("retention_cycles must be positive")
        if not 0 <= self.sentry_margin_cycles < self.retention_cycles:
            raise ValueError(
                "sentry margin must be non-negative and smaller than retention"
            )
        if self.refresh_cycles_per_line <= 0:
            raise ValueError("refresh_cycles_per_line must be positive")

    @property
    def sentry_retention_cycles(self) -> int:
        """Retention period of the Sentry bit (shorter than the line's)."""
        return self.retention_cycles - self.sentry_margin_cycles

    @staticmethod
    def derive_sentry_margin(num_lines_per_bank: int, retention_cycles: int) -> int:
        """Conservative Sentry-bit margin: one cycle per line in the bank.

        Section 4.1 sizes the margin so that even if every Sentry bit in a
        bank fired in the same cycle, each line could still be refreshed
        before it expires (one line per cycle through the pipelined
        controller).  The margin is capped below the retention period so the
        sentry retention stays positive.
        """
        return min(num_lines_per_bank, max(0, retention_cycles - 1))

    def data_policy_for_level(self, level: str) -> DataPolicySpec:
        """Return the data policy for ``level`` ("l1", "l2" or "l3")."""
        policies = {
            "l1": self.l1_data_policy,
            "l2": self.l2_data_policy,
            "l3": self.l3_data_policy,
        }
        if level not in policies:
            raise ValueError(f"unknown cache level {level!r}")
        return policies[level]

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``R.WB(32,32)`` or ``P.valid``."""
        return f"{self.timing_policy.short_name}.{self.l3_data_policy.label}"


@dataclass(frozen=True)
class ArchitectureConfig:
    """Static architecture parameters (Table 5.1)."""

    num_cores: int = 16
    frequency_hz: float = 1.0e9
    l1i: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            name="l1i", size_bytes=32 * 1024, associativity=2, line_bytes=64,
            access_cycles=1, write_back=False, num_refresh_groups=4,
            sentry_group_size=1,
        )
    )
    l1d: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            name="l1d", size_bytes=32 * 1024, associativity=4, line_bytes=64,
            access_cycles=1, write_back=False, num_refresh_groups=4,
            sentry_group_size=1,
        )
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            name="l2", size_bytes=256 * 1024, associativity=8, line_bytes=64,
            access_cycles=2, write_back=True, num_refresh_groups=4,
            sentry_group_size=4,
        )
    )
    l3_bank: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            name="l3", size_bytes=1024 * 1024, associativity=8, line_bytes=64,
            access_cycles=4, write_back=True, num_refresh_groups=4,
            sentry_group_size=16,
        )
    )
    num_l3_banks: int = 16
    dram_access_cycles: int = 40
    mesh_width: int = 4
    mesh_height: int = 4
    router_hop_cycles: int = 1
    link_hop_cycles: int = 1

    def __post_init__(self) -> None:
        if self.num_cores != self.mesh_width * self.mesh_height:
            raise ValueError(
                "num_cores must equal mesh_width * mesh_height for the torus"
            )
        if self.num_l3_banks != self.num_cores:
            raise ValueError("the paper attaches one L3 bank to each torus vertex")
        line_sizes = {
            self.l1i.line_bytes, self.l1d.line_bytes,
            self.l2.line_bytes, self.l3_bank.line_bytes,
        }
        if len(line_sizes) != 1:
            raise ValueError("all cache levels must share one line size")

    @property
    def line_bytes(self) -> int:
        """Cache line size shared by every level (64 B in the paper)."""
        return self.l3_bank.line_bytes

    @property
    def l3_total_bytes(self) -> int:
        """Aggregate shared L3 capacity across all banks."""
        return self.l3_bank.size_bytes * self.num_l3_banks

    def cycles_from_seconds(self, seconds: float) -> int:
        """Convert wall-clock seconds to core cycles at the chip frequency."""
        return int(round(seconds * self.frequency_hz))

    def seconds_from_cycles(self, cycles: int) -> float:
        """Convert core cycles to wall-clock seconds at the chip frequency."""
        return cycles / self.frequency_hz


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one simulation point.

    A point is: an architecture, a cell technology for the on-chip hierarchy
    (full SRAM baseline or full eDRAM), and -- when the hierarchy is eDRAM --
    a refresh configuration.  Workloads are supplied separately.
    """

    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    technology: CellTechnology = CellTechnology.EDRAM
    refresh: Optional[RefreshConfig] = None
    flush_dirty_at_end: bool = True
    random_seed: int = 2013

    def __post_init__(self) -> None:
        if self.technology is CellTechnology.EDRAM and self.refresh is None:
            raise ValueError("an eDRAM configuration requires a RefreshConfig")
        if self.technology is CellTechnology.SRAM and self.refresh is not None:
            raise ValueError("an SRAM configuration must not carry a RefreshConfig")

    @property
    def is_edram(self) -> bool:
        """True when the on-chip hierarchy is built from eDRAM cells."""
        return self.technology is CellTechnology.EDRAM

    @property
    def label(self) -> str:
        """Human-readable label for tables and figures."""
        if not self.is_edram:
            return "SRAM"
        assert self.refresh is not None
        return self.refresh.label

    def as_sram_baseline(self) -> "SimulationConfig":
        """Return the full-SRAM baseline sharing this architecture."""
        return replace(self, technology=CellTechnology.SRAM, refresh=None)

    @staticmethod
    def sram(architecture: Optional[ArchitectureConfig] = None) -> "SimulationConfig":
        """Full-SRAM baseline configuration."""
        return SimulationConfig(
            architecture=architecture or ArchitectureConfig(),
            technology=CellTechnology.SRAM,
            refresh=None,
        )

    @staticmethod
    def edram(
        refresh: RefreshConfig,
        architecture: Optional[ArchitectureConfig] = None,
    ) -> "SimulationConfig":
        """Full-eDRAM configuration with the given refresh point."""
        return SimulationConfig(
            architecture=architecture or ArchitectureConfig(),
            technology=CellTechnology.EDRAM,
            refresh=refresh,
        )

    @staticmethod
    def scaled(
        retention_us: float = 50.0,
        timing_policy: TimingPolicyKind = TimingPolicyKind.REFRINT,
        data_policy: Optional[DataPolicySpec] = None,
    ) -> "SimulationConfig":
        """A laptop-scale eDRAM configuration: the sweep point of these
        policies (default data policy WB(32,32)) on the scaled architecture
        of :mod:`repro.config.presets`."""
        from repro.config.presets import scaled_architecture
        from repro.core.sweep import PolicyPoint

        point = PolicyPoint(
            retention_us, timing_policy, data_policy or DataPolicySpec.writeback(32, 32)
        )
        return point.simulation_config(scaled_architecture())

