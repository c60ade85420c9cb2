"""Simulation results and normalisation against the SRAM baseline.

Every number the paper reports is normalised to the full-SRAM configuration
running the same application: memory-hierarchy energy (Figs. 6.1 and 6.2),
total system energy (Fig. 6.3) and execution time (Fig. 6.4).
:class:`SimulationResult` captures one run; the ``normalised_*`` helpers
produce the paper's metrics given the matching baseline result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config.parameters import SimulationConfig
from repro.energy.accounting import COMPONENTS, MEMORY_LEVELS, EnergyBreakdown


@dataclass
class SimulationResult:
    """Everything measured in one simulation run.

    Attributes:
        config: the configuration that was simulated (None for a result
            rebuilt by :meth:`from_dict` -- read from a store, or from a
            ``sweep --json`` summary -- which keeps only the label).
        application: name of the workload.
        execution_cycles: end-to-end execution time in cycles (the finish
            time of the slowest core).
        busy_core_cycles: total cycles the cores spent executing rather than
            stalled, summed over cores.
        counters: raw activity counters (hits, misses, refreshes, messages,
            DRAM accesses, ...).
        energy: the energy breakdown computed by the energy model.
        per_core_finish_cycles: finish time of each core.
        restored_label: configuration label carried by results restored via
            :meth:`from_dict`, which cannot rebuild the full config.
    """

    config: Optional[SimulationConfig]
    application: str
    execution_cycles: int
    busy_core_cycles: int
    counters: Dict[str, int]
    energy: EnergyBreakdown
    per_core_finish_cycles: List[int] = field(default_factory=list)
    restored_label: Optional[str] = None

    # -- raw views -------------------------------------------------------------

    @property
    def label(self) -> str:
        """Configuration label (``SRAM``, ``P.all``, ``R.WB(32,32)``, ...)."""
        if self.config is not None:
            return self.config.label
        if self.restored_label is not None:
            return self.restored_label
        raise ValueError("result carries neither a config nor a restored label")

    def memory_energy(self) -> float:
        """Total memory-hierarchy energy in joules."""
        return self.energy.memory_total()

    def system_energy(self) -> float:
        """Total system energy (memory + cores + network) in joules."""
        return self.energy.system_total()

    def counter(self, name: str) -> int:
        """A raw counter value (0 when never incremented)."""
        return self.counters.get(name, 0)

    # -- normalisation helpers ---------------------------------------------------

    def normalised_memory_energy(self, baseline: "SimulationResult") -> float:
        """Memory energy relative to the baseline's memory energy."""
        base = baseline.memory_energy()
        _require_positive(base, "baseline memory energy")
        return self.memory_energy() / base

    def normalised_system_energy(self, baseline: "SimulationResult") -> float:
        """System energy relative to the baseline's system energy."""
        base = baseline.system_energy()
        _require_positive(base, "baseline system energy")
        return self.system_energy() / base

    def normalised_execution_time(self, baseline: "SimulationResult") -> float:
        """Execution time relative to the baseline's execution time."""
        _require_positive(baseline.execution_cycles, "baseline execution time")
        return self.execution_cycles / baseline.execution_cycles

    def normalised_level_breakdown(
        self, baseline: "SimulationResult"
    ) -> Dict[str, float]:
        """Per-level memory energy relative to the baseline total (Fig. 6.1)."""
        base = baseline.memory_energy()
        _require_positive(base, "baseline memory energy")
        return {
            level: self.energy.by_level.get(level, 0.0) / base
            for level in MEMORY_LEVELS
        }

    def normalised_component_breakdown(
        self, baseline: "SimulationResult"
    ) -> Dict[str, float]:
        """Per-component memory energy relative to the baseline (Fig. 6.2)."""
        base = baseline.memory_energy()
        _require_positive(base, "baseline memory energy")
        return {
            component: self.energy.by_component.get(component, 0.0) / base
            for component in COMPONENTS
        }

    # -- serialisation ------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable summary: the ``result`` of a store payload,
        the cells of ``sweep --json`` and of a served answer.

        Energies are coerced to float so a summary is byte-identical whether
        it came from a fresh run or a :meth:`from_dict` round-trip (an empty
        accounting sum is the int ``0``, which JSON renders as ``0`` rather
        than ``0.0``).
        """
        return {
            "application": self.application,
            "label": self.label,
            "execution_cycles": self.execution_cycles,
            "busy_core_cycles": self.busy_core_cycles,
            "memory_energy_j": float(self.memory_energy()),
            "system_energy_j": float(self.system_energy()),
            "energy_by_level": {k: float(v) for k, v in self.energy.by_level.items()},
            "energy_by_component": {
                k: float(v) for k, v in self.energy.by_component.items()
            },
            "energy_system_parts": {
                k: float(v) for k, v in self.energy.system.items()
            },
            "counters": dict(self.counters),
            "per_core_finish_cycles": list(self.per_core_finish_cycles),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationResult":
        """Rebuild a result from a :meth:`to_dict` summary.

        The full :class:`SimulationConfig` is not serialised, so the restored
        result has ``config=None`` and keeps the label via
        ``restored_label``; everything a figure or normalisation helper needs
        (energy breakdown, counters, cycle counts) round-trips exactly:
        ``SimulationResult.from_dict(r.to_dict()).to_dict() == r.to_dict()``.
        """
        energy = EnergyBreakdown(
            by_level={k: float(v) for k, v in dict(data["energy_by_level"]).items()},
            by_component={
                k: float(v) for k, v in dict(data["energy_by_component"]).items()
            },
            system={k: float(v) for k, v in dict(data["energy_system_parts"]).items()},
        )
        return cls(
            config=None,
            application=str(data["application"]),
            execution_cycles=int(data["execution_cycles"]),
            busy_core_cycles=int(data["busy_core_cycles"]),
            counters={k: int(v) for k, v in dict(data["counters"]).items()},
            energy=energy,
            per_core_finish_cycles=[int(v) for v in list(data["per_core_finish_cycles"])],
            restored_label=str(data["label"]),
        )


def _require_positive(value: float, what: str) -> None:
    if value <= 0:
        raise ValueError(f"{what} must be positive for normalisation, got {value}")

