"""Per-component energy accounting.

The paper reports the memory-hierarchy energy split in two ways (Section 6):

* by *level*: L1, L2, L3 and DRAM (Fig. 6.1);
* by *component*: on-chip dynamic, on-chip leakage, on-chip refresh and DRAM
  (Fig. 6.2);

plus the *total system* energy including cores and network (Fig. 6.3).  The
:class:`EnergyAccount` here records every contribution with both its level
and its component so that all three views can be produced from one run.

The activity counters an account is built from are produced by the
simulation's index paths: refresh counts arrive as bulk deltas from the
controllers' vectorized group sweeps over the cache state arrays, and
access counts are incremented with pre-interned keys on the protocol's
per-access path -- the accounting layer itself only ever sees the final
per-run totals, so the energy numbers are independent of which cache
backend (array or object) produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Cache-hierarchy levels tracked by the account.
MEMORY_LEVELS: Tuple[str, ...] = ("l1", "l2", "l3", "dram")

#: Energy components tracked by the account.
COMPONENTS: Tuple[str, ...] = ("dynamic", "leakage", "refresh", "dram")

#: Non-memory parts of the system (for the Fig. 6.3 total-energy view).
SYSTEM_PARTS: Tuple[str, ...] = ("core", "network")


def _level_of_cache(cache_level: str) -> str:
    """Collapse the per-cache levels (l1i/l1d) onto the reporting levels."""
    if cache_level in ("l1i", "l1d", "l1"):
        return "l1"
    if cache_level in ("l2", "l3", "dram"):
        return cache_level
    raise ValueError(f"unknown cache level {cache_level!r}")


@dataclass
class EnergyBreakdown:
    """An immutable snapshot of an account, in joules.

    Attributes:
        by_level: memory energy keyed by reporting level (l1/l2/l3/dram).
        by_component: memory energy keyed by component
            (dynamic/leakage/refresh/dram).
        system: non-memory energy keyed by part (core/network).
    """

    by_level: Dict[str, float] = field(default_factory=dict)
    by_component: Dict[str, float] = field(default_factory=dict)
    system: Dict[str, float] = field(default_factory=dict)

    def memory_total(self) -> float:
        """Total memory-hierarchy energy (L1 + L2 + L3 + DRAM)."""
        return sum(self.by_level.get(level, 0.0) for level in MEMORY_LEVELS)

    def system_total(self) -> float:
        """Total system energy (memory + cores + network)."""
        return self.memory_total() + sum(
            self.system.get(part, 0.0) for part in SYSTEM_PARTS
        )


class EnergyAccount:
    """Mutable accumulator of energy contributions for one simulation run.

    All amounts are in joules.  Memory contributions are tagged with both a
    cache level and a component; core and network energy are tracked
    separately so the memory-only figures are unaffected by them.
    """

    def __init__(self) -> None:
        self._memory: Dict[Tuple[str, str], float] = {}
        self._system: Dict[str, float] = {part: 0.0 for part in SYSTEM_PARTS}

    # -- memory hierarchy -------------------------------------------------

    def add_memory(self, cache_level: str, component: str, joules: float) -> None:
        """Add ``joules`` of ``component`` energy at ``cache_level``.

        ``cache_level`` may be any of l1i/l1d/l1/l2/l3/dram; l1i and l1d are
        folded into the l1 reporting level.
        """
        if component not in COMPONENTS:
            raise ValueError(f"unknown energy component {component!r}")
        if joules < 0:
            raise ValueError("energy contributions must be non-negative")
        level = _level_of_cache(cache_level)
        key = (level, component)
        self._memory[key] = self._memory.get(key, 0.0) + joules

    def add_dynamic(self, cache_level: str, joules: float) -> None:
        """Add dynamic (access) energy at ``cache_level``."""
        self.add_memory(cache_level, "dynamic", joules)

    def add_leakage(self, cache_level: str, joules: float) -> None:
        """Add leakage energy at ``cache_level``."""
        self.add_memory(cache_level, "leakage", joules)

    def add_refresh(self, cache_level: str, joules: float) -> None:
        """Add refresh energy at ``cache_level``."""
        self.add_memory(cache_level, "refresh", joules)

    def add_dram_access(self, joules: float) -> None:
        """Add main-memory access energy (level dram, component dram)."""
        self.add_memory("dram", "dram", joules)

    # -- rest of the system ----------------------------------------------

    def add_core(self, joules: float) -> None:
        """Add core (pipeline + core leakage) energy."""
        if joules < 0:
            raise ValueError("energy contributions must be non-negative")
        self._system["core"] += joules

    def add_network(self, joules: float) -> None:
        """Add on-chip network (router + link) energy."""
        if joules < 0:
            raise ValueError("energy contributions must be non-negative")
        self._system["network"] += joules

    # -- queries -----------------------------------------------------------

    def memory_total(self) -> float:
        """Total memory-hierarchy energy so far."""
        return sum(self._memory.values())

    def system_total(self) -> float:
        """Total system energy so far (memory + cores + network)."""
        return self.memory_total() + sum(self._system.values())

    def level_total(self, level: str) -> float:
        """Memory energy at one reporting level (l1/l2/l3/dram)."""
        return sum(
            value for (lvl, _), value in self._memory.items() if lvl == level
        )

    def component_total(self, component: str) -> float:
        """Memory energy of one component (dynamic/leakage/refresh/dram)."""
        return sum(
            value for (_, comp), value in self._memory.items() if comp == component
        )

    def breakdown(self) -> EnergyBreakdown:
        """Return an immutable snapshot of the account."""
        by_level = {level: self.level_total(level) for level in MEMORY_LEVELS}
        by_component = {comp: self.component_total(comp) for comp in COMPONENTS}
        return EnergyBreakdown(
            by_level=by_level,
            by_component=by_component,
            system=dict(self._system),
        )

