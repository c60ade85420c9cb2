"""The full on-chip memory hierarchy of the simulated CMP.

:class:`CacheHierarchy` wires together the per-core private caches, the 16
shared L3 banks, the torus network, the DRAM and the directory protocol, and
exposes the three operations a core performs (instruction fetch, load,
store) plus the hooks the refresh subsystem needs (every cache array, and
the policy-driven invalidate / write-back entry points, by line index).

The hierarchy itself is technology-agnostic: whether the arrays are SRAM or
eDRAM only matters to the refresh controllers layered on top and to the
energy model applied afterwards.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.coherence.protocol import DirectoryProtocol
from repro.config.parameters import ArchitectureConfig
from repro.hierarchy.levels import CoreCaches, L3Bank
from repro.mem.cache import Cache
from repro.mem.dram import MainMemory
from repro.noc.network import TorusNetwork
from repro.noc.topology import TorusTopology
from repro.utils.statistics import Counter


class CacheHierarchy:
    """Private L1s/L2s, banked shared L3, torus NoC, DRAM and MESI directory.

    ``cache_backend`` selects the cache storage model: "array" (the default
    struct-of-arrays layout) or "object" (the original one-object-per-line
    model, kept as the test oracle).
    """

    def __init__(
        self, architecture: ArchitectureConfig, cache_backend: str = "array"
    ) -> None:
        self.architecture = architecture
        self.cache_backend = cache_backend
        self.counters = Counter()
        self.topology = TorusTopology(
            width=architecture.mesh_width, height=architecture.mesh_height
        )
        self.network = TorusNetwork(
            self.topology,
            router_hop_cycles=architecture.router_hop_cycles,
            link_hop_cycles=architecture.link_hop_cycles,
            counters=self.counters,
        )
        self.dram = MainMemory(
            access_cycles=architecture.dram_access_cycles, counters=self.counters
        )
        self.cores: List[CoreCaches] = [
            CoreCaches(core_id, architecture, backend=cache_backend)
            for core_id in range(architecture.num_cores)
        ]
        self.banks: List[L3Bank] = [
            L3Bank(bank_id, architecture, vertex=bank_id, backend=cache_backend)
            for bank_id in range(architecture.num_l3_banks)
        ]
        self.protocol = DirectoryProtocol(
            architecture=architecture,
            cores=self.cores,
            banks=self.banks,
            network=self.network,
            dram=self.dram,
            counters=self.counters,
        )

    # -- core-facing operations ---------------------------------------------

    def read(self, core_id: int, address: int, cycle: int) -> int:
        """Data load; returns the end-to-end latency in cycles."""
        return self.protocol.read(core_id, address, cycle)

    def write(self, core_id: int, address: int, cycle: int) -> int:
        """Data store; returns the end-to-end latency in cycles."""
        return self.protocol.write(core_id, address, cycle)

    def instruction_fetch(self, core_id: int, address: int, cycle: int) -> int:
        """Instruction fetch; returns the end-to-end latency in cycles."""
        return self.protocol.instruction_fetch(core_id, address, cycle)

    @property
    def protocol_calls(self) -> int:
        """Access-path protocol invocations so far (see ``ReplayStats``)."""
        return self.protocol.protocol_calls

    def flush_dirty(self, cycle: int) -> None:
        """Write all dirty data back to DRAM (end-of-run accounting)."""
        self.protocol.flush_dirty(cycle)

    # -- refresh-subsystem hooks ----------------------------------------------

    def all_caches(self) -> Iterator[Tuple[str, int, Cache]]:
        """Yield (level, instance id, cache) for every array on the chip.

        The level names match the energy tables and the per-level data
        policies: "l1i", "l1d", "l2" use the core id as instance id, "l3"
        uses the bank id.
        """
        for caches in self.cores:
            yield "l1i", caches.core_id, caches.l1i
            yield "l1d", caches.core_id, caches.l1d
            yield "l2", caches.core_id, caches.l2
        for bank in self.banks:
            yield "l3", bank.bank_id, bank.cache

    def cache_instance(self, level: str, instance: int) -> Cache:
        """Return one cache array by level name and instance id."""
        if level == "l1i":
            return self.cores[instance].l1i
        if level == "l1d":
            return self.cores[instance].l1d
        if level == "l2":
            return self.cores[instance].l2
        if level == "l3":
            return self.banks[instance].cache
        raise KeyError(f"unknown cache level {level!r}")

    def policy_invalidate(
        self, level: str, instance: int, index: int, cycle: int
    ) -> None:
        """Invalidate the line at ``index`` on behalf of a refresh policy.

        Dispatches to the protocol so that inclusion and dirty data are
        handled correctly for the level in question; L1 lines are always
        clean (write-through) and can be dropped silently.
        """
        if level == "l3":
            self.protocol.policy_invalidate_l3(self.banks[instance], index, cycle)
        elif level == "l2":
            self.protocol.policy_invalidate_l2(instance, index, cycle)
        elif level in ("l1i", "l1d"):
            cache = self.cache_instance(level, instance)
            if cache.valid_at(index):
                self.counters.add(f"{level}_policy_invalidations")
                cache.invalidate_index(index)
        else:
            raise KeyError(f"unknown cache level {level!r}")

    def policy_writeback(
        self, level: str, instance: int, index: int, cycle: int
    ) -> None:
        """Write the dirty line at ``index`` back one level for a refresh
        policy."""
        if level == "l3":
            self.protocol.policy_writeback_l3(self.banks[instance], index, cycle)
        elif level == "l2":
            self.protocol.policy_writeback_l2(instance, index, cycle)
        elif level in ("l1i", "l1d"):
            # Write-through L1 lines are never dirty; nothing to do.
            return
        else:
            raise KeyError(f"unknown cache level {level!r}")

    # -- introspection ---------------------------------------------------------

    def check_inclusion(self) -> List[str]:
        """Verify that every valid L2/L1 block is present in the L3.

        Returns a list of human-readable violation descriptions (empty when
        the inclusive-hierarchy invariant holds).  Used by tests.
        """
        violations: List[str] = []
        for caches in self.cores:
            for level_name, cache in (
                ("l1i", caches.l1i), ("l1d", caches.l1d), ("l2", caches.l2),
            ):
                for index in cache.valid_indices_in_range(0, cache.num_lines):
                    block = cache.block_address_at(index)
                    bank = self.protocol.home_bank(block)
                    if bank.cache.probe_index(block) < 0:
                        violations.append(
                            f"core {caches.core_id} {level_name} holds block "
                            f"{block:#x} absent from L3 bank {bank.bank_id}"
                        )
        return violations
