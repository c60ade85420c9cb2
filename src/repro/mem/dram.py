"""Flat-latency main-memory model.

The paper models DRAM as a 40 ns access behind the L3 (Table 5.1) and, in
the evaluation, charges one DRAM access energy per access so that policies
that push data off chip early (Dirty, WB(n, m)) pay for the extra traffic
they cause (Section 6).  That is exactly what this model does: every read or
write costs a fixed latency and increments the ``dram_accesses`` counter
that the energy model converts to energy.
"""

from __future__ import annotations

from typing import Optional

from repro.utils.statistics import Counter


class MainMemory:
    """Fixed-latency DRAM with access counting."""

    def __init__(
        self,
        access_cycles: int,
        counters: Optional[Counter] = None,
    ) -> None:
        if access_cycles <= 0:
            raise ValueError("DRAM access latency must be positive")
        self.access_cycles = access_cycles
        self.counters = counters if counters is not None else Counter()

    def read(self, block_address: int) -> int:
        """Fetch a block; returns the access latency in cycles."""
        self.counters.add("dram_accesses")
        self.counters.add("dram_reads")
        return self.access_cycles

    def write(self, block_address: int) -> int:
        """Write a block back to memory; returns the latency in cycles."""
        self.counters.add("dram_accesses")
        self.counters.add("dram_writes")
        return self.access_cycles
