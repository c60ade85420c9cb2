"""Trace-replay core model.

Each of the 16 cores replays one thread's :class:`~repro.cpu.trace.TraceStream`
against the shared memory hierarchy.  The model is deliberately simple -- the
paper's dual-issue out-of-order MIPS32 core is replaced by an in-order engine
that charges one cycle per non-memory instruction and blocks on every data
reference until the hierarchy answers.  The effects the evaluation cares
about are preserved: periodic refresh passes block the arrays and delay the
accesses behind them, and policies that invalidate useful data early cause
extra misses whose latency lengthens execution time (Section 6.5).

Instruction fetches are modelled in two parts: every instruction is charged
one L1I access for energy purposes, and one real instruction fetch is issued
through the hierarchy per ``ifetch_interval`` instructions (walking a small
per-thread code region) so the instruction working set occupies cache lines
and is subject to refresh like everything else.

A core never touches the event queue.  The simulator's replay loop
(:class:`~repro.core.simulator.RefrintSimulator`) asks it for its first
issue time (:meth:`Core.begin`) and then executes one reference at a time
(:meth:`Core.step`), each a full walk of the coherence protocol, in the
global (time, sequence) order it shares with the refresh timers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cpu.trace import TraceStream
from repro.hierarchy.hierarchy import CacheHierarchy

#: Number of instructions represented by one real instruction-fetch access.
DEFAULT_IFETCH_INTERVAL = 16

#: Bytes of the per-thread code region walked by the modelled fetches.  Kept
#: small (an inner-loop sized footprint) so that, on the scaled geometry,
#: code does not crowd data out of the small private caches.
DEFAULT_CODE_REGION_BYTES = 512


@dataclass
class CoreStats:
    """Per-core execution statistics."""

    references_completed: int = 0
    instructions_executed: int = 0
    busy_cycles: int = 0
    stall_cycles: int = 0
    finish_cycle: Optional[int] = None

    @property
    def finished(self) -> bool:
        """True once the core has drained its trace."""
        return self.finish_cycle is not None


class Core:
    """One trace-replay core attached to the shared hierarchy."""

    def __init__(
        self,
        core_id: int,
        trace: TraceStream,
        hierarchy: CacheHierarchy,
        code_base_address: Optional[int] = None,
        ifetch_interval: int = DEFAULT_IFETCH_INTERVAL,
        code_region_bytes: int = DEFAULT_CODE_REGION_BYTES,
    ) -> None:
        if ifetch_interval < 1:
            raise ValueError("ifetch_interval must be >= 1")
        self.core_id = core_id
        self.trace = trace
        self.hierarchy = hierarchy
        self.stats = CoreStats()
        self.ifetch_interval = ifetch_interval
        self.code_region_bytes = code_region_bytes
        # Each thread executes from its own code region high in the address
        # space so code and data never collide.
        self.code_base_address = (
            code_base_address
            if code_base_address is not None
            else (1 << 40) + core_id * code_region_bytes
        )
        self._next_index = 0
        self._instructions_since_ifetch = 0
        self._code_offset = 0
        self._line_bytes = hierarchy.architecture.line_bytes
        self._counts = hierarchy.counters.raw
        # Bound-method caches for the per-reference dispatch.
        self._read = hierarchy.read
        self._write = hierarchy.write
        # The trace unpacked into parallel field lists: the replay loop runs
        # once per reference and a plain list index is several times cheaper
        # than TraceStream.__getitem__ plus dataclass attribute and property
        # lookups on every record.
        self._num_records = len(trace)
        self._addresses = [record.address for record in trace]
        self._is_write = [record.is_write for record in trace]
        self._gaps = [record.gap_instructions for record in trace]

    # -- lifecycle -------------------------------------------------------------

    def begin(self, cycle: int) -> Optional[int]:
        """Charge the leading instruction gap; return the first issue time.

        Returns None when the trace is empty (the core finishes on the
        spot).
        """
        if self._num_records == 0:
            self.stats.finish_cycle = cycle
            return None
        first_gap = self._gaps[0]
        self.stats.busy_cycles += first_gap
        self._account_instructions(cycle, first_gap)
        return cycle + first_gap

    @property
    def finished(self) -> bool:
        """True once the core has drained its trace."""
        return self.stats.finished

    # -- replay -----------------------------------------------------------------

    def step(self, cycle: int) -> Optional[int]:
        """Execute the reference issued at ``cycle``; return the next issue time.

        Returns None when the trace is drained (the core finishes at
        completion of this reference).
        """
        index = self._next_index
        if self._is_write[index]:
            latency = self._write(self.core_id, self._addresses[index], cycle)
        else:
            latency = self._read(self.core_id, self._addresses[index], cycle)
        stats = self.stats
        stats.references_completed += 1
        stats.busy_cycles += 1
        if latency > 1:
            stats.stall_cycles += latency - 1
        index += 1
        self._next_index = index

        if index >= self._num_records:
            stats.finish_cycle = cycle + latency
            return None

        gap = self._gaps[index]
        stats.busy_cycles += gap
        issue_time = cycle + latency + gap
        self._account_instructions(cycle + latency, gap)
        return issue_time

    # -- helpers ------------------------------------------------------------------

    def _account_instructions(self, cycle: int, count: int) -> None:
        """Charge instruction-fetch energy and issue periodic real fetches."""
        if count <= 0:
            return
        self.stats.instructions_executed += count
        counts = self._counts
        counts["l1i_reads"] += count
        counts["instructions"] += count
        self._instructions_since_ifetch += count
        while self._instructions_since_ifetch >= self.ifetch_interval:
            self._instructions_since_ifetch -= self.ifetch_interval
            address = self.code_base_address + self._code_offset
            self._code_offset = (
                self._code_offset + self._line_bytes
            ) % self.code_region_bytes
            self.hierarchy.instruction_fetch(self.core_id, address, cycle)
