"""Physical cache instances: per-core private caches and shared L3 banks.

An L3 bank is its cache plus the directory beside it; both are indexed by
the same line number, and the protocol reaches either by that index.
"""

from __future__ import annotations

from typing import Optional

from repro.coherence.directory import Directory
from repro.config.parameters import ArchitectureConfig
from repro.mem.cache import Cache


class CoreCaches:
    """The private caches of one core: instruction L1, data L1 and L2.

    The instruction and data L1s are write-through relative to the L2
    (Table 5.1: the data L1 is WT, the instruction L1 never writes), so all
    dirty private data lives in the L2, which is write-back.
    """

    def __init__(
        self,
        core_id: int,
        architecture: ArchitectureConfig,
        backend: str = "array",
    ) -> None:
        self.core_id = core_id
        self.l1i = Cache(architecture.l1i, name=f"l1i[{core_id}]", backend=backend)
        self.l1d = Cache(architecture.l1d, name=f"l1d[{core_id}]", backend=backend)
        self.l2 = Cache(architecture.l2, name=f"l2[{core_id}]", backend=backend)

    def invalidate_l1_copies(self, block_address: int) -> int:
        """Invalidate any L1 copy of a block (inclusion with the L2).

        Returns the number of copies dropped (0, 1 or 2).
        """
        dropped = 0
        for l1 in (self.l1d, self.l1i):
            index = l1.probe_index(block_address)
            if index >= 0:
                l1.invalidate_index(index)
                dropped += 1
        return dropped

    def __repr__(self) -> str:
        return f"CoreCaches(core={self.core_id})"


class L3Bank:
    """One bank of the shared L3, co-located with a torus vertex.

    The bank's cache follows the L3 state machine, and its MESI directory
    (:class:`~repro.coherence.directory.Directory`) sits beside it, one
    entry per cache line, at the same index.  Each bank has its own refresh
    interrupt logic (Fig. 4.3), attached by the refresh subsystem.
    """

    def __init__(
        self,
        bank_id: int,
        architecture: ArchitectureConfig,
        vertex: Optional[int] = None,
        backend: str = "array",
    ) -> None:
        self.bank_id = bank_id
        self.vertex = vertex if vertex is not None else bank_id
        # Blocks are interleaved across banks, so this bank indexes its sets
        # with the bank-selection bits stripped from the block number.
        self.cache = Cache(
            architecture.l3_bank,
            name=f"l3[{bank_id}]",
            index_interleave=architecture.num_l3_banks,
            index_offset=bank_id,
            backend=backend,
            directory=True,
        )
        self.directory = Directory(self.cache.num_lines)

    def __repr__(self) -> str:
        return f"L3Bank(bank={self.bank_id}, vertex={self.vertex})"
