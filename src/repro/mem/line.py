"""Cache line state.

Two state machines coexist in the hierarchy:

* private caches (L1I, L1D, L2) hold :class:`MESIState` lines.  The data L1
  is write-through, so its lines are never MODIFIED; the instruction L1 only
  reads.  The private L2 uses the full MESI range.
* the shared, banked L3 holds :class:`L3State` lines (invalid / valid-clean
  / valid-dirty with respect to DRAM).  The directory lives in the L3
  (Table 5.1), but its entries -- which cores share a block, which one owns
  it -- are kept beside each bank's lines, in
  :class:`~repro.coherence.directory.Directory`.

For the refresh policies only two predicates matter -- is the line valid,
and is it dirty -- so :class:`CacheLine` exposes ``valid`` and ``dirty``
uniformly over both state machines.

Lines also carry the eDRAM book-keeping the paper's Section 4 describes: the
cycle of the last (implicit or explicit) refresh, and the per-line ``Count``
used by the WB(n, m) policy, stored as a handful of extra eDRAM cells next
to the tag.

The line objects are the storage of the object cache backend (the test
oracle) and what its refresh walk hands to
:meth:`DataPolicy.decide <repro.refresh.policies.DataPolicy.decide>`.  The
array backend stores the same fields as vectors
(:mod:`repro.mem.arrays`) and the MESI state as the integer codes below;
every layer above the caches reads and writes lines by index, in codes.
"""

from __future__ import annotations

import enum
from typing import Optional


class MESIState(enum.Enum):
    """Coherence state of a line in a private (L1/L2) cache."""

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"


class L3State(enum.Enum):
    """State of a line in the shared L3 with respect to main memory."""

    INVALID = "I"
    CLEAN = "C"
    DIRTY = "D"


# Integer MESI state codes: the vocabulary of the cache index API
# (``state_code`` / ``set_state_code`` / ``fill_index``), so the protocol
# compares and stores plain ints instead of enum members.  The object
# backend translates them to and from its lines' enum members.

MESI_INVALID, MESI_SHARED, MESI_EXCLUSIVE, MESI_MODIFIED = 0, 1, 2, 3

#: Code -> enum member, indexable by the integer code.
MESI_STATES: tuple = (
    MESIState.INVALID, MESIState.SHARED, MESIState.EXCLUSIVE, MESIState.MODIFIED
)

#: Enum member -> code.
MESI_CODES = {state: code for code, state in enumerate(MESI_STATES)}


class CacheLine:
    """One line of a private cache.

    Attributes:
        tag: address tag (block address divided by sets*line size); None for
            a never-used line.
        state: MESI state.
        last_access_cycle: cycle of the last normal (non-refresh) access.
        last_refresh_cycle: cycle at which the eDRAM cells were last
            recharged, whether by an access or by an explicit refresh.
        refresh_count: the WB(n, m) ``Count`` field.  None means the policy
            in force does not use it.
        lru_stamp: monotonic counter used for LRU victim selection.
    """

    __slots__ = (
        "tag",
        "state",
        "last_access_cycle",
        "last_refresh_cycle",
        "refresh_count",
        "lru_stamp",
    )

    def __init__(self) -> None:
        self.tag: Optional[int] = None
        self.state: MESIState = MESIState.INVALID
        self.last_access_cycle: int = 0
        self.last_refresh_cycle: int = 0
        self.refresh_count: Optional[int] = None
        self.lru_stamp: int = 0

    # -- predicates shared with the refresh policies -------------------------

    @property
    def valid(self) -> bool:
        """True when the line holds usable data."""
        return self.state is not MESIState.INVALID

    @property
    def dirty(self) -> bool:
        """True when the line holds data newer than the level below."""
        return self.state is MESIState.MODIFIED

    # -- transitions ---------------------------------------------------------

    def fill(self, tag: int, state: MESIState, cycle: int) -> None:
        """Install a new block in this line (implicitly refreshing it)."""
        self.tag = tag
        self.state = state
        self.last_access_cycle = cycle
        self.last_refresh_cycle = cycle
        self.refresh_count = None

    def touch(self, cycle: int) -> None:
        """Record a normal access: refreshes the cells and resets Count."""
        self.last_access_cycle = cycle
        self.last_refresh_cycle = cycle
        self.refresh_count = None

    def refresh(self, cycle: int) -> None:
        """Record an explicit refresh (does not reset Count)."""
        self.last_refresh_cycle = cycle

    def invalidate(self) -> None:
        """Drop the line's contents."""
        self.state = MESIState.INVALID
        self.refresh_count = None

    def is_expired(self, cycle: int, retention_cycles: int) -> bool:
        """True if the eDRAM cells would have decayed by ``cycle``."""
        return cycle - self.last_refresh_cycle > retention_cycles

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(tag={self.tag}, state={self.state.value}, "
            f"refresh@{self.last_refresh_cycle})"
        )


class DirectoryLine(CacheLine):
    """An L3 line: a :class:`CacheLine` whose validity is its L3 state.

    The MESI ``state`` field is bookkeeping only; ``valid`` and ``dirty``
    follow ``l3_state``.  The block's directory entry is not part of the
    line: each L3 bank keeps its entries in a
    :class:`~repro.coherence.directory.Directory`, indexed like its lines.
    """

    __slots__ = ("l3_state",)

    def __init__(self) -> None:
        super().__init__()
        self.l3_state: L3State = L3State.INVALID

    # The generic predicates map onto the L3 state machine.

    @property
    def valid(self) -> bool:
        """True when the line holds usable data."""
        return self.l3_state is not L3State.INVALID

    @property
    def dirty(self) -> bool:
        """True when the line is newer than DRAM."""
        return self.l3_state is L3State.DIRTY

    def fill(self, tag: int, state: MESIState, cycle: int) -> None:
        """Install a new, valid-clean block (``state`` is bookkeeping)."""
        super().fill(tag, state, cycle)
        self.l3_state = L3State.CLEAN

    def invalidate(self) -> None:
        """Drop the line's contents."""
        super().invalidate()
        self.l3_state = L3State.INVALID

    def mark_dirty(self) -> None:
        """Mark the line as holding data newer than DRAM."""
        if self.l3_state is L3State.INVALID:
            raise ValueError("cannot dirty an invalid L3 line")
        self.l3_state = L3State.DIRTY

    def mark_clean(self) -> None:
        """Mark the line as matching DRAM (after a write-back)."""
        if self.l3_state is L3State.INVALID:
            raise ValueError("cannot clean an invalid L3 line")
        self.l3_state = L3State.CLEAN

    def __repr__(self) -> str:
        return (
            f"DirectoryLine(tag={self.tag}, state={self.l3_state.value}, "
            f"refresh@{self.last_refresh_cycle})"
        )
