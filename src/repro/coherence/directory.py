"""The MESI directory of one L3 bank.

The directory lives alongside the L3 tags (Table 5.1): for each line of a
bank it records the set of cores that may hold the block (``sharers``) and
the single core, if any, that holds it with write permission (``owner``).
:class:`Directory` keeps those entries as two vectors indexed like the
bank's cache lines, and its methods are the only code that knows their
format.  The protocol calls :meth:`Directory.clear` wherever it fills or
drops an L3 line, so an entry always describes the block its line holds.
"""

from __future__ import annotations

from typing import List, Optional, Set


class Directory:
    """Directory entries of one L3 bank, indexed by L3 line.

    ``owner[i] == -1`` means no owner.  A sharer set is created only when a
    core is first recorded at its line (``sharers[i]`` is None until then),
    so a fresh bank allocates no per-line sets.
    """

    __slots__ = ("sharers", "owner")

    def __init__(self, num_lines: int) -> None:
        self.sharers: List[Optional[Set[int]]] = [None] * num_lines
        self.owner: List[int] = [-1] * num_lines

    def _sharer_set(self, index: int) -> Set[int]:
        sharers = self.sharers[index]
        if sharers is None:
            sharers = self.sharers[index] = set()
        return sharers

    def _holder_set(self, index: int) -> Set[int]:
        sharers = self.sharers[index]
        holders = set(sharers) if sharers else set()
        owner = self.owner[index]
        if owner >= 0:
            holders.add(owner)
        return holders

    def holders(self, index: int) -> List[int]:
        """Cores the entry at ``index`` lists (sharers and owner), ascending."""
        return sorted(self._holder_set(index))

    def sharers_other_than(self, index: int, core: int) -> Set[int]:
        """All cores that may hold the block at ``index``, excluding ``core``."""
        others = self._holder_set(index)
        others.discard(core)
        return others

    def record_reader(self, index: int, core: int) -> bool:
        """Record ``core`` as a sharer; returns True if it got exclusivity.

        A reader is granted an Exclusive copy when nobody else holds the
        block, mirroring the E state optimisation of MESI.  An exclusive
        grantee is recorded as the owner, because it may silently upgrade
        its copy to Modified without informing the directory; the directory
        must therefore consult it before handing the block to anyone else.
        """
        sharers = self._sharer_set(index)
        owner = self.owner[index]
        if owner == core:
            # The owner re-reading its own block keeps ownership.
            sharers.add(core)
            return True
        exclusive = not sharers and owner < 0
        sharers.add(core)
        if exclusive:
            self.owner[index] = core
        return exclusive

    def record_writer(self, index: int, core: int) -> None:
        """Record ``core`` as the sole owner after a write request."""
        self.sharers[index] = {core}
        self.owner[index] = core

    def clear_owner(self, index: int) -> None:
        """Demote the current owner, if any, to a plain sharer."""
        owner = self.owner[index]
        if owner >= 0:
            self.owner[index] = -1
            self._sharer_set(index).add(owner)

    def remove_core(self, index: int, core: int) -> None:
        """Forget any copy ``core`` may have held (eviction or invalidation)."""
        sharers = self.sharers[index]
        if sharers is not None:
            sharers.discard(core)
        if self.owner[index] == core:
            self.owner[index] = -1

    def clear(self, index: int) -> None:
        """Empty the entry at ``index`` (its L3 line was filled or dropped)."""
        self.sharers[index] = None
        self.owner[index] = -1
