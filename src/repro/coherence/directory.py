"""Directory bookkeeping helpers.

The directory lives alongside the L3 tags (Table 5.1): each
:class:`~repro.mem.line.DirectoryLine` records the set of cores that may hold
the block (``sharers``) and the single core, if any, that holds it with write
permission (``owner``).  This module wraps the small state-machine updates on
those fields so the protocol engine reads declaratively and the invariants
can be property-tested in isolation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.mem.line import DirectoryLine


class Directory:
    """Operations on the directory entry embedded in an L3 line."""

    @staticmethod
    def sharers_other_than(line: DirectoryLine, core: int) -> Set[int]:
        """All cores that may hold the block, excluding ``core``."""
        others = set(line.sharers)
        if line.owner is not None:
            others.add(line.owner)
        others.discard(core)
        return others

    @staticmethod
    def is_present_above(line: DirectoryLine) -> bool:
        """True when any upper-level cache may hold a copy of the block."""
        return bool(line.sharers) or line.owner is not None

    @staticmethod
    def record_reader(line: DirectoryLine, core: int) -> bool:
        """Record ``core`` as a sharer; returns True if it got exclusivity.

        A reader is granted an Exclusive copy when nobody else holds the
        block, mirroring the E state optimisation of MESI.  An exclusive
        grantee is recorded as the owner, because it may silently upgrade
        its copy to Modified without informing the directory; the directory
        must therefore consult it before handing the block to anyone else.
        """
        if line.owner == core:
            # The owner re-reading its own block keeps ownership.
            line.sharers.add(core)
            return True
        exclusive = not Directory.is_present_above(line)
        line.sharers.add(core)
        if exclusive:
            line.owner = core
        return exclusive

    @staticmethod
    def record_writer(line: DirectoryLine, core: int) -> None:
        """Record ``core`` as the sole owner after a write request."""
        line.sharers = {core}
        line.owner = core

    @staticmethod
    def clear_owner(line: DirectoryLine, keep_as_sharer: bool = True) -> Optional[int]:
        """Remove the current owner, optionally demoting it to a sharer."""
        owner = line.owner
        line.owner = None
        if owner is not None and keep_as_sharer:
            line.sharers.add(owner)
        return owner

    @staticmethod
    def remove_core(line: DirectoryLine, core: int) -> None:
        """Forget any copy ``core`` may have held (eviction or invalidation)."""
        line.sharers.discard(core)
        if line.owner == core:
            line.owner = None

    @staticmethod
    def remove_cores(line: DirectoryLine, cores: Iterable[int]) -> None:
        """Forget copies held by several cores at once."""
        for core in cores:
            Directory.remove_core(line, core)
