"""Struct-of-arrays backing store for cache state.

:class:`LineArrays` keeps one plain Python list per line field (tag, MESI
state code, valid, dirty, LRU stamp, access/refresh timestamps, WB(n, m)
count) indexed by the global line number ``set_idx * associativity + way``.
Plain lists are deliberate: CPython indexes a list roughly 3x faster than a
numpy array for the single-element reads that dominate the access path,
while slice reads (``valid[a:b]``, ``sum``, ``min``) still run at C speed
for the vectorized refresh-group sweeps.

Invariants: ``valid[i]`` and ``dirty[i]`` are derived from the line's
state (the MESI code of a private cache, the L3 state of an L3 bank) and
are kept in sync by the index methods of :class:`~repro.mem.cache.Cache`,
the only code that writes the state vectors.  For an L3 line ``valid`` and
``dirty`` *are* the L3 state (invalid / valid-clean / valid-dirty), and its
MESI code is bookkeeping only.  The directory entries of an L3 bank live
beside it, in :class:`~repro.coherence.directory.Directory`.
"""

from __future__ import annotations

from typing import List


class LineArrays:
    """Parallel per-field vectors for every line of one cache instance.

    ``tag == -1`` marks a never-filled line and ``refresh_count == -1`` an
    unset WB(n, m) Count.
    """

    __slots__ = (
        "num_lines", "tag", "state", "valid", "dirty",
        "last_access_cycle", "last_refresh_cycle",
        "refresh_count", "lru_stamp",
    )

    def __init__(self, num_lines: int) -> None:
        if num_lines < 1:
            raise ValueError("a cache needs at least one line")
        n = num_lines
        self.num_lines = n
        self.tag: List[int] = [-1] * n
        self.state: List[int] = [0] * n
        self.valid: List[int] = [0] * n
        self.dirty: List[int] = [0] * n
        self.last_access_cycle: List[int] = [0] * n
        self.last_refresh_cycle: List[int] = [0] * n
        self.refresh_count: List[int] = [-1] * n
        self.lru_stamp: List[int] = [0] * n
