"""Memory structures: cache lines, set-associative caches and DRAM.

Every layer reaches a cache line by its index through the
:class:`~repro.mem.cache.Cache` index API.  Line state is stored in
struct-of-arrays lists (:mod:`repro.mem.arrays`) by default;
``backend="object"`` keeps the original one-object-per-line model
(:mod:`repro.mem.line`) as the test oracle the array layout must match byte
for byte.
"""

from repro.mem.arrays import LineArrays
from repro.mem.cache import Cache
from repro.mem.dram import MainMemory
from repro.mem.line import CacheLine, DirectoryLine, L3State, MESIState

__all__ = [
    "Cache",
    "CacheLine",
    "DirectoryLine",
    "L3State",
    "LineArrays",
    "MESIState",
    "MainMemory",
]
