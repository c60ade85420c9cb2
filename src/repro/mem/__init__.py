"""Memory structures: cache lines, set-associative caches and DRAM.

Cache state is stored in struct-of-arrays lists (:mod:`repro.mem.arrays`)
by default; :class:`~repro.mem.cache.Cache` also keeps the original
one-object-per-line model via ``backend="object"`` as the test oracle the
array layout must match byte for byte.
"""

from repro.mem.arrays import ArrayCacheLine, ArrayDirectoryLine, LineArrays
from repro.mem.cache import Cache, EvictionResult, LookupResult
from repro.mem.dram import MainMemory
from repro.mem.line import CacheLine, DirectoryLine, L3State, MESIState

__all__ = [
    "ArrayCacheLine",
    "ArrayDirectoryLine",
    "Cache",
    "CacheLine",
    "DirectoryLine",
    "EvictionResult",
    "L3State",
    "LineArrays",
    "LookupResult",
    "MESIState",
    "MainMemory",
]
