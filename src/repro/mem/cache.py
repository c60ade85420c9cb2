"""Set-associative cache array with LRU replacement.

The :class:`Cache` is a pure storage structure: it finds, fills, touches and
evicts lines, and it exposes its lines to the refresh controllers (which walk
refresh groups, or act on individual lines when their Sentry bit fires).  All
protocol behaviour -- what to do on a miss, coherence actions, write-backs --
lives in :mod:`repro.hierarchy` and :mod:`repro.coherence` so that the same
array is reused by every level.

Every caller reaches a line by its global index ``set_idx * ways + way``:
:meth:`~Cache.probe_index` and :meth:`~Cache.access_index` find a block,
:meth:`~Cache.choose_victim_index` and :meth:`~Cache.fill_index` replace
one, and the state is read and written through ``valid_at`` / ``dirty_at``
/ ``state_code`` (integer MESI codes) and the other ``*_index`` mutators.
A lookup is a few list reads and integer compares, with no per-access
allocation.

Two storage backends sit behind this one API (see :data:`CACHE_BACKENDS`):

* ``backend="array"`` (the default) keeps all line state in the
  struct-of-arrays lists of :class:`~repro.mem.arrays.LineArrays`, so
  building a cache costs a handful of lists whatever its line count.  The
  refresh controllers sweep those vectors directly.
* ``backend="object"`` preserves the original one-object-per-line model
  (:class:`~repro.mem.line.CacheLine` / ``DirectoryLine``).  It is the test
  oracle: an independent implementation the array backend must match byte
  for byte in simulation results.  ``Cache(..., backend="object")`` returns
  an :class:`_ObjectCache`, whose index methods act on the line objects and
  whose :meth:`_ObjectCache.line` hands one to the refresh controllers'
  ``decide()`` walk.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config.parameters import CacheGeometry
from repro.mem.arrays import LineArrays
from repro.mem.line import (
    CacheLine,
    DirectoryLine,
    MESI_CODES,
    MESI_MODIFIED,
    MESI_STATES,
)

#: Cache storage models: the struct-of-arrays layout and the original
#: one-object-per-line model kept as the test oracle.
CACHE_BACKENDS = ("array", "object")


class Cache:
    """One physical cache instance (a private cache or a single L3 bank).

    For a banked cache (the shared L3), consecutive blocks are interleaved
    across banks, so the bank-selection bits must be stripped from the block
    number before indexing the sets -- otherwise a bank would only ever use
    the handful of sets its own residue class maps to.  ``index_interleave``
    is the number of banks and ``index_offset`` this bank's residue; private
    caches leave both at their defaults.

    ``backend`` selects the storage model ("array" or "object").
    ``directory=True`` makes it an L3 bank: its lines follow the L3 state
    machine (a fill is valid-clean whatever its MESI code, and
    :meth:`mark_dirty_index` / :meth:`mark_clean_index` move it).
    """

    def __new__(
        cls,
        geometry: CacheGeometry,
        name: Optional[str] = None,
        index_interleave: int = 1,
        index_offset: int = 0,
        backend: str = "array",
        directory: bool = False,
    ) -> "Cache":
        # The object backend overrides the index methods in a subclass:
        # bound methods stored on the instance would make every cache a
        # reference cycle, leaving it (and its thousands of line objects)
        # to the cyclic garbage collector.
        if backend == "object":
            cls = _ObjectCache
        return super().__new__(cls)

    def __init__(
        self,
        geometry: CacheGeometry,
        name: Optional[str] = None,
        index_interleave: int = 1,
        index_offset: int = 0,
        backend: str = "array",
        directory: bool = False,
    ) -> None:
        if index_interleave < 1:
            raise ValueError("index_interleave must be >= 1")
        if not 0 <= index_offset < index_interleave:
            raise ValueError("index_offset must lie in [0, index_interleave)")
        if backend not in CACHE_BACKENDS:
            raise ValueError(
                f"unknown cache backend {backend!r}; expected one of {CACHE_BACKENDS}"
            )
        self.geometry = geometry
        self.name = name if name is not None else geometry.name
        self.index_interleave = index_interleave
        self.index_offset = index_offset
        self.backend = backend
        self.directory = directory
        self.access_cycles = geometry.access_cycles
        self._assoc = geometry.associativity
        self._num_sets = geometry.num_sets
        self._lru_tick = 0
        # Address decomposition: line size and set count are powers of two,
        # so the set/tag split is shifts and masks (the interleave factor is
        # not guaranteed to be a power of two and keeps a division).
        self._line_shift = geometry.line_bytes.bit_length() - 1
        self._set_mask = self._num_sets - 1
        self._set_shift = self._num_sets.bit_length() - 1

        if backend == "array":
            self.arrays: Optional[LineArrays] = LineArrays(geometry.num_lines)
        else:
            self.arrays = None
            line_class = DirectoryLine if directory else CacheLine
            self._lines = [line_class() for _ in range(geometry.num_lines)]

        # Refresh blocking state.  ``busy_until`` blocks the whole array
        # (used for the short Refrint interrupt bursts); ``group_busy_until``
        # blocks a single refresh group / sub-array (used by the periodic
        # policy, which refreshes one sub-array at a time while the others
        # remain accessible).  Plain accesses arriving earlier are delayed.
        # ``busy_horizon`` is a monotone upper bound over both, letting the
        # protocol skip the full wait computation while nothing is blocked.
        self.busy_horizon: int = 0
        self._busy_until: int = 0
        self.group_busy_until: List[int] = [0] * geometry.num_refresh_groups
        self._sets_per_group = max(1, geometry.num_sets // geometry.num_refresh_groups)

    # -- basic queries -------------------------------------------------------

    @property
    def num_sets(self) -> int:
        """Number of sets in this cache."""
        return self.geometry.num_sets

    @property
    def num_lines(self) -> int:
        """Total number of lines in this cache."""
        return self.geometry.num_lines

    @property
    def busy_until(self) -> int:
        """Cycle until which the whole array is blocked by refresh work."""
        return self._busy_until

    @busy_until.setter
    def busy_until(self, value: int) -> None:
        self._busy_until = value
        if value > self.busy_horizon:
            self.busy_horizon = value

    def set_and_tag(self, block_address: int) -> Tuple[int, int]:
        """Return (set index, tag) for a block address."""
        local_number = block_address >> self._line_shift
        if self.index_interleave > 1:
            local_number //= self.index_interleave
        return local_number & self._set_mask, local_number >> self._set_shift

    def refresh_group_of_set(self, set_idx: int) -> int:
        """The refresh group (sub-array) a set belongs to."""
        return min(
            set_idx // self._sets_per_group, self.geometry.num_refresh_groups - 1
        )

    def wait_cycles(self, block_address: int, cycle: int) -> int:
        """Cycles an access arriving at ``cycle`` must wait for refresh work.

        The access waits for whichever is later: a whole-array block (Refrint
        interrupt burst in progress) or a block on the sub-array its set maps
        to (periodic group pass in progress).
        """
        if cycle >= self.busy_horizon:
            return 0
        set_idx, _ = self.set_and_tag(block_address)
        group = self.refresh_group_of_set(set_idx)
        busy = max(self._busy_until, self.group_busy_until[group])
        return max(0, busy - cycle)

    def block_group(self, group: int, until: int) -> None:
        """Mark one refresh group as busy until the given cycle."""
        if not 0 <= group < self.geometry.num_refresh_groups:
            raise ValueError(f"no refresh group {group}")
        self.group_busy_until[group] = max(self.group_busy_until[group], until)
        if until > self.busy_horizon:
            self.busy_horizon = until

    def block_address_at(self, index: int) -> int:
        """Reconstruct the byte block address stored at a line index."""
        tag = self._tag_at(index)
        if tag < 0:
            raise ValueError("line has never been filled")
        local_number = tag * self._num_sets + (index // self._assoc)
        block_number = local_number * self.index_interleave + self.index_offset
        return block_number << self._line_shift

    # -- the index API (array backend; _ObjectCache overrides it) -------------

    def _tag_at(self, index: int) -> int:
        return self.arrays.tag[index]

    def probe_index(self, block_address: int) -> int:
        """Line index holding a block, or -1; replacement state untouched."""
        local = block_address >> self._line_shift
        if self.index_interleave > 1:
            local //= self.index_interleave
        tag = local >> self._set_shift
        arrays = self.arrays
        tags = arrays.tag
        valid = arrays.valid
        base = (local & self._set_mask) * self._assoc
        for index in range(base, base + self._assoc):
            if tags[index] == tag and valid[index]:
                return index
        return -1

    def access_index(self, block_address: int, cycle: int) -> int:
        """Find a block and, on a hit, touch LRU + refresh.

        Returns the hit line's index, or -1 on a miss.  This is the
        protocol's per-access entry point: index arithmetic over the state
        vectors, no allocation.
        """
        local = block_address >> self._line_shift
        if self.index_interleave > 1:
            local //= self.index_interleave
        tag = local >> self._set_shift
        arrays = self.arrays
        tags = arrays.tag
        valid = arrays.valid
        base = (local & self._set_mask) * self._assoc
        for index in range(base, base + self._assoc):
            if tags[index] == tag and valid[index]:
                arrays.last_access_cycle[index] = cycle
                arrays.last_refresh_cycle[index] = cycle
                arrays.refresh_count[index] = -1
                tick = self._lru_tick + 1
                self._lru_tick = tick
                arrays.lru_stamp[index] = tick
                return index
        return -1

    def choose_victim_index(self, block_address: int) -> int:
        """Index of the LRU victim in the block's set (invalid ways first)."""
        local = block_address >> self._line_shift
        if self.index_interleave > 1:
            local //= self.index_interleave
        base = (local & self._set_mask) * self._assoc
        arrays = self.arrays
        valid = arrays.valid
        stamps = arrays.lru_stamp
        victim = base
        best = None
        for index in range(base, base + self._assoc):
            if not valid[index]:
                return index
            stamp = stamps[index]
            if best is None or stamp < best:
                best = stamp
                victim = index
        return victim

    def fill_index(
        self, index: int, block_address: int, state_code: int, cycle: int
    ) -> None:
        """Install a block at a (victim) line index.

        The caller is responsible for having handled the victim's write-back
        and coherence clean-up *before* filling.
        """
        local = block_address >> self._line_shift
        if self.index_interleave > 1:
            local //= self.index_interleave
        arrays = self.arrays
        arrays.tag[index] = local >> self._set_shift
        arrays.state[index] = state_code
        arrays.last_access_cycle[index] = cycle
        arrays.last_refresh_cycle[index] = cycle
        arrays.refresh_count[index] = -1
        if self.directory:
            # An L3 fill is valid-clean; the MESI code is bookkeeping only.
            arrays.valid[index] = 1
            arrays.dirty[index] = 0
        else:
            arrays.valid[index] = 1 if state_code else 0
            arrays.dirty[index] = 1 if state_code == MESI_MODIFIED else 0
        tick = self._lru_tick + 1
        self._lru_tick = tick
        arrays.lru_stamp[index] = tick

    def fill_block(self, block_address: int, state_code: int, cycle: int) -> int:
        """Choose a victim and fill in one step (clean-victim caches)."""
        index = self.choose_victim_index(block_address)
        self.fill_index(index, block_address, state_code, cycle)
        return index

    def invalidate_index(self, index: int) -> None:
        """Drop the contents of the line at a global index."""
        arrays = self.arrays
        arrays.state[index] = 0
        arrays.refresh_count[index] = -1
        arrays.valid[index] = 0
        arrays.dirty[index] = 0

    def state_code(self, index: int) -> int:
        """MESI state code of the line at ``index``."""
        return self.arrays.state[index]

    def set_state_code(self, index: int, code: int) -> None:
        """Set the MESI state of a private-cache line by code."""
        arrays = self.arrays
        arrays.state[index] = code
        arrays.valid[index] = 1 if code else 0
        arrays.dirty[index] = 1 if code == MESI_MODIFIED else 0

    def valid_at(self, index: int) -> bool:
        """True when the line at ``index`` holds usable data."""
        return bool(self.arrays.valid[index])

    def dirty_at(self, index: int) -> bool:
        """True when the line at ``index`` is dirty."""
        return bool(self.arrays.dirty[index])

    def refresh_index(self, index: int, cycle: int) -> None:
        """Record an explicit refresh of the line at ``index`` (Count kept)."""
        self.arrays.last_refresh_cycle[index] = cycle

    def touch_index(self, index: int, cycle: int) -> None:
        """Record a normal access to the line at ``index`` without touching
        LRU: its cells are recharged and its WB(n, m) Count is reset."""
        arrays = self.arrays
        arrays.last_access_cycle[index] = cycle
        arrays.last_refresh_cycle[index] = cycle
        arrays.refresh_count[index] = -1

    def mark_dirty_index(self, index: int) -> None:
        """Mark the valid L3 line at ``index`` as newer than DRAM."""
        self.arrays.dirty[index] = 1

    def mark_clean_index(self, index: int) -> None:
        """Mark the valid L3 line at ``index`` as matching DRAM."""
        self.arrays.dirty[index] = 0

    # -- refresh groups --------------------------------------------------------

    def refresh_group_line_range(self, group: int) -> Tuple[int, int]:
        """Contiguous ``[start, end)`` global line range of one refresh group.

        Groups partition the cache by consecutive sets, so their lines are
        contiguous in the global index order -- which is what lets the
        refresh controllers sweep a group with slice operations.
        """
        num_groups = self.geometry.num_refresh_groups
        if not 0 <= group < num_groups:
            raise ValueError(f"group {group} out of range 0..{num_groups - 1}")
        sets_per_group = self._sets_per_group
        start_set = min(group * sets_per_group, self._num_sets)
        end_set = self._num_sets if group == num_groups - 1 else min(
            start_set + sets_per_group, self._num_sets
        )
        return start_set * self._assoc, end_set * self._assoc

    def count_valid(self) -> int:
        """Number of valid lines currently held."""
        return len(self.valid_indices_in_range(0, self.geometry.num_lines))

    # -- vectorized sweeps for the refresh controllers -------------------------

    def bulk_refresh_range(
        self,
        start: int,
        end: int,
        cycle: int,
        retention_cycles: int,
        include_invalid: bool,
    ) -> Tuple[int, int]:
        """Refresh every line in ``[start, end)`` in one slice operation.

        Mirrors a periodic pass under the All (``include_invalid=True``) or
        Valid policy: valid lines (and, for All, invalid ones) are refreshed,
        skipped invalid lines still get their refresh timestamp advanced so
        lazy sentry timers do not keep finding them due.  Returns
        ``(lines processed, decay violations among valid lines)``.
        """
        arrays = self.arrays
        valid = arrays.valid
        refreshed = arrays.last_refresh_cycle
        num_valid = sum(valid[start:end])
        violations = 0
        limit = cycle - retention_cycles
        if num_valid and min(refreshed[start:end]) < limit:
            violations = sum(
                1 for i in range(start, end) if valid[i] and refreshed[i] < limit
            )
        refreshed[start:end] = [cycle] * (end - start)
        processed = (end - start) if include_invalid else num_valid
        return processed, violations

    def valid_indices_in_range(self, start: int, end: int) -> List[int]:
        """Indices of valid lines in ``[start, end)``."""
        valid = self.arrays.valid
        return [i for i in range(start, end) if valid[i]]

    def dirty_indices(self) -> List[int]:
        """Global indices of all dirty lines, in line order."""
        return [i for i, dirty in enumerate(self.arrays.dirty) if dirty]

    def __repr__(self) -> str:
        return (
            f"Cache(name={self.name!r}, sets={self.num_sets}, "
            f"ways={self.geometry.associativity}, valid={self.count_valid()}, "
            f"backend={self.backend!r})"
        )


class _ObjectCache(Cache):
    """The one-object-per-line backend (``Cache(..., backend="object")``).

    Its index methods are transliterations of the original per-line-object
    code, acting on the line objects that are the storage; everything else
    is inherited from :class:`Cache`.
    """

    def line(self, index: int) -> CacheLine:
        """The line object at ``index``, for the refresh controllers'
        ``decide()`` walk."""
        return self._lines[index]

    def _tag_at(self, index: int) -> int:
        tag = self._lines[index].tag
        return -1 if tag is None else tag

    def probe_index(self, block_address: int) -> int:
        set_idx, tag = self.set_and_tag(block_address)
        base = set_idx * self._assoc
        lines = self._lines
        for index in range(base, base + self._assoc):
            line = lines[index]
            if line.valid and line.tag == tag:
                return index
        return -1

    def access_index(self, block_address: int, cycle: int) -> int:
        index = self.probe_index(block_address)
        if index >= 0:
            line = self._lines[index]
            line.touch(cycle)
            tick = self._lru_tick + 1
            self._lru_tick = tick
            line.lru_stamp = tick
        return index

    def choose_victim_index(self, block_address: int) -> int:
        set_idx, _ = self.set_and_tag(block_address)
        base = set_idx * self._assoc
        ways = self._lines[base:base + self._assoc]
        for way, line in enumerate(ways):
            if not line.valid:
                return base + way
        victim_way = min(range(self._assoc), key=lambda w: ways[w].lru_stamp)
        return base + victim_way

    def fill_index(
        self, index: int, block_address: int, state_code: int, cycle: int
    ) -> None:
        _, tag = self.set_and_tag(block_address)
        line = self._lines[index]
        line.fill(tag, MESI_STATES[state_code], cycle)
        tick = self._lru_tick + 1
        self._lru_tick = tick
        line.lru_stamp = tick

    def invalidate_index(self, index: int) -> None:
        self._lines[index].invalidate()

    def state_code(self, index: int) -> int:
        return MESI_CODES[self._lines[index].state]

    def set_state_code(self, index: int, code: int) -> None:
        self._lines[index].state = MESI_STATES[code]

    def valid_at(self, index: int) -> bool:
        return self._lines[index].valid

    def dirty_at(self, index: int) -> bool:
        return self._lines[index].dirty

    def refresh_index(self, index: int, cycle: int) -> None:
        self._lines[index].refresh(cycle)

    def touch_index(self, index: int, cycle: int) -> None:
        self._lines[index].touch(cycle)

    def mark_dirty_index(self, index: int) -> None:
        self._lines[index].mark_dirty()

    def mark_clean_index(self, index: int) -> None:
        self._lines[index].mark_clean()

    def bulk_refresh_range(
        self,
        start: int,
        end: int,
        cycle: int,
        retention_cycles: int,
        include_invalid: bool,
    ) -> Tuple[int, int]:
        processed = 0
        violations = 0
        for i in range(start, end):
            line = self._lines[i]
            if line.valid:
                if line.is_expired(cycle, retention_cycles):
                    violations += 1
                line.refresh(cycle)
                processed += 1
            elif include_invalid:
                line.refresh(cycle)
                processed += 1
            else:
                line.last_refresh_cycle = cycle
        return processed, violations

    def refresh_due_indices(
        self, start: int, end: int, cutoff: int, include_invalid: bool
    ) -> List[int]:
        """Line indices in ``[start, end)`` whose last refresh is <= cutoff.

        The Refrint walk's Sentry-decay compare: a line's sentry has fired
        by cycle ``c`` exactly when its last refresh happened at or before
        ``c - sentry_retention``.
        """
        lines = self._lines
        return [
            i for i in range(start, end)
            if (include_invalid or lines[i].valid)
            and lines[i].last_refresh_cycle <= cutoff
        ]

    def min_last_refresh(
        self, start: int, end: int, include_invalid: bool
    ) -> Optional[int]:
        """Earliest last-refresh cycle in ``[start, end)`` (None when empty)."""
        stamps = [
            line.last_refresh_cycle
            for line in self._lines[start:end]
            if include_invalid or line.valid
        ]
        return min(stamps) if stamps else None

    def valid_indices_in_range(self, start: int, end: int) -> List[int]:
        lines = self._lines
        return [i for i in range(start, end) if lines[i].valid]

    def dirty_indices(self) -> List[int]:
        return [i for i, line in enumerate(self._lines) if line.dirty]
