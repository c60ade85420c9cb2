"""Set-associative cache array with LRU replacement.

The :class:`Cache` is a pure storage structure: it finds, fills, touches and
evicts lines, and it exposes its lines to the refresh controllers (which walk
refresh groups, or act on individual lines when their Sentry bit fires).  All
protocol behaviour -- what to do on a miss, coherence actions, write-backs --
lives in :mod:`repro.hierarchy` and :mod:`repro.coherence` so that the same
array is reused by every level.

Two storage backends share this one class (see :data:`CACHE_BACKENDS`):

* ``backend="array"`` (the default) keeps all line state in the
  struct-of-arrays lists of :class:`~repro.mem.arrays.LineArrays`.  The
  *staged* access API (:meth:`probe_index`, :meth:`access_index`,
  :meth:`choose_victim_index`, :meth:`fill_index`, ...) works in plain line
  indices -- a lookup is a few list reads and integer compares, with no
  per-access object allocation.  Thin :class:`~repro.mem.arrays.ArrayCacheLine`
  views keep the object interface alive for the directory's sharer sets,
  the refresh policies and the tests; :meth:`Cache.view` builds a line's
  view the first time it is asked for, so building a cache costs a handful
  of lists whatever its line count.
* ``backend="object"`` preserves the original one-object-per-line model.
  It is the test oracle: an independent implementation the array backend
  must match byte for byte in simulation results.  ``Cache(...,
  backend="object")`` returns a :class:`_ObjectCache`, the subclass whose
  staged methods walk the line objects.

The compatibility API (:meth:`lookup`, :meth:`access`, :meth:`fill`,
:meth:`choose_victim`, iteration helpers) behaves identically on both
backends; the staged API is what the protocol's hot path uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.config.parameters import CacheGeometry
from repro.mem.arrays import ArrayCacheLine, ArrayDirectoryLine, LineArrays
from repro.mem.line import (
    CacheLine,
    DirectoryLine,
    MESI_CODES,
    MESI_MODIFIED,
    MESI_STATES,
    MESIState,
)

#: Cache storage models: the struct-of-arrays layout and the original
#: one-object-per-line model kept as the test oracle.
CACHE_BACKENDS = ("array", "object")


def _resolve_backend(backend: Optional[str], line_factory) -> str:
    """The storage model a cache is built with; an explicit
    ``line_factory`` implies the object backend."""
    if backend is None:
        backend = "object" if line_factory is not None else "array"
    if backend not in CACHE_BACKENDS:
        raise ValueError(
            f"unknown cache backend {backend!r}; expected one of {CACHE_BACKENDS}"
        )
    return backend


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a lookup: the line (if present) and its location."""

    hit: bool
    line: Optional[CacheLine]
    set_idx: int
    way: Optional[int]


@dataclass(frozen=True)
class EvictionResult:
    """A victim chosen for replacement.

    Attributes:
        line: the victim line object (still holding the victim's tag/state;
            the caller handles write-back / directory clean-up, then fills).
        block_address: byte block address reconstructed from the victim tag.
        was_valid: True when a real block was displaced.
        was_dirty: True when the displaced block held dirty data.
        index: global line index of the victim (``set_idx * ways + way``),
            for callers on the staged path.
    """

    line: CacheLine
    block_address: int
    was_valid: bool
    was_dirty: bool
    index: int = -1


class Cache:
    """One physical cache instance (a private cache or a single L3 bank).

    For a banked cache (the shared L3), consecutive blocks are interleaved
    across banks, so the bank-selection bits must be stripped from the block
    number before indexing the sets -- otherwise a bank would only ever use
    the handful of sets its own residue class maps to.  ``index_interleave``
    is the number of banks and ``index_offset`` this bank's residue; private
    caches leave both at their defaults.

    ``backend`` selects the storage model ("array" or "object"); passing an
    explicit ``line_factory`` implies the object backend (the factory's
    instances *are* the storage).  ``directory=True`` gives the array
    backend L3 directory state per line.
    """

    def __new__(
        cls,
        geometry: CacheGeometry,
        line_factory: Optional[Callable[[], CacheLine]] = None,
        name: Optional[str] = None,
        index_interleave: int = 1,
        index_offset: int = 0,
        backend: Optional[str] = None,
        directory: bool = False,
    ) -> "Cache":
        # The object backend overrides the staged methods in a subclass:
        # bound methods stored on the instance would make every cache a
        # reference cycle, leaving it (and its thousands of line objects)
        # to the cyclic garbage collector.
        if _resolve_backend(backend, line_factory) == "object":
            cls = _ObjectCache
        return super().__new__(cls)

    def __init__(
        self,
        geometry: CacheGeometry,
        line_factory: Optional[Callable[[], CacheLine]] = None,
        name: Optional[str] = None,
        index_interleave: int = 1,
        index_offset: int = 0,
        backend: Optional[str] = None,
        directory: bool = False,
    ) -> None:
        if index_interleave < 1:
            raise ValueError("index_interleave must be >= 1")
        if not 0 <= index_offset < index_interleave:
            raise ValueError("index_offset must lie in [0, index_interleave)")
        backend = _resolve_backend(backend, line_factory)
        self.geometry = geometry
        self.name = name if name is not None else geometry.name
        self.index_interleave = index_interleave
        self.index_offset = index_offset
        self.backend = backend
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
            self.directory = directory
            self.arrays: Optional[LineArrays] = LineArrays(
                geometry.num_lines, directory=directory
            )
            self._view_cls = ArrayDirectoryLine if directory else ArrayCacheLine
            # Filled in by view() on first use.
            self._views: List[Optional[CacheLine]] = [None] * geometry.num_lines
        else:
            factory = line_factory if line_factory is not None else (
                DirectoryLine if directory else CacheLine
            )
            self._views = [factory() for _ in range(geometry.num_lines)]
            self.directory = bool(self._views) and isinstance(
                self._views[0], DirectoryLine
            )
            self.arrays = None

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

    def set_of_index(self, index: int) -> int:
        """The set a global line index belongs to."""
        return index // self._assoc

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
        if self.arrays is not None:
            tag = self.arrays.tag[index]
            if tag < 0:
                raise ValueError("line has never been filled")
        else:
            line_tag = self.view(index).tag
            if line_tag is None:
                raise ValueError("line has never been filled")
            tag = line_tag
        local_number = tag * self._num_sets + (index // self._assoc)
        block_number = local_number * self.index_interleave + self.index_offset
        return block_number << self._line_shift

    def block_address_of(self, set_idx: int, line: CacheLine) -> int:
        """Reconstruct the byte block address stored in ``line``."""
        if line.tag is None:
            raise ValueError("line has never been filled")
        local_number = line.tag * self._num_sets + set_idx
        block_number = local_number * self.index_interleave + self.index_offset
        return block_number << self._line_shift

    # -- staged fast path (array backend; _ObjectCache overrides it) ----------

    def view(self, index: int) -> CacheLine:
        """The persistent line view (or line object) at a global index.

        On the array backend the view is built on the first call for its
        line and the same object is returned from then on.
        """
        view = self._views[index]
        if view is None:
            view = self._views[index] = self._view_cls(self.arrays, index)
        return view

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
        """Staged access: find a block and, on a hit, touch LRU + refresh.

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
        if arrays.directory:
            # DirectoryLine.fill: fresh CLEAN line with an empty directory
            # entry; the MESI argument is bookkeeping only.
            arrays.l3_state[index] = 1
            arrays.valid[index] = 1
            arrays.dirty[index] = 0
            arrays.sharers[index] = None
            arrays.owner[index] = -1
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
        if arrays.directory:
            arrays.l3_state[index] = 0
            arrays.sharers[index] = None
            arrays.owner[index] = -1

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

    # -- compatibility API (shared by both backends) ---------------------------

    def lookup(self, block_address: int) -> LookupResult:
        """Find a block without modifying replacement or refresh state."""
        return self._lookup_result(block_address, self.probe_index(block_address))

    def probe(self, block_address: int) -> Optional[CacheLine]:
        """Return the line holding ``block_address`` if present, else None."""
        index = self.probe_index(block_address)
        return self.view(index) if index >= 0 else None

    def access(self, block_address: int, cycle: int) -> LookupResult:
        """Look up a block and, on a hit, update LRU and refresh the cells."""
        return self._lookup_result(
            block_address, self.access_index(block_address, cycle)
        )

    def _lookup_result(self, block_address: int, index: int) -> LookupResult:
        set_idx, _ = self.set_and_tag(block_address)
        if index < 0:
            return LookupResult(hit=False, line=None, set_idx=set_idx, way=None)
        return LookupResult(
            hit=True,
            line=self.view(index),
            set_idx=set_idx,
            way=index - set_idx * self._assoc,
        )

    # -- fills and evictions --------------------------------------------------

    def choose_victim(self, block_address: int) -> EvictionResult:
        """Pick the LRU victim in the block's set (preferring invalid ways)."""
        index = self.choose_victim_index(block_address)
        line = self.view(index)
        block = self.block_address_at(index) if line.tag is not None else 0
        return EvictionResult(
            line=line,
            block_address=block,
            was_valid=line.valid,
            was_dirty=line.dirty,
            index=index,
        )

    def fill(
        self,
        block_address: int,
        state: MESIState,
        cycle: int,
        victim: Optional[EvictionResult] = None,
    ) -> CacheLine:
        """Install a block (using ``victim`` if provided, else choosing one).

        The caller is responsible for having handled the victim's write-back
        and coherence clean-up *before* calling fill.
        """
        if victim is not None and victim.index >= 0:
            index = victim.index
        else:
            index = self.choose_victim_index(block_address)
        self.fill_index(index, block_address, MESI_CODES[state], cycle)
        return self.view(index)

    def invalidate(self, block_address: int) -> Optional[CacheLine]:
        """Invalidate the line holding ``block_address`` if present."""
        index = self.probe_index(block_address)
        if index < 0:
            return None
        self.invalidate_index(index)
        return self.view(index)

    # -- iteration for the refresh machinery ----------------------------------

    def iter_lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield (set index, line) for every line in the cache."""
        assoc = self._assoc
        for index in range(self.geometry.num_lines):
            yield index // assoc, self.view(index)

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

    def lines_in_refresh_group(self, group: int) -> Sequence[Tuple[int, CacheLine]]:
        """Lines belonging to periodic-refresh group ``group``.

        Groups partition the cache by consecutive sets, mimicking the
        per-sub-array grouping the paper takes from CACTI.
        """
        start, end = self.refresh_group_line_range(group)
        assoc = self._assoc
        return [(index // assoc, self.view(index)) for index in range(start, end)]

    def valid_lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield (set index, line) for every valid line."""
        assoc = self._assoc
        for index in self.valid_indices_in_range(0, self.geometry.num_lines):
            yield index // assoc, self.view(index)

    def count_valid(self) -> int:
        """Number of valid lines currently held."""
        if self.arrays is not None:
            return sum(self.arrays.valid)
        return sum(1 for _ in self.valid_lines())

    def count_dirty(self) -> int:
        """Number of dirty lines currently held."""
        if self.arrays is not None:
            return sum(self.arrays.dirty)
        return sum(1 for _, line in self.iter_lines() if line.dirty)

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

    def refresh_due_indices(
        self, start: int, end: int, cutoff: int, include_invalid: bool
    ) -> List[int]:
        """Line indices in ``[start, end)`` whose last refresh is <= cutoff.

        This is the Refrint controller's vectorized Sentry-decay compare:
        a line's sentry has fired by cycle ``c`` exactly when its last
        refresh happened at or before ``c - sentry_retention``.
        """
        arrays = self.arrays
        refreshed = arrays.last_refresh_cycle
        if include_invalid:
            return [i for i in range(start, end) if refreshed[i] <= cutoff]
        valid = arrays.valid
        return [
            i for i in range(start, end) if valid[i] and refreshed[i] <= cutoff
        ]

    def min_last_refresh(
        self, start: int, end: int, include_invalid: bool
    ) -> Optional[int]:
        """Earliest last-refresh cycle in ``[start, end)`` (None when empty)."""
        arrays = self.arrays
        refreshed = arrays.last_refresh_cycle
        if include_invalid:
            return min(refreshed[start:end])
        valid = arrays.valid
        earliest: Optional[int] = None
        for i in range(start, end):
            if valid[i]:
                stamp = refreshed[i]
                if earliest is None or stamp < earliest:
                    earliest = stamp
        return earliest

    def valid_indices_in_range(self, start: int, end: int) -> List[int]:
        """Indices of valid lines in ``[start, end)``."""
        valid = self.arrays.valid
        return [i for i in range(start, end) if valid[i]]

    def stamp_invalid_range(self, start: int, end: int, cycle: int) -> None:
        """Advance the refresh timestamp of invalid lines in ``[start, end)``.

        The periodic controller's SKIP semantics for data policies that act
        per line (Dirty, WB): nothing is read or written, but lazy sentry
        timers must not keep finding the same invalid line due.
        """
        arrays = self.arrays
        valid = arrays.valid
        refreshed = arrays.last_refresh_cycle
        for i in range(start, end):
            if not valid[i]:
                refreshed[i] = cycle

    def dirty_indices(self) -> List[int]:
        """Global indices of all dirty lines, in line order."""
        return [i for i, dirty in enumerate(self.arrays.dirty) if dirty]

    # -- staged per-line refresh ticks (array backend only) ---------------------
    #
    # The refresh controllers use these to process a *due* line without
    # materialising its view or a PolicyDecision; the object backend keeps
    # the original per-line-object policy walk instead (the controllers
    # dispatch on ``cache.arrays``).

    def refresh_line_checked(self, index: int, cycle: int, retention_cycles: int) -> int:
        """Recharge one line's cells; returns 1 if it had already decayed.

        The decay check only applies to valid lines (an invalid line holds
        nothing worth protecting), mirroring the controller's sanity check.
        """
        arrays = self.arrays
        violation = (
            1
            if arrays.valid[index]
            and arrays.last_refresh_cycle[index] < cycle - retention_cycles
            else 0
        )
        arrays.last_refresh_cycle[index] = cycle
        return violation

    def wb_tick(
        self,
        index: int,
        cycle: int,
        retention_cycles: int,
        dirty_budget: int,
        clean_budget: int,
    ) -> int:
        """One WB(n, m) refresh opportunity for a valid line (Fig. 4.1).

        If the line still has Count budget it is refreshed and its Count
        decremented; returns the decay-violation flag (0/1).  Returns -1
        when the budget is exhausted and the controller must take the slow
        write-back / invalidate path through the line view.
        """
        arrays = self.arrays
        count = arrays.refresh_count[index]
        if count < 0:
            count = dirty_budget if arrays.dirty[index] else clean_budget
        if count >= 1:
            violation = (
                1
                if arrays.last_refresh_cycle[index] < cycle - retention_cycles
                else 0
            )
            arrays.last_refresh_cycle[index] = cycle
            arrays.refresh_count[index] = count - 1
            return violation
        return -1

    def __repr__(self) -> str:
        return (
            f"Cache(name={self.name!r}, sets={self.num_sets}, "
            f"ways={self.geometry.associativity}, valid={self.count_valid()}, "
            f"backend={self.backend!r})"
        )


class _ObjectCache(Cache):
    """The one-object-per-line backend (``Cache(..., backend="object")``).

    Its staged and sweep methods are transliterations of the original
    per-line-object code, walking the line objects that are the storage;
    everything else is inherited from :class:`Cache`.
    """

    def lookup(self, block_address: int) -> LookupResult:
        """Find a block without modifying replacement or refresh state."""
        set_idx, tag = self.set_and_tag(block_address)
        base = set_idx * self._assoc
        for way in range(self._assoc):
            line = self._views[base + way]
            if line.valid and line.tag == tag:
                return LookupResult(hit=True, line=line, set_idx=set_idx, way=way)
        return LookupResult(hit=False, line=None, set_idx=set_idx, way=None)

    def probe_index(self, block_address: int) -> int:
        result = self.lookup(block_address)
        if not result.hit:
            return -1
        return result.set_idx * self._assoc + result.way

    def access_index(self, block_address: int, cycle: int) -> int:
        # The original access path, result dataclass and all.
        result = self.lookup(block_address)
        if not result.hit:
            return -1
        line = result.line
        line.touch(cycle)
        tick = self._lru_tick + 1
        self._lru_tick = tick
        line.lru_stamp = tick
        return result.set_idx * self._assoc + result.way

    def choose_victim_index(self, block_address: int) -> int:
        set_idx, _ = self.set_and_tag(block_address)
        base = set_idx * self._assoc
        ways = self._views[base:base + self._assoc]
        for way, line in enumerate(ways):
            if not line.valid:
                return base + way
        victim_way = min(range(self._assoc), key=lambda w: ways[w].lru_stamp)
        return base + victim_way

    def fill_index(
        self, index: int, block_address: int, state_code: int, cycle: int
    ) -> None:
        _, tag = self.set_and_tag(block_address)
        line = self._views[index]
        line.fill(tag, MESI_STATES[state_code], cycle)
        tick = self._lru_tick + 1
        self._lru_tick = tick
        line.lru_stamp = tick

    def invalidate_index(self, index: int) -> None:
        self._views[index].invalidate()

    def state_code(self, index: int) -> int:
        return MESI_CODES[self._views[index].state]

    def set_state_code(self, index: int, code: int) -> None:
        self._views[index].state = MESI_STATES[code]

    def valid_at(self, index: int) -> bool:
        return self._views[index].valid

    def dirty_at(self, index: int) -> bool:
        return self._views[index].dirty

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
            line = self._views[i]
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
        views = self._views
        return [
            i for i in range(start, end)
            if (include_invalid or views[i].valid)
            and views[i].last_refresh_cycle <= cutoff
        ]

    def min_last_refresh(
        self, start: int, end: int, include_invalid: bool
    ) -> Optional[int]:
        stamps = [
            line.last_refresh_cycle
            for line in self._views[start:end]
            if include_invalid or line.valid
        ]
        return min(stamps) if stamps else None

    def valid_indices_in_range(self, start: int, end: int) -> List[int]:
        views = self._views
        return [i for i in range(start, end) if views[i].valid]

    def stamp_invalid_range(self, start: int, end: int, cycle: int) -> None:
        for i in range(start, end):
            line = self._views[i]
            if not line.valid:
                line.last_refresh_cycle = cycle

    def dirty_indices(self) -> List[int]:
        return [i for i, line in enumerate(self._views) if line.dirty]
