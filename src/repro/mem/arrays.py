"""Struct-of-arrays backing store for cache state.

The object cache model keeps one Python object per line, and every access
walks those objects through property descriptors and allocates result
dataclasses.  :class:`LineArrays` replaces that with parallel vectors -- one
plain Python list per field (tag, MESI/L3 state code, valid, dirty, LRU
stamp, access/refresh timestamps, WB(n, m) count, directory entry) indexed
by the global line number ``set_idx * associativity + way``.  Plain lists
are deliberate: CPython indexes a list roughly 3x faster than a numpy array
for the single-element reads that dominate the access path, while slice
reads (``valid[a:b]``, ``sum``, ``min``) still run at C speed for the
vectorized refresh-group sweeps.

Two thin view classes, :class:`ArrayCacheLine` and
:class:`ArrayDirectoryLine`, expose one line of the arrays through the
exact :class:`~repro.mem.line.CacheLine` / ``DirectoryLine`` interface
(they are subclasses, so ``isinstance`` checks and the inherited
``fill`` / ``touch`` / ``mark_dirty`` state machines keep working).  A view
is built the first time its line is asked for
(:meth:`~repro.mem.cache.Cache.view`) and then lives as long as the cache,
so holding one across mutations always reads live state; the staged fast
path never touches them, and a cache nobody inspects builds none.

Invariants: ``valid[i]`` and ``dirty[i]`` are derived caches of the state
code (MESI for private caches, L3 state for directory caches) and are kept
in sync by every mutator -- the staged methods on :class:`~repro.mem.cache.Cache`
and the property setters below are the only code allowed to write the
state vectors.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.mem.line import (
    CacheLine,
    DirectoryLine,
    L3_CODES,
    L3_DIRTY,
    L3_STATES,
    MESI_CODES,
    MESI_MODIFIED,
    MESI_STATES,
    MESIState,
    L3State,
)


class LineArrays:
    """Parallel per-field vectors for every line of one cache instance.

    ``tag == -1``, ``refresh_count == -1`` and ``owner == -1`` encode the
    object model's ``None``.  Directory-only vectors (``l3_state``,
    ``sharers``, ``owner``) are ``None`` for private caches.  A ``sharers``
    entry is ``None`` until its set is first read through a view (a line
    never filled, or emptied by a fill or invalidation, has no sharers), so
    a fresh directory cache allocates no per-line sets.
    """

    __slots__ = (
        "num_lines", "directory",
        "tag", "state", "valid", "dirty",
        "last_access_cycle", "last_refresh_cycle",
        "refresh_count", "lru_stamp",
        "l3_state", "sharers", "owner",
    )

    def __init__(self, num_lines: int, directory: bool = False) -> None:
        if num_lines < 1:
            raise ValueError("a cache needs at least one line")
        n = num_lines
        self.num_lines = n
        self.directory = directory
        self.tag: List[int] = [-1] * n
        self.state: List[int] = [0] * n
        self.valid: List[int] = [0] * n
        self.dirty: List[int] = [0] * n
        self.last_access_cycle: List[int] = [0] * n
        self.last_refresh_cycle: List[int] = [0] * n
        self.refresh_count: List[int] = [-1] * n
        self.lru_stamp: List[int] = [0] * n
        if directory:
            self.l3_state: Optional[List[int]] = [0] * n
            self.owner: Optional[List[int]] = [-1] * n
            self.sharers: Optional[List[Optional[Set[int]]]] = [None] * n
        else:
            self.l3_state = None
            self.sharers = None
            self.owner = None


class _ArrayLineFields:
    """Array-backed field plumbing shared by both view classes.

    A slot-less mixin so it can sit in front of either :class:`CacheLine`
    or :class:`DirectoryLine` without an instance-layout conflict; the
    concrete view classes declare the ``_arrays`` / ``_index`` slots.
    """

    __slots__ = ()

    def __init__(self, arrays: LineArrays, index: int) -> None:
        # Deliberately does not call super().__init__: the defaults already
        # live in the freshly built arrays.
        self._arrays = arrays
        self._index = index

    @property
    def index(self) -> int:
        """Global line number of this view in its cache."""
        return self._index

    # -- scalar fields -------------------------------------------------------

    @property
    def tag(self) -> Optional[int]:
        value = self._arrays.tag[self._index]
        return None if value < 0 else value

    @tag.setter
    def tag(self, value: Optional[int]) -> None:
        self._arrays.tag[self._index] = -1 if value is None else value

    @property
    def state(self) -> MESIState:
        return MESI_STATES[self._arrays.state[self._index]]

    @state.setter
    def state(self, value: MESIState) -> None:
        arrays = self._arrays
        code = MESI_CODES[value]
        arrays.state[self._index] = code
        arrays.valid[self._index] = 1 if code else 0
        arrays.dirty[self._index] = 1 if code == MESI_MODIFIED else 0

    @property
    def last_access_cycle(self) -> int:
        return self._arrays.last_access_cycle[self._index]

    @last_access_cycle.setter
    def last_access_cycle(self, value: int) -> None:
        self._arrays.last_access_cycle[self._index] = value

    @property
    def last_refresh_cycle(self) -> int:
        return self._arrays.last_refresh_cycle[self._index]

    @last_refresh_cycle.setter
    def last_refresh_cycle(self, value: int) -> None:
        self._arrays.last_refresh_cycle[self._index] = value

    @property
    def refresh_count(self) -> Optional[int]:
        value = self._arrays.refresh_count[self._index]
        return None if value < 0 else value

    @refresh_count.setter
    def refresh_count(self, value: Optional[int]) -> None:
        self._arrays.refresh_count[self._index] = -1 if value is None else value

    @property
    def lru_stamp(self) -> int:
        return self._arrays.lru_stamp[self._index]

    @lru_stamp.setter
    def lru_stamp(self, value: int) -> None:
        self._arrays.lru_stamp[self._index] = value

    # -- predicates read the derived vectors directly ------------------------

    @property
    def valid(self) -> bool:
        return bool(self._arrays.valid[self._index])

    @property
    def dirty(self) -> bool:
        return bool(self._arrays.dirty[self._index])


class ArrayCacheLine(_ArrayLineFields, CacheLine):
    """One private-cache line viewed through :class:`LineArrays`.

    Subclassing :class:`CacheLine` keeps every inherited state-machine
    method (``fill``, ``touch``, ``refresh``, ``invalidate``,
    ``is_expired``) working unchanged: they read and write through the
    mixin's properties, which route to the arrays.  The parent's slot
    storage is shadowed and unused.
    """

    __slots__ = ("_arrays", "_index")


class ArrayDirectoryLine(_ArrayLineFields, DirectoryLine):
    """One L3 directory line viewed through :class:`LineArrays`.

    The MRO picks up the mixin's array-backed fields first and
    :class:`DirectoryLine`'s behaviour (``fill`` / ``invalidate`` /
    ``mark_dirty`` / ``mark_clean``) second; ``valid`` and ``dirty`` come
    from the arrays, which for a directory store are maintained from the L3
    state setter below.
    """

    __slots__ = ("_arrays", "_index")

    # For directory lines the MESI field is bookkeeping only; valid/dirty
    # derive from the L3 state, so this setter must not touch them.
    @property
    def state(self) -> MESIState:
        return MESI_STATES[self._arrays.state[self._index]]

    @state.setter
    def state(self, value: MESIState) -> None:
        self._arrays.state[self._index] = MESI_CODES[value]

    @property
    def l3_state(self) -> L3State:
        return L3_STATES[self._arrays.l3_state[self._index]]

    @l3_state.setter
    def l3_state(self, value: L3State) -> None:
        arrays = self._arrays
        code = L3_CODES[value]
        arrays.l3_state[self._index] = code
        arrays.valid[self._index] = 1 if code else 0
        arrays.dirty[self._index] = 1 if code == L3_DIRTY else 0

    @property
    def sharers(self) -> Set[int]:
        sharers = self._arrays.sharers
        value = sharers[self._index]
        if value is None:
            value = sharers[self._index] = set()
        return value

    @sharers.setter
    def sharers(self, value: Set[int]) -> None:
        self._arrays.sharers[self._index] = value

    @property
    def owner(self) -> Optional[int]:
        value = self._arrays.owner[self._index]
        return None if value < 0 else value

    @owner.setter
    def owner(self, value: Optional[int]) -> None:
        self._arrays.owner[self._index] = -1 if value is None else value
