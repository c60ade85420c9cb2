"""Unit and property tests for the set-associative cache array.

Every case runs on both storage backends: the classes below build their
caches on ``backend = "array"``, and the ``...OnObjects`` subclasses at the
end re-run them with ``backend = "object"``; the properties draw the
backend.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.parameters import CacheGeometry
from repro.mem.cache import CACHE_BACKENDS, Cache
from repro.mem.line import (
    DirectoryLine,
    MESI_EXCLUSIVE,
    MESI_INVALID,
    MESI_MODIFIED,
    MESI_SHARED,
)


def small_geometry(**overrides) -> CacheGeometry:
    parameters = dict(
        name="test", size_bytes=4096, associativity=4, line_bytes=64,
        access_cycles=1, write_back=True, num_refresh_groups=4,
        sentry_group_size=4,
    )
    parameters.update(overrides)
    return CacheGeometry(**parameters)


def last_refresh(cache: Cache, index: int) -> int:
    """A line's last refresh cycle, read from its backend's storage."""
    if cache.arrays is not None:
        return cache.arrays.last_refresh_cycle[index]
    return cache.line(index).last_refresh_cycle


class CacheCase:
    """Builds a test class's caches on its ``backend``."""

    backend = "array"

    def cache(self, geometry: Optional[CacheGeometry] = None, **kwargs) -> Cache:
        return Cache(
            geometry if geometry is not None else small_geometry(),
            backend=self.backend, **kwargs,
        )


class TestBasicOperation(CacheCase):
    def test_miss_then_hit(self):
        cache = self.cache()
        assert cache.probe_index(0x1000) == -1
        index = cache.fill_block(0x1000, MESI_SHARED, cycle=0)
        assert cache.probe_index(0x1000) == index
        assert cache.access_index(0x1000, cycle=5) == index

    def test_access_refreshes_line(self):
        cache = self.cache()
        index = cache.fill_block(0x1000, MESI_SHARED, cycle=0)
        cache.access_index(0x1000, cycle=42)
        assert last_refresh(cache, index) == 42

    def test_lookup_does_not_touch(self):
        cache = self.cache()
        index = cache.fill_block(0x1000, MESI_SHARED, cycle=0)
        cache.probe_index(0x1000)
        assert last_refresh(cache, index) == 0

    def test_invalidate(self):
        cache = self.cache()
        index = cache.fill_block(0x1000, MESI_SHARED, cycle=0)
        cache.invalidate_index(index)
        assert not cache.valid_at(index)
        assert cache.probe_index(0x1000) == -1
        assert cache.probe_index(0x2000) == -1

    def test_block_address_roundtrip(self):
        cache = self.cache()
        block = 0x1234 & ~63
        index = cache.fill_block(block, MESI_SHARED, cycle=0)
        assert index // cache.geometry.associativity == cache.set_and_tag(block)[0]
        assert cache.block_address_at(index) == block

    def test_counts(self):
        cache = self.cache()
        cache.fill_block(0x0, MESI_SHARED, cycle=0)
        cache.fill_block(0x40, MESI_MODIFIED, cycle=0)
        assert cache.count_valid() == 2
        assert len(cache.dirty_indices()) == 1


class TestLineState(CacheCase):
    def test_state_codes_drive_valid_and_dirty(self):
        cache = self.cache()
        index = cache.fill_block(0x40, MESI_EXCLUSIVE, cycle=0)
        assert cache.state_code(index) == MESI_EXCLUSIVE
        assert cache.valid_at(index) and not cache.dirty_at(index)
        cache.set_state_code(index, MESI_MODIFIED)
        assert cache.dirty_at(index)
        assert cache.dirty_indices() == [index]
        cache.set_state_code(index, MESI_INVALID)
        assert not cache.valid_at(index)
        assert cache.probe_index(0x40) == -1

    def test_touch_recharges_without_updating_lru(self):
        cache = self.cache(small_geometry(size_bytes=2 * 64 * 2, associativity=2))
        a = cache.fill_block(0x000, MESI_SHARED, cycle=0)
        cache.fill_block(0x100, MESI_SHARED, cycle=1)
        cache.touch_index(a, cycle=50)
        cache.refresh_index(a, cycle=60)
        assert last_refresh(cache, a) == 60
        # Touched or refreshed, ``a`` is still the set's LRU line.
        assert cache.choose_victim_index(0x200) == a
        cache.access_index(0x000, cycle=70)
        assert cache.choose_victim_index(0x200) != a

    def test_l3_lines_fill_clean_and_are_marked_dirty_and_clean(self):
        cache = self.cache(directory=True)
        index = cache.fill_block(0x40, MESI_SHARED, cycle=0)
        assert cache.valid_at(index) and not cache.dirty_at(index)
        cache.mark_dirty_index(index)
        assert cache.dirty_at(index)
        cache.mark_clean_index(index)
        assert cache.valid_at(index) and not cache.dirty_at(index)
        cache.invalidate_index(index)
        assert not cache.valid_at(index)

    def test_bulk_refresh_of_a_range(self):
        cache = self.cache()
        start, end = cache.refresh_group_line_range(0)
        index = cache.fill_block(0x0, MESI_SHARED, cycle=0)
        assert cache.valid_indices_in_range(start, end) == [index]
        # Valid: only the one valid line counts, and it had decayed.
        assert cache.bulk_refresh_range(start, end, 500, 100, False) == (1, 1)
        assert last_refresh(cache, index) == 500
        # All: every line of the group counts; none has decayed now.
        assert cache.bulk_refresh_range(start, end, 550, 100, True) == (
            end - start, 0,
        )


class TestReplacement(CacheCase):
    def test_lru_victim_is_least_recently_used(self):
        geometry = small_geometry(size_bytes=2 * 64 * 2, associativity=2)
        cache = self.cache(geometry)
        # Two blocks mapping to set 0 (num_sets == 2, so stride is 128).
        a, b, c = 0x000, 0x100, 0x200
        cache.fill_block(a, MESI_SHARED, cycle=0)
        cache.fill_block(b, MESI_SHARED, cycle=1)
        cache.access_index(a, cycle=2)  # b becomes LRU
        victim = cache.choose_victim_index(c)
        assert cache.valid_at(victim)
        assert cache.block_address_at(victim) == b

    def test_invalid_way_preferred_over_eviction(self):
        geometry = small_geometry(size_bytes=2 * 64 * 2, associativity=2)
        cache = self.cache(geometry)
        cache.fill_block(0x000, MESI_SHARED, cycle=0)
        assert not cache.valid_at(cache.choose_victim_index(0x100))

    def test_eviction_reports_dirty(self):
        geometry = small_geometry(size_bytes=64 * 2, associativity=2)
        cache = self.cache(geometry)
        cache.fill_block(0x000, MESI_MODIFIED, cycle=0)
        cache.fill_block(0x080, MESI_SHARED, cycle=1)
        victim = cache.choose_victim_index(0x100)
        assert cache.valid_at(victim)
        assert cache.dirty_at(victim) == (cache.block_address_at(victim) == 0x000)


class TestBankInterleaving(CacheCase):
    def test_interleaved_blocks_spread_over_sets(self):
        geometry = small_geometry()
        banks = 16
        cache = self.cache(geometry, index_interleave=banks, index_offset=3)
        # Blocks belonging to bank 3: block_number % 16 == 3.
        blocks = [(3 + banks * i) * 64 for i in range(geometry.num_sets)]
        sets = {cache.set_and_tag(block)[0] for block in blocks}
        assert len(sets) == geometry.num_sets

    def test_roundtrip_with_interleaving(self):
        cache = self.cache(index_interleave=16, index_offset=5)
        block = (5 + 16 * 37) * 64
        index = cache.fill_block(block, MESI_SHARED, cycle=0)
        assert index // cache.geometry.associativity == cache.set_and_tag(block)[0]
        assert cache.block_address_at(index) == block

    def test_invalid_interleave_rejected(self):
        with pytest.raises(ValueError):
            self.cache(index_interleave=0)
        with pytest.raises(ValueError):
            self.cache(index_interleave=4, index_offset=4)


class TestRefreshGroups(CacheCase):
    def test_groups_partition_all_lines(self):
        geometry = small_geometry()
        cache = self.cache(geometry)
        seen = []
        for group in range(geometry.num_refresh_groups):
            start, end = cache.refresh_group_line_range(group)
            seen.extend(range(start, end))
        assert seen == list(range(geometry.num_lines))

    def test_group_of_set_matches_partition(self):
        geometry = small_geometry()
        cache = self.cache(geometry)
        for group in range(geometry.num_refresh_groups):
            start, end = cache.refresh_group_line_range(group)
            for index in range(start, end):
                set_number = index // cache.geometry.associativity
                assert cache.refresh_group_of_set(set_number) == group

    def test_bad_group_rejected(self):
        cache = self.cache()
        with pytest.raises(ValueError):
            cache.refresh_group_line_range(99)

    def test_group_blocking_delays_only_that_group(self):
        geometry = small_geometry()
        cache = self.cache(geometry)
        cache.block_group(0, until=100)
        # A block mapping to set 0 (group 0) waits; one in the last group
        # does not.
        block_in_group0 = 0
        last_set = geometry.num_sets - 1
        block_in_last_group = last_set * 64
        assert cache.wait_cycles(block_in_group0, cycle=40) == 60
        assert cache.wait_cycles(block_in_last_group, cycle=40) == 0

    def test_whole_array_blocking(self):
        cache = self.cache()
        cache.busy_until = 50
        assert cache.wait_cycles(0, cycle=20) == 30
        assert cache.wait_cycles(0, cycle=60) == 0


class TestDirectoryLineFactory:
    def test_l3_style_cache_uses_directory_lines(self):
        cache = Cache(small_geometry(), backend="object", directory=True)
        index = cache.fill_block(0x40, MESI_SHARED, cycle=0)
        assert isinstance(cache.line(index), DirectoryLine)


# The same cases on the object backend, the oracle the array layout must
# match.


class TestBasicOperationOnObjects(TestBasicOperation):
    backend = "object"


class TestLineStateOnObjects(TestLineState):
    backend = "object"


class TestReplacementOnObjects(TestReplacement):
    backend = "object"


class TestBankInterleavingOnObjects(TestBankInterleaving):
    backend = "object"


class TestRefreshGroupsOnObjects(TestRefreshGroups):
    backend = "object"


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

block_addresses = st.integers(min_value=0, max_value=2**20).map(lambda n: n * 64)
backends = st.sampled_from(CACHE_BACKENDS)


@settings(max_examples=50, deadline=None)
@given(blocks=st.lists(block_addresses, min_size=1, max_size=200), backend=backends)
def test_property_most_recent_fill_always_present_until_capacity(blocks, backend):
    """After filling a block it is immediately visible."""
    cache = Cache(small_geometry(), backend=backend)
    for cycle, block in enumerate(blocks):
        cache.fill_block(block, MESI_SHARED, cycle=cycle)
        assert cache.probe_index(block) >= 0


@settings(max_examples=50, deadline=None)
@given(blocks=st.lists(block_addresses, min_size=1, max_size=300), backend=backends)
def test_property_valid_count_never_exceeds_capacity(blocks, backend):
    cache = Cache(small_geometry(), backend=backend)
    for cycle, block in enumerate(blocks):
        if cache.probe_index(block) < 0:
            cache.fill_block(block, MESI_SHARED, cycle=cycle)
    assert cache.count_valid() <= cache.num_lines


@settings(max_examples=50, deadline=None)
@given(
    blocks=st.lists(block_addresses, min_size=1, max_size=200),
    interleave=st.sampled_from([1, 4, 16]),
    backend=backends,
)
def test_property_block_address_roundtrip(blocks, interleave, backend):
    """block_address_at inverts set_and_tag for blocks owned by the bank."""
    cache = Cache(
        small_geometry(), index_interleave=interleave, index_offset=0,
        backend=backend,
    )
    for cycle, block in enumerate(blocks):
        owned = (block // 64) % interleave == 0
        if not owned:
            continue
        index = cache.fill_block(block, MESI_SHARED, cycle=cycle)
        assert index // cache.geometry.associativity == cache.set_and_tag(block)[0]
        assert cache.block_address_at(index) == block
