"""Unit and property tests for the set-associative cache array."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.parameters import CacheGeometry
from repro.mem.arrays import ArrayCacheLine
from repro.mem.cache import Cache
from repro.mem.line import DirectoryLine, MESI_MODIFIED, MESI_SHARED, MESIState


def small_geometry(**overrides) -> CacheGeometry:
    parameters = dict(
        name="test", size_bytes=4096, associativity=4, line_bytes=64,
        access_cycles=1, write_back=True, num_refresh_groups=4,
        sentry_group_size=4,
    )
    parameters.update(overrides)
    return CacheGeometry(**parameters)


class TestBasicOperation:
    def test_miss_then_hit(self):
        cache = Cache(small_geometry())
        assert not cache.lookup(0x1000).hit
        cache.fill(0x1000, MESIState.SHARED, cycle=0)
        assert cache.lookup(0x1000).hit
        assert cache.access(0x1000, cycle=5).hit

    def test_access_refreshes_line(self):
        cache = Cache(small_geometry())
        line = cache.fill(0x1000, MESIState.SHARED, cycle=0)
        cache.access(0x1000, cycle=42)
        assert line.last_refresh_cycle == 42

    def test_lookup_does_not_touch(self):
        cache = Cache(small_geometry())
        line = cache.fill(0x1000, MESIState.SHARED, cycle=0)
        cache.lookup(0x1000)
        assert line.last_refresh_cycle == 0

    def test_invalidate(self):
        cache = Cache(small_geometry())
        cache.fill(0x1000, MESIState.SHARED, cycle=0)
        assert cache.invalidate(0x1000) is not None
        assert not cache.lookup(0x1000).hit
        assert cache.invalidate(0x2000) is None

    def test_block_address_roundtrip(self):
        cache = Cache(small_geometry())
        block = 0x1234 & ~63
        result = cache.lookup(block)
        line = cache.fill(block, MESIState.SHARED, cycle=0)
        assert cache.block_address_of(result.set_idx, line) == block

    def test_counts(self):
        cache = Cache(small_geometry())
        cache.fill(0x0, MESIState.SHARED, cycle=0)
        cache.fill(0x40, MESIState.MODIFIED, cycle=0)
        assert cache.count_valid() == 2
        assert cache.count_dirty() == 1


class TestReplacement:
    def test_lru_victim_is_least_recently_used(self):
        geometry = small_geometry(size_bytes=2 * 64 * 2, associativity=2)
        cache = Cache(geometry)
        # Two blocks mapping to set 0 (num_sets == 2, so stride is 128).
        a, b, c = 0x000, 0x100, 0x200
        cache.fill(a, MESIState.SHARED, cycle=0)
        cache.fill(b, MESIState.SHARED, cycle=1)
        cache.access(a, cycle=2)  # b becomes LRU
        victim = cache.choose_victim(c)
        assert victim.was_valid
        assert victim.block_address == b

    def test_invalid_way_preferred_over_eviction(self):
        geometry = small_geometry(size_bytes=2 * 64 * 2, associativity=2)
        cache = Cache(geometry)
        cache.fill(0x000, MESIState.SHARED, cycle=0)
        victim = cache.choose_victim(0x100)
        assert not victim.was_valid

    def test_eviction_reports_dirty(self):
        geometry = small_geometry(size_bytes=64 * 2, associativity=2)
        cache = Cache(geometry)
        cache.fill(0x000, MESIState.MODIFIED, cycle=0)
        cache.fill(0x080, MESIState.SHARED, cycle=1)
        victim = cache.choose_victim(0x100)
        assert victim.was_valid
        assert victim.was_dirty == (victim.block_address == 0x000)


class TestBankInterleaving:
    def test_interleaved_blocks_spread_over_sets(self):
        geometry = small_geometry()
        banks = 16
        cache = Cache(geometry, index_interleave=banks, index_offset=3)
        # Blocks belonging to bank 3: block_number % 16 == 3.
        blocks = [(3 + banks * i) * 64 for i in range(geometry.num_sets)]
        sets = {cache.set_and_tag(block)[0] for block in blocks}
        assert len(sets) == geometry.num_sets

    def test_roundtrip_with_interleaving(self):
        cache = Cache(small_geometry(), index_interleave=16, index_offset=5)
        block = (5 + 16 * 37) * 64
        result = cache.lookup(block)
        line = cache.fill(block, MESIState.SHARED, cycle=0)
        assert cache.block_address_of(result.set_idx, line) == block

    def test_invalid_interleave_rejected(self):
        with pytest.raises(ValueError):
            Cache(small_geometry(), index_interleave=0)
        with pytest.raises(ValueError):
            Cache(small_geometry(), index_interleave=4, index_offset=4)


class TestRefreshGroups:
    def test_groups_partition_all_lines(self):
        geometry = small_geometry()
        cache = Cache(geometry)
        seen = set()
        for group in range(geometry.num_refresh_groups):
            for set_idx, line in cache.lines_in_refresh_group(group):
                seen.add((set_idx, id(line)))
        assert len(seen) == geometry.num_lines

    def test_group_of_set_matches_partition(self):
        geometry = small_geometry()
        cache = Cache(geometry)
        for group in range(geometry.num_refresh_groups):
            for set_idx, _ in cache.lines_in_refresh_group(group):
                assert cache.refresh_group_of_set(set_idx) == group

    def test_bad_group_rejected(self):
        cache = Cache(small_geometry())
        with pytest.raises(ValueError):
            cache.lines_in_refresh_group(99)

    def test_group_blocking_delays_only_that_group(self):
        geometry = small_geometry()
        cache = Cache(geometry)
        cache.block_group(0, until=100)
        # A block mapping to set 0 (group 0) waits; one in the last group
        # does not.
        block_in_group0 = 0
        last_set = geometry.num_sets - 1
        block_in_last_group = last_set * 64
        assert cache.wait_cycles(block_in_group0, cycle=40) == 60
        assert cache.wait_cycles(block_in_last_group, cycle=40) == 0

    def test_whole_array_blocking(self):
        cache = Cache(small_geometry())
        cache.busy_until = 50
        assert cache.wait_cycles(0, cycle=20) == 30
        assert cache.wait_cycles(0, cycle=60) == 0


class TestDirectoryLineFactory:
    def test_l3_style_cache_uses_directory_lines(self):
        cache = Cache(small_geometry(), line_factory=DirectoryLine)
        line = cache.fill(0x40, MESIState.SHARED, cycle=0)
        assert isinstance(line, DirectoryLine)


def live_instances(cls) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


class TestLazyLineViews:
    """The array backend builds line objects on first use, not per line."""

    def test_view_is_built_once_and_reads_and_writes_the_vectors(self):
        before = live_instances(ArrayCacheLine)
        cache = Cache(small_geometry())
        assert live_instances(ArrayCacheLine) == before
        index = cache.fill_block(0x40, MESI_SHARED, cycle=3)
        view = cache.view(index)
        assert cache.view(index) is view
        assert cache.probe(0x40) is view
        assert live_instances(ArrayCacheLine) == before + 1
        assert view.valid and view.state is MESIState.SHARED
        assert view.last_refresh_cycle == 3
        cache.set_state_code(index, MESI_MODIFIED)
        assert view.dirty
        view.refresh(9)
        assert cache.arrays.last_refresh_cycle[index] == 9
        view.invalidate()
        assert not cache.valid_at(index)
        assert cache.probe(0x40) is None

    def test_directory_sharer_sets_are_built_on_first_read(self):
        cache = Cache(small_geometry(), directory=True)
        sharers = cache.arrays.sharers
        assert sharers == [None] * cache.num_lines
        assert cache.view(0).sharers == set()  # never filled
        index = cache.fill_block(0x40, MESI_SHARED, cycle=0)
        line = cache.view(index)
        assert line.sharers == set()
        line.sharers.add(3)
        assert cache.view(index).sharers == {3}
        cache.invalidate_index(index)
        assert sharers[index] is None
        assert line.sharers == set()
        line.sharers.add(5)
        cache.fill_index(index, 0x40, MESI_SHARED, cycle=1)
        assert line.sharers == set()


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

block_addresses = st.integers(min_value=0, max_value=2**20).map(lambda n: n * 64)


@settings(max_examples=50, deadline=None)
@given(blocks=st.lists(block_addresses, min_size=1, max_size=200))
def test_property_most_recent_fill_always_present_until_capacity(blocks):
    """After filling a block it is immediately visible."""
    cache = Cache(small_geometry())
    for cycle, block in enumerate(blocks):
        cache.fill(block, MESIState.SHARED, cycle=cycle)
        assert cache.lookup(block).hit


@settings(max_examples=50, deadline=None)
@given(blocks=st.lists(block_addresses, min_size=1, max_size=300))
def test_property_valid_count_never_exceeds_capacity(blocks):
    cache = Cache(small_geometry())
    for cycle, block in enumerate(blocks):
        if not cache.lookup(block).hit:
            cache.fill(block, MESIState.SHARED, cycle=cycle)
    assert cache.count_valid() <= cache.num_lines


@settings(max_examples=50, deadline=None)
@given(
    blocks=st.lists(block_addresses, min_size=1, max_size=200),
    interleave=st.sampled_from([1, 4, 16]),
)
def test_property_block_address_roundtrip(blocks, interleave):
    """block_address_of inverts set_and_tag for blocks owned by the bank."""
    cache = Cache(small_geometry(), index_interleave=interleave, index_offset=0)
    for cycle, block in enumerate(blocks):
        owned = (block // 64) % interleave == 0
        if not owned:
            continue
        result = cache.lookup(block)
        line = cache.fill(block, MESIState.SHARED, cycle=cycle)
        assert cache.block_address_of(result.set_idx, line) == block
