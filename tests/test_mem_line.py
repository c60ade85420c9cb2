"""Unit tests for cache line state machines."""

from __future__ import annotations

import pytest

from repro.hierarchy.hierarchy import CacheHierarchy
from repro.hierarchy.levels import L3Bank
from repro.mem.line import CacheLine, DirectoryLine, L3State, MESIState


class TestCacheLine:
    def test_starts_invalid(self):
        line = CacheLine()
        assert not line.valid
        assert not line.dirty
        assert line.tag is None

    def test_fill_makes_valid_and_refreshes(self):
        line = CacheLine()
        line.fill(tag=7, state=MESIState.SHARED, cycle=100)
        assert line.valid and not line.dirty
        assert line.tag == 7
        assert line.last_refresh_cycle == 100
        assert line.refresh_count is None

    def test_modified_is_dirty(self):
        line = CacheLine()
        line.fill(tag=1, state=MESIState.MODIFIED, cycle=0)
        assert line.dirty

    def test_touch_resets_count_and_refreshes(self):
        line = CacheLine()
        line.fill(tag=1, state=MESIState.SHARED, cycle=0)
        line.refresh_count = 3
        line.touch(cycle=50)
        assert line.last_refresh_cycle == 50
        assert line.refresh_count is None

    def test_refresh_preserves_count(self):
        line = CacheLine()
        line.fill(tag=1, state=MESIState.SHARED, cycle=0)
        line.refresh_count = 3
        line.refresh(cycle=40)
        assert line.last_refresh_cycle == 40
        assert line.refresh_count == 3

    def test_invalidate_clears_state(self):
        line = CacheLine()
        line.fill(tag=1, state=MESIState.MODIFIED, cycle=0)
        line.invalidate()
        assert not line.valid
        assert not line.dirty
        assert line.refresh_count is None

    def test_expiry(self):
        line = CacheLine()
        line.fill(tag=1, state=MESIState.SHARED, cycle=100)
        assert not line.is_expired(cycle=1100, retention_cycles=1000)
        assert line.is_expired(cycle=1101, retention_cycles=1000)


class TestDirectoryLine:
    """An L3 line's state machine, and the directory entry beside it.

    The entry lives in the bank's :class:`Directory`, at the line's index;
    the protocol empties it wherever it fills or drops the line.
    """

    def test_starts_invalid_with_empty_directory(self, tiny_architecture):
        line = DirectoryLine()
        assert not line.valid
        assert line.l3_state is L3State.INVALID
        bank = L3Bank(0, tiny_architecture)
        assert not bank.cache.valid_at(0)
        assert bank.directory.holders(0) == []
        assert bank.directory.owner[0] == -1

    def test_fill_is_clean_and_clears_directory(self, tiny_architecture):
        line = DirectoryLine()
        line.fill(tag=5, state=MESIState.SHARED, cycle=10)
        assert line.valid and not line.dirty
        assert line.l3_state is L3State.CLEAN
        hierarchy = CacheHierarchy(tiny_architecture)
        bank = hierarchy.protocol.home_bank(0)
        index = bank.cache.choose_victim_index(0)
        bank.directory.sharers[index] = {1, 2}
        bank.directory.owner[index] = 3
        hierarchy.read(0, 0, cycle=10)  # an L3 miss fills ``index``
        assert bank.cache.probe_index(0) == index
        assert bank.cache.valid_at(index) and not bank.cache.dirty_at(index)
        # Only the reader the fill was for is recorded.
        assert bank.directory.sharers[index] == {0}
        assert bank.directory.owner[index] == 0

    def test_dirty_clean_cycle(self):
        line = DirectoryLine()
        line.fill(tag=5, state=MESIState.SHARED, cycle=0)
        line.mark_dirty()
        assert line.dirty
        line.mark_clean()
        assert line.valid and not line.dirty

    def test_cannot_dirty_invalid_line(self):
        line = DirectoryLine()
        with pytest.raises(ValueError):
            line.mark_dirty()
        with pytest.raises(ValueError):
            line.mark_clean()

    def test_invalidate_resets_directory(self, tiny_architecture):
        line = DirectoryLine()
        line.fill(tag=5, state=MESIState.SHARED, cycle=0)
        line.mark_dirty()
        line.invalidate()
        assert not line.valid
        hierarchy = CacheHierarchy(tiny_architecture)
        hierarchy.write(4, 0, cycle=0)
        hierarchy.read(0, 0, cycle=100)  # recalls core 4's dirty copy
        bank = hierarchy.protocol.home_bank(0)
        index = bank.cache.probe_index(0)
        assert bank.cache.dirty_at(index)
        assert bank.directory.holders(index) == [0, 4]
        hierarchy.policy_invalidate("l3", bank.bank_id, index, cycle=200)
        assert not bank.cache.valid_at(index)
        assert bank.directory.sharers[index] is None
        assert bank.directory.owner[index] == -1
