"""Unit tests for the directory and the MESI protocol engine."""

from __future__ import annotations

import pytest

from repro.coherence.directory import Directory
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.mem.cache import CACHE_BACKENDS
from repro.mem.line import MESI_EXCLUSIVE, MESI_MODIFIED, MESI_SHARED

#: The directory line the helper tests work on.
LINE = 2


class TestDirectoryHelpers:
    def test_first_reader_gets_exclusivity(self):
        directory = Directory(4)
        assert directory.record_reader(LINE, core=3)
        assert directory.sharers[LINE] == {3}
        assert directory.owner[LINE] == 3

    def test_second_reader_is_shared(self):
        directory = Directory(4)
        directory.record_reader(LINE, core=3)
        assert not directory.record_reader(LINE, core=5)
        assert directory.sharers[LINE] == {3, 5}

    def test_record_writer_claims_sole_ownership(self):
        directory = Directory(4)
        directory.record_reader(LINE, core=1)
        directory.record_reader(LINE, core=2)
        directory.record_writer(LINE, core=2)
        assert directory.owner[LINE] == 2
        assert directory.sharers[LINE] == {2}

    def test_clear_owner_demotes_to_sharer(self):
        directory = Directory(4)
        directory.record_writer(LINE, core=7)
        directory.clear_owner(LINE)
        assert directory.owner[LINE] == -1
        assert 7 in directory.sharers[LINE]
        assert directory.holders(LINE) == [7]

    def test_remove_core(self):
        directory = Directory(4)
        directory.record_writer(LINE, core=4)
        directory.remove_core(LINE, 4)
        assert directory.owner[LINE] == -1
        assert directory.sharers[LINE] == set()

    def test_sharers_other_than(self):
        directory = Directory(4)
        directory.record_reader(LINE, core=1)
        directory.record_reader(LINE, core=2)
        directory.record_writer(LINE, core=3)
        assert directory.sharers_other_than(LINE, 3) == set()
        directory.sharers[LINE] = {1, 2, 3}
        assert directory.sharers_other_than(LINE, 1) == {2, 3}

    def test_sharer_sets_are_built_when_a_core_is_first_recorded(self):
        directory = Directory(8)
        assert directory.sharers == [None] * 8
        assert directory.owner == [-1] * 8
        # Reads, and updates that record nobody, build no set.
        assert directory.holders(LINE) == []
        assert directory.sharers_other_than(LINE, 1) == set()
        directory.remove_core(LINE, 1)
        directory.clear_owner(LINE)
        assert directory.sharers == [None] * 8
        directory.record_reader(LINE, core=5)
        assert directory.sharers[LINE] == {5}
        assert directory.sharers.count(None) == 7
        directory.clear(LINE)
        assert directory.sharers[LINE] is None
        assert directory.owner[LINE] == -1


@pytest.fixture
def hierarchy(tiny_architecture) -> CacheHierarchy:
    return CacheHierarchy(tiny_architecture)


ADDR = 0x0001_0000


class TestProtocolReadWrite:
    def test_read_miss_fills_all_levels(self, hierarchy):
        latency = hierarchy.read(0, ADDR, cycle=0)
        assert latency >= hierarchy.architecture.dram_access_cycles
        caches = hierarchy.cores[0]
        block = hierarchy.protocol.block_of(ADDR)
        assert caches.l1d.probe_index(block) >= 0
        assert caches.l2.probe_index(block) >= 0
        bank = hierarchy.protocol.home_bank(block)
        index = bank.cache.probe_index(block)
        assert index >= 0 and bank.cache.valid_at(index)
        assert 0 in bank.directory.sharers[index]
        assert hierarchy.counters["dram_accesses"] == 1

    def test_read_hit_is_cheap_and_causes_no_dram(self, hierarchy):
        hierarchy.read(0, ADDR, cycle=0)
        before = hierarchy.counters["dram_accesses"]
        latency = hierarchy.read(0, ADDR, cycle=100)
        assert latency == hierarchy.architecture.l1d.access_cycles
        assert hierarchy.counters["dram_accesses"] == before

    def test_write_makes_l2_modified_but_l1_stays_clean(self, hierarchy):
        hierarchy.write(0, ADDR, cycle=0)
        block = hierarchy.protocol.block_of(ADDR)
        l2 = hierarchy.cores[0].l2
        l2_index = l2.probe_index(block)
        assert l2_index >= 0 and l2.state_code(l2_index) == MESI_MODIFIED
        l1d = hierarchy.cores[0].l1d
        l1_index = l1d.probe_index(block)
        # Write-through, write-no-allocate L1: either absent or clean.
        assert l1_index < 0 or not l1d.dirty_at(l1_index)

    def test_write_after_shared_read_invalidates_other_copies(self, hierarchy):
        hierarchy.read(0, ADDR, cycle=0)
        hierarchy.read(1, ADDR, cycle=10)
        block = hierarchy.protocol.block_of(ADDR)
        assert hierarchy.cores[0].l2.probe_index(block) >= 0
        hierarchy.write(1, ADDR, cycle=20)
        # Core 0's copy has been invalidated by the directory.
        assert hierarchy.cores[0].l2.probe_index(block) < 0
        bank = hierarchy.protocol.home_bank(block)
        assert bank.directory.owner[bank.cache.probe_index(block)] == 1
        assert hierarchy.counters["coherence_invalidations"] >= 1

    def test_read_after_remote_write_recalls_dirty_data(self, hierarchy):
        hierarchy.write(0, ADDR, cycle=0)
        hierarchy.read(1, ADDR, cycle=100)
        block = hierarchy.protocol.block_of(ADDR)
        bank = hierarchy.protocol.home_bank(block)
        index = bank.cache.probe_index(block)
        # The owner's dirty data was written back into the L3 (now dirty).
        assert bank.cache.dirty_at(index)
        assert bank.directory.owner[index] == -1
        owner_l2 = hierarchy.cores[0].l2
        owner_index = owner_l2.probe_index(block)
        assert owner_index >= 0 and owner_l2.state_code(owner_index) == MESI_SHARED

    def test_instruction_fetch_uses_l1i(self, hierarchy):
        hierarchy.instruction_fetch(0, ADDR, cycle=0)
        block = hierarchy.protocol.block_of(ADDR)
        assert hierarchy.cores[0].l1i.probe_index(block) >= 0
        assert hierarchy.cores[0].l1d.probe_index(block) < 0

    def test_inclusion_holds_after_mixed_traffic(self, hierarchy):
        for i in range(64):
            core = i % 4
            address = ADDR + i * 64 * 3
            if i % 3 == 0:
                hierarchy.write(core, address, cycle=i * 10)
            else:
                hierarchy.read(core, address, cycle=i * 10)
        assert hierarchy.check_inclusion() == []

    def test_home_bank_is_static_interleaving(self, hierarchy):
        arch = hierarchy.architecture
        for block_index in range(64):
            block = block_index * arch.line_bytes
            bank = hierarchy.protocol.home_bank(block)
            assert bank.bank_id == block_index % arch.num_l3_banks


class TestPolicyEntryPoints:
    def test_policy_invalidate_l3_back_invalidates_and_writes_back(self, hierarchy):
        hierarchy.write(0, ADDR, cycle=0)
        block = hierarchy.protocol.block_of(ADDR)
        bank = hierarchy.protocol.home_bank(block)
        index = bank.cache.probe_index(block)
        dram_before = hierarchy.counters["dram_writes"]
        hierarchy.policy_invalidate("l3", bank.bank_id, index, cycle=100)
        assert not bank.cache.valid_at(index)
        # The modified data held above was flushed to DRAM.
        assert hierarchy.counters["dram_writes"] == dram_before + 1
        assert hierarchy.cores[0].l2.probe_index(block) < 0
        assert bank.directory.holders(index) == []
        assert hierarchy.check_inclusion() == []

    def test_policy_writeback_l3_cleans_line(self, hierarchy):
        hierarchy.write(0, ADDR, cycle=0)
        hierarchy.read(1, ADDR, cycle=10)  # forces write-back into L3 (dirty)
        block = hierarchy.protocol.block_of(ADDR)
        bank = hierarchy.protocol.home_bank(block)
        index = bank.cache.probe_index(block)
        assert bank.cache.dirty_at(index)
        dram_before = hierarchy.counters["dram_writes"]
        hierarchy.policy_writeback("l3", bank.bank_id, index, 50)
        assert bank.cache.valid_at(index) and not bank.cache.dirty_at(index)
        assert bank.cache.arrays.last_refresh_cycle[index] == 50
        assert hierarchy.counters["dram_writes"] == dram_before + 1

    def test_policy_invalidate_l2_writes_dirty_data_down(self, hierarchy):
        hierarchy.write(0, ADDR, cycle=0)
        block = hierarchy.protocol.block_of(ADDR)
        l2 = hierarchy.cores[0].l2
        index = l2.probe_index(block)
        assert l2.state_code(index) == MESI_MODIFIED
        hierarchy.policy_invalidate("l2", 0, index, cycle=50)
        assert not l2.valid_at(index)
        bank = hierarchy.protocol.home_bank(block)
        assert bank.cache.dirty_at(bank.cache.probe_index(block))
        assert hierarchy.check_inclusion() == []

    def test_policy_invalidate_l1_is_silent(self, hierarchy):
        hierarchy.read(0, ADDR, cycle=0)
        block = hierarchy.protocol.block_of(ADDR)
        l1d = hierarchy.cores[0].l1d
        index = l1d.probe_index(block)
        dram_before = hierarchy.counters["dram_accesses"]
        hierarchy.policy_invalidate("l1d", 0, index, cycle=10)
        assert not l1d.valid_at(index)
        assert hierarchy.counters["dram_accesses"] == dram_before

    @pytest.mark.parametrize("backend", CACHE_BACKENDS)
    def test_policy_writeback_l2_keeps_the_core_as_owner(
        self, tiny_architecture, backend
    ):
        # The written-back L2 copy stays Exclusive, so its core may upgrade
        # it to Modified again without telling the directory; the directory
        # must therefore still fetch from it before serving another core.
        hierarchy = CacheHierarchy(tiny_architecture, cache_backend=backend)
        hierarchy.write(0, ADDR, cycle=0)
        block = hierarchy.protocol.block_of(ADDR)
        l2 = hierarchy.cores[0].l2
        index = l2.probe_index(block)
        hierarchy.policy_writeback("l2", 0, index, cycle=50)
        assert l2.state_code(index) == MESI_EXCLUSIVE
        bank = hierarchy.protocol.home_bank(block)
        l3_index = bank.cache.probe_index(block)
        assert bank.directory.owner[l3_index] == 0
        hierarchy.write(0, ADDR, cycle=100)  # silent E -> M
        assert l2.state_code(index) == MESI_MODIFIED
        fetches = hierarchy.counters["msg_owner_fetch"]
        hierarchy.read(1, ADDR, cycle=200)
        assert hierarchy.counters["msg_owner_fetch"] == fetches + 1
        assert l2.state_code(index) == MESI_SHARED
        reader_l2 = hierarchy.cores[1].l2
        assert reader_l2.state_code(reader_l2.probe_index(block)) == MESI_SHARED
        assert bank.cache.dirty_at(l3_index)

    def test_flush_dirty_writes_everything_to_dram(self, hierarchy):
        for i in range(8):
            hierarchy.write(i % 4, ADDR + i * 64, cycle=i)
        hierarchy.flush_dirty(cycle=1000)
        for level, _, cache in hierarchy.all_caches():
            if level in ("l2", "l3"):
                assert cache.dirty_indices() == []
        assert hierarchy.counters["dram_writes"] >= 8


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 6: a dirty L2 eviction leaves its core listed as a "
        "sharer, so a later write sends it a spurious INVALIDATE"
    ),
)
def test_dirty_l2_eviction_forgets_the_evicting_core(hierarchy):
    arch = hierarchy.architecture
    # Five blocks 1,024 B apart share one 4-way L2 set (and L3 bank 0):
    # the fifth write evicts block 0, dirty.
    stride = arch.l2.num_sets * arch.line_bytes
    for way in range(arch.l2.associativity + 1):
        hierarchy.write(0, way * stride, cycle=way * 10)
    assert hierarchy.cores[0].l2.probe_index(0) < 0
    bank = hierarchy.protocol.home_bank(0)
    index = bank.cache.probe_index(0)
    assert bank.cache.dirty_at(index)
    holders = bank.directory.holders(index)
    invalidates = hierarchy.counters["msg_invalidate"]
    hierarchy.write(1, 0, cycle=100)
    assert 0 not in holders
    assert hierarchy.counters["msg_invalidate"] == invalidates
