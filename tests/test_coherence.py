"""Unit tests for the directory helpers and the MESI protocol engine."""

from __future__ import annotations

import pytest

from repro.coherence.directory import Directory
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.mem.cache import CACHE_BACKENDS
from repro.mem.line import DirectoryLine, L3State, MESIState


def directory_line() -> DirectoryLine:
    line = DirectoryLine()
    line.fill(tag=1, state=MESIState.SHARED, cycle=0)
    return line


class TestDirectoryHelpers:
    def test_first_reader_gets_exclusivity(self):
        line = directory_line()
        assert Directory.record_reader(line, core=3)
        assert line.sharers == {3}

    def test_second_reader_is_shared(self):
        line = directory_line()
        Directory.record_reader(line, core=3)
        assert not Directory.record_reader(line, core=5)
        assert line.sharers == {3, 5}

    def test_record_writer_claims_sole_ownership(self):
        line = directory_line()
        Directory.record_reader(line, core=1)
        Directory.record_reader(line, core=2)
        Directory.record_writer(line, core=2)
        assert line.owner == 2
        assert line.sharers == {2}

    def test_clear_owner_demotes_to_sharer(self):
        line = directory_line()
        Directory.record_writer(line, core=7)
        owner = Directory.clear_owner(line)
        assert owner == 7
        assert line.owner is None
        assert 7 in line.sharers

    def test_remove_core(self):
        line = directory_line()
        Directory.record_writer(line, core=4)
        Directory.remove_core(line, 4)
        assert line.owner is None
        assert line.sharers == set()

    def test_sharers_other_than(self):
        line = directory_line()
        Directory.record_reader(line, core=1)
        Directory.record_reader(line, core=2)
        Directory.record_writer(line, core=3)
        assert Directory.sharers_other_than(line, 3) == set()
        line.sharers = {1, 2, 3}
        assert Directory.sharers_other_than(line, 1) == {2, 3}


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
        assert caches.l1d.probe(block) is not None
        assert caches.l2.probe(block) is not None
        bank = hierarchy.protocol.home_bank(block)
        l3_line = bank.cache.probe(block)
        assert l3_line is not None and l3_line.valid
        assert 0 in l3_line.sharers
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
        l2_line = hierarchy.cores[0].l2.probe(block)
        assert l2_line is not None and l2_line.state is MESIState.MODIFIED
        l1_line = hierarchy.cores[0].l1d.probe(block)
        # Write-through, write-no-allocate L1: either absent or clean.
        assert l1_line is None or not l1_line.dirty

    def test_write_after_shared_read_invalidates_other_copies(self, hierarchy):
        hierarchy.read(0, ADDR, cycle=0)
        hierarchy.read(1, ADDR, cycle=10)
        block = hierarchy.protocol.block_of(ADDR)
        assert hierarchy.cores[0].l2.probe(block) is not None
        hierarchy.write(1, ADDR, cycle=20)
        # Core 0's copy has been invalidated by the directory.
        line0 = hierarchy.cores[0].l2.probe(block)
        assert line0 is None or not line0.valid
        bank = hierarchy.protocol.home_bank(block)
        l3_line = bank.cache.probe(block)
        assert l3_line.owner == 1
        assert hierarchy.counters["coherence_invalidations"] >= 1

    def test_read_after_remote_write_recalls_dirty_data(self, hierarchy):
        hierarchy.write(0, ADDR, cycle=0)
        hierarchy.read(1, ADDR, cycle=100)
        block = hierarchy.protocol.block_of(ADDR)
        bank = hierarchy.protocol.home_bank(block)
        l3_line = bank.cache.probe(block)
        # The owner's dirty data was written back into the L3 (now dirty).
        assert l3_line.l3_state is L3State.DIRTY
        assert l3_line.owner is None
        owner_l2 = hierarchy.cores[0].l2.probe(block)
        assert owner_l2 is not None and owner_l2.state is MESIState.SHARED

    def test_instruction_fetch_uses_l1i(self, hierarchy):
        hierarchy.instruction_fetch(0, ADDR, cycle=0)
        block = hierarchy.protocol.block_of(ADDR)
        assert hierarchy.cores[0].l1i.probe(block) is not None
        assert hierarchy.cores[0].l1d.probe(block) is None

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
        l2_line = hierarchy.cores[0].l2.probe(block)
        assert l2_line is None or not l2_line.valid
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
        line = bank.cache.view(index)
        assert line.valid and not line.dirty
        assert line.last_refresh_cycle == 50
        assert hierarchy.counters["dram_writes"] == dram_before + 1

    def test_policy_invalidate_l2_writes_dirty_data_down(self, hierarchy):
        hierarchy.write(0, ADDR, cycle=0)
        block = hierarchy.protocol.block_of(ADDR)
        l2 = hierarchy.cores[0].l2
        index = l2.probe_index(block)
        assert l2.view(index).state is MESIState.MODIFIED
        hierarchy.policy_invalidate("l2", 0, index, cycle=50)
        assert not l2.valid_at(index)
        bank = hierarchy.protocol.home_bank(block)
        assert bank.cache.probe(block).l3_state is L3State.DIRTY
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
        assert l2.view(index).state is MESIState.EXCLUSIVE
        bank = hierarchy.protocol.home_bank(block)
        assert bank.cache.probe(block).owner == 0
        hierarchy.write(0, ADDR, cycle=100)  # silent E -> M
        assert l2.view(index).state is MESIState.MODIFIED
        fetches = hierarchy.counters["msg_owner_fetch"]
        hierarchy.read(1, ADDR, cycle=200)
        assert hierarchy.counters["msg_owner_fetch"] == fetches + 1
        assert l2.view(index).state is MESIState.SHARED
        assert hierarchy.cores[1].l2.probe(block).state is MESIState.SHARED
        assert bank.cache.probe(block).l3_state is L3State.DIRTY

    def test_flush_dirty_writes_everything_to_dram(self, hierarchy):
        for i in range(8):
            hierarchy.write(i % 4, ADDR + i * 64, cycle=i)
        hierarchy.flush_dirty(cycle=1000)
        assert hierarchy.dirty_lines()["l2"] == 0
        assert hierarchy.dirty_lines()["l3"] == 0
        assert hierarchy.counters["dram_writes"] >= 8
