"""Property-based tests of hierarchy-wide invariants.

These exercise the protocol and the refresh controllers with randomly
generated operation sequences and assert the invariants the design must
never violate: inclusion, directory consistency, no decayed data served,
and conservation of the dirty-data accounting -- and that the two cache
backends end the same sequence in the same state, line by line.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.parameters import (
    DataPolicySpec,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.mem.line import MESI_MODIFIED
from repro.refresh.controller import build_refresh_controllers
from repro.utils.events import EventQueue
from tests.conftest import make_refresh_config, make_tiny_architecture

#: Small pool of block-aligned addresses so operations collide frequently.
addresses = st.integers(min_value=0, max_value=255).map(lambda n: 0x4000 + n * 64)
cores = st.integers(min_value=0, max_value=15)
operations = st.tuples(
    st.sampled_from(["read", "write", "ifetch"]), cores, addresses
)
timings = st.sampled_from([TimingPolicyKind.PERIODIC, TimingPolicyKind.REFRINT])
data_policies = st.sampled_from(
    [
        DataPolicySpec.all_lines(),
        DataPolicySpec.valid(),
        DataPolicySpec.dirty(),
        DataPolicySpec.writeback(2, 2),
    ]
)


def directory_is_consistent(hierarchy: CacheHierarchy) -> bool:
    """Every private copy is recorded in the home directory entry."""
    for caches in hierarchy.cores:
        l2 = caches.l2
        for index in l2.valid_indices_in_range(0, l2.num_lines):
            block = l2.block_address_at(index)
            bank = hierarchy.protocol.home_bank(block)
            l3_index = bank.cache.probe_index(block)
            if l3_index < 0:
                return False
            if caches.core_id not in bank.directory.holders(l3_index):
                return False
            owner = bank.directory.owner[l3_index]
            if l2.state_code(index) == MESI_MODIFIED and owner != caches.core_id:
                return False
    return True


def run_with_refresh(ops, timing, data, cache_backend="array") -> CacheHierarchy:
    """Replay ``ops`` on the tiny chip with refresh controllers attached."""
    architecture = make_tiny_architecture()
    refresh = make_refresh_config(
        architecture, timing=timing, data=data, retention_cycles=500
    )
    config = SimulationConfig.edram(refresh, architecture)
    hierarchy = CacheHierarchy(architecture, cache_backend=cache_backend)
    events = EventQueue()
    for controller in build_refresh_controllers(hierarchy, config, events):
        controller.start(0)
    cycle = 0
    for kind, core, address in ops:
        events.run(until=cycle)
        if kind == "read":
            hierarchy.read(core, address, cycle)
        elif kind == "write":
            hierarchy.write(core, address, cycle)
        else:
            hierarchy.instruction_fetch(core, address, cycle)
        cycle += 25
    events.run(until=cycle + 2000)
    return hierarchy


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(operations, min_size=1, max_size=120))
def test_property_inclusion_and_directory_consistency_sram(ops):
    hierarchy = CacheHierarchy(make_tiny_architecture())
    cycle = 0
    for kind, core, address in ops:
        if kind == "read":
            hierarchy.read(core, address, cycle)
        elif kind == "write":
            hierarchy.write(core, address, cycle)
        else:
            hierarchy.instruction_fetch(core, address, cycle)
        cycle += 10
    assert hierarchy.check_inclusion() == []
    assert directory_is_consistent(hierarchy)


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(operations, min_size=1, max_size=80),
    timing=timings,
    data=data_policies,
)
def test_property_invariants_hold_under_refresh_policies(ops, timing, data):
    """Inclusion, directory consistency and no decay under any policy mix."""
    hierarchy = run_with_refresh(ops, timing, data)
    assert hierarchy.check_inclusion() == []
    assert directory_is_consistent(hierarchy)
    assert hierarchy.counters.get("decay_violations") == 0


# Long enough sequences that blocks are shared and written back: with
# shorter ones an object backend that never marks an L3 line dirty passed.
@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(operations, min_size=20, max_size=80),
    timing=timings,
    data=data_policies,
)
def test_property_backends_agree_line_by_line(ops, timing, data):
    """Both backends end in the same line states and directory entries."""
    array = run_with_refresh(ops, timing, data, cache_backend="array")
    objects = run_with_refresh(ops, timing, data, cache_backend="object")
    for (level, instance, a), (_, _, o) in zip(
        array.all_caches(), objects.all_caches()
    ):
        for i in range(a.num_lines):
            where = (level, instance, i)
            assert a.valid_at(i) == o.valid_at(i), where
            assert a.dirty_at(i) == o.dirty_at(i), where
            assert a.state_code(i) == o.state_code(i), where
            if a.valid_at(i):
                assert a.block_address_at(i) == o.block_address_at(i), where
    for a_bank, o_bank in zip(array.banks, objects.banks):
        for i in range(a_bank.cache.num_lines):
            where = (a_bank.bank_id, i)
            assert a_bank.directory.holders(i) == o_bank.directory.holders(i), where
            assert a_bank.directory.owner[i] == o_bank.directory.owner[i], where
    assert array.counters.raw == objects.counters.raw


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(operations, min_size=1, max_size=80))
def test_property_flush_leaves_no_dirty_data(ops):
    hierarchy = CacheHierarchy(make_tiny_architecture())
    cycle = 0
    for kind, core, address in ops:
        if kind == "write":
            hierarchy.write(core, address, cycle)
        else:
            hierarchy.read(core, address, cycle)
        cycle += 10
    hierarchy.flush_dirty(cycle)
    for level, _, cache in hierarchy.all_caches():
        if level in ("l2", "l3"):
            assert cache.dirty_indices() == []


@settings(max_examples=10, deadline=None)
@given(ops=st.lists(operations, min_size=5, max_size=60))
def test_property_counters_are_internally_consistent(ops):
    """Hits + misses equals the number of lookups issued per level."""
    hierarchy = CacheHierarchy(make_tiny_architecture())
    reads = writes = 0
    cycle = 0
    for kind, core, address in ops:
        if kind == "write":
            hierarchy.write(core, address, cycle)
            writes += 1
        elif kind == "read":
            hierarchy.read(core, address, cycle)
            reads += 1
        else:
            hierarchy.instruction_fetch(core, address, cycle)
        cycle += 10
    counters = hierarchy.counters
    data_lookups = counters["l1d_hits"] + counters["l1d_misses"]
    assert data_lookups == reads + writes
    assert counters["dram_reads"] <= counters["l2_misses"]
