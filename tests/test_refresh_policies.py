"""Unit tests for the data-based refresh policies (Table 3.1 / Fig. 4.1)."""

from __future__ import annotations

import pytest

from repro.config.parameters import DataPolicySpec
from repro.mem.line import CacheLine, DirectoryLine, MESIState
from repro.refresh.policies import (
    AllPolicy,
    DirtyPolicy,
    PolicyAction,
    ValidPolicy,
    WritebackPolicy,
    make_data_policy,
)


def invalid_line() -> CacheLine:
    return CacheLine()


def clean_line() -> CacheLine:
    line = CacheLine()
    line.fill(tag=1, state=MESIState.SHARED, cycle=0)
    return line


def dirty_line() -> CacheLine:
    line = CacheLine()
    line.fill(tag=1, state=MESIState.MODIFIED, cycle=0)
    return line


class TestAllPolicy:
    def test_refreshes_everything(self):
        policy = AllPolicy()
        for line in (invalid_line(), clean_line(), dirty_line()):
            assert policy.decide(line).action is PolicyAction.REFRESH


class TestValidPolicy:
    def test_refreshes_valid_only(self):
        policy = ValidPolicy()
        assert policy.decide(clean_line()).action is PolicyAction.REFRESH
        assert policy.decide(dirty_line()).action is PolicyAction.REFRESH
        assert policy.decide(invalid_line()).action is PolicyAction.SKIP


class TestDirtyPolicy:
    def test_refreshes_dirty_invalidates_clean(self):
        policy = DirtyPolicy()
        assert policy.decide(dirty_line()).action is PolicyAction.REFRESH
        assert policy.decide(clean_line()).action is PolicyAction.INVALIDATE
        assert policy.decide(invalid_line()).action is PolicyAction.SKIP


class TestWritebackPolicy:
    """The WB(n, m) decision procedure of Fig. 4.1."""

    def test_fresh_dirty_line_gets_n_refreshes_then_writeback(self):
        policy = WritebackPolicy(2, 3)
        line = dirty_line()
        # Count starts unset -> treated as the reference value (2).
        first = policy.decide(line)
        assert first.action is PolicyAction.REFRESH and first.new_count == 1
        line.refresh_count = first.new_count
        second = policy.decide(line)
        assert second.action is PolicyAction.REFRESH and second.new_count == 0
        line.refresh_count = second.new_count
        third = policy.decide(line)
        assert third.action is PolicyAction.WRITEBACK
        # After the write-back the line is valid-clean with a budget of m.
        assert third.new_count == 3

    def test_clean_line_invalidated_after_m_refreshes(self):
        policy = WritebackPolicy(4, 1)
        line = clean_line()
        first = policy.decide(line)
        assert first.action is PolicyAction.REFRESH and first.new_count == 0
        line.refresh_count = first.new_count
        assert policy.decide(line).action is PolicyAction.INVALIDATE

    def test_wb_0_0_is_immediately_aggressive(self):
        policy = WritebackPolicy(0, 0)
        assert policy.decide(dirty_line()).action is PolicyAction.WRITEBACK
        assert policy.decide(clean_line()).action is PolicyAction.INVALIDATE

    def test_invalid_lines_skipped(self):
        policy = WritebackPolicy(2, 2)
        assert policy.decide(invalid_line()).action is PolicyAction.SKIP

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            WritebackPolicy(-1, 0)


class TestEquivalences:
    """Dirty == WB(inf, 0) and Valid == WB(inf, inf) (Section 3.2)."""

    def test_dirty_equivalent_to_wb_inf_0(self):
        dirty = DirtyPolicy()
        wb = WritebackPolicy(10**9, 0)
        for line in (clean_line(), dirty_line(), invalid_line()):
            assert dirty.decide(line).action == wb.decide(line).action

    def test_valid_equivalent_to_wb_inf_inf(self):
        valid = ValidPolicy()
        wb = WritebackPolicy(10**9, 10**9)
        for line in (clean_line(), dirty_line(), invalid_line()):
            assert valid.decide(line).action == wb.decide(line).action

    def test_works_on_directory_lines_too(self):
        policy = DirtyPolicy()
        line = DirectoryLine()
        line.fill(tag=3, state=MESIState.SHARED, cycle=0)
        line.mark_dirty()
        assert policy.decide(line).action is PolicyAction.REFRESH
        line.mark_clean()
        assert policy.decide(line).action is PolicyAction.INVALIDATE


class TestFactory:
    def test_factory_builds_each_kind(self):
        assert isinstance(make_data_policy(DataPolicySpec.all_lines()), AllPolicy)
        assert isinstance(make_data_policy(DataPolicySpec.valid()), ValidPolicy)
        assert isinstance(make_data_policy(DataPolicySpec.dirty()), DirtyPolicy)
        wb = make_data_policy(DataPolicySpec.writeback(16, 8))
        assert isinstance(wb, WritebackPolicy)
        assert wb.label == "WB(16,8)"
