"""Unit and property tests for address arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.addr import (
    block_address,
    block_offset,
    interleaved_bank,
    is_power_of_two,
    log2_int,
)


def test_is_power_of_two():
    assert is_power_of_two(1)
    assert is_power_of_two(64)
    assert not is_power_of_two(0)
    assert not is_power_of_two(-4)
    assert not is_power_of_two(48)


def test_log2_int():
    assert log2_int(1) == 0
    assert log2_int(64) == 6
    with pytest.raises(ValueError):
        log2_int(3)


def test_block_address_and_offset():
    assert block_address(0x1234, 64) == 0x1200
    assert block_offset(0x1234, 64) == 0x34


def test_interleaved_bank_spreads_consecutive_blocks():
    banks = [interleaved_bank(block * 64, 64, 16) for block in range(32)]
    assert banks[:16] == list(range(16))
    assert banks[16:] == list(range(16))


@given(address=st.integers(min_value=0, max_value=2**48), block=st.sampled_from([32, 64, 128]))
def test_block_decomposition_roundtrip(address, block):
    assert block_address(address, block) + block_offset(address, block) == address
    assert block_address(address, block) % block == 0


@given(address=st.integers(min_value=0, max_value=2**48))
def test_interleaved_bank_in_range(address):
    assert 0 <= interleaved_bank(address, 64, 16) < 16
