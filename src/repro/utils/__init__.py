"""Shared low-level utilities: refresh-timer calendar, event counter, address math."""

from repro.utils.addr import (
    block_address,
    block_offset,
    interleaved_bank,
    is_power_of_two,
    log2_int,
)
from repro.utils.events import EventQueue
from repro.utils.statistics import Counter

__all__ = [
    "Counter",
    "EventQueue",
    "block_address",
    "block_offset",
    "interleaved_bank",
    "is_power_of_two",
    "log2_int",
]
