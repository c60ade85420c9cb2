"""Shared low-level utilities: refresh-timer calendar, statistics, address math."""

from repro.utils.addr import (
    block_address,
    block_offset,
    interleaved_bank,
    is_power_of_two,
    log2_int,
)
from repro.utils.events import EventQueue
from repro.utils.statistics import Counter, RunningStat, WeightedAverage

__all__ = [
    "Counter",
    "EventQueue",
    "RunningStat",
    "WeightedAverage",
    "block_address",
    "block_offset",
    "interleaved_bank",
    "is_power_of_two",
    "log2_int",
]
