"""Address arithmetic helpers.

All addresses handled by the simulator are plain Python integers (byte
addresses).  Caches operate on *block addresses*: the byte address with the
block-offset bits stripped.  The shared L3 is banked and blocks are statically
interleaved across banks by block address, as in the paper (Section 5).
"""

from __future__ import annotations


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Return log2 of a power-of-two integer.

    Raises:
        ValueError: if ``value`` is not a positive power of two.
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def block_address(address: int, block_size: int) -> int:
    """Strip the block-offset bits from a byte address.

    The result identifies the cache block containing ``address``.
    """
    return address & ~(block_size - 1)


def block_offset(address: int, block_size: int) -> int:
    """Return the byte offset of ``address`` within its cache block."""
    return address & (block_size - 1)


def interleaved_bank(address: int, block_size: int, num_banks: int) -> int:
    """Map a byte address to an L3 bank by block-level interleaving.

    Consecutive cache blocks map to consecutive banks, which statically
    spreads the address space over the banks of the shared L3 exactly as the
    paper's static address-to-bank mapping does.
    """
    return (address // block_size) % num_banks

