"""Coherence message vocabulary.

The protocol engine accounts for every network traversal it causes; tagging
them with a :class:`MessageKind` makes the counters self-describing and lets
tests assert on specific kinds of traffic (e.g. that the WB(n, m) policy
generates back-invalidations while Valid does not).
"""

from __future__ import annotations

import enum


class MessageKind(enum.Enum):
    """Kinds of messages exchanged between cores and L3 banks."""

    #: Core requests a block for reading (GetS).
    READ_REQUEST = "read_request"
    #: Core requests a block for writing (GetM / read-for-ownership).
    WRITE_REQUEST = "write_request"
    #: Core requests write permission for a block it already shares (Upgrade).
    UPGRADE_REQUEST = "upgrade_request"
    #: L3 bank returns a data line to a core.
    DATA_REPLY = "data_reply"
    #: L3 bank asks the owning core to forward / write back its dirty copy.
    OWNER_FETCH = "owner_fetch"
    #: Core sends a dirty line down to its home L3 bank.
    WRITEBACK = "writeback"
    #: L3 bank invalidates an upper-level copy (coherence or inclusion).
    INVALIDATE = "invalidate"
    #: Core acknowledges an invalidation or downgrade.
    ACK = "ack"
    #: Core notifies the directory that it silently dropped a clean copy.
    EVICTION_NOTICE = "eviction_notice"

    @property
    def counter_name(self) -> str:
        """Counter key under which this message kind is recorded."""
        return f"msg_{self.value}"
