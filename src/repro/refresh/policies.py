"""Data-based refresh policies: All, Valid, Dirty and WB(n, m).

A data policy answers one question at refresh time: *given this line's
state, should it be refreshed, written back, or invalidated?*  (Table 3.1).
The decision procedure for WB(n, m) follows Fig. 4.1: a per-line ``Count``
is decremented every time the Sentry bit fires and the line is refreshed;
when it reaches zero a dirty line is written back (and its Count reset to m
for its new valid-clean life), and a valid-clean line is invalidated.  Any
normal access resets Count to the state-appropriate reference value.

Policies are deliberately simple -- they look only at the line's state, not
at reuse predictors or software hints -- exactly as the paper proposes.

The classes here state each policy as a :meth:`DataPolicy.decide` over one
line object.  On the array backend the refresh controllers apply the four
paper policies as index arithmetic instead (matched by exact type), and
they refuse any other policy.  A plugged-in :class:`DataPolicy` subclass
runs on the object backend (``cache_backend="object"``), whose controllers
ask ``decide()`` for every line they walk; ``examples/retention_sweep.py``
shows one.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Optional

from repro.config.parameters import DataPolicyKind, DataPolicySpec
from repro.mem.line import CacheLine


class PolicyAction(enum.Enum):
    """What the controller should do with a line at refresh time."""

    #: Recharge the line's cells (and its Sentry bit).
    REFRESH = "refresh"
    #: Write the dirty line back one level, leave it valid-clean.
    #: The write-back itself recharges the cells.
    WRITEBACK = "writeback"
    #: Drop the line (write back first if dirty); do not refresh.
    INVALIDATE = "invalidate"
    #: Leave the line alone (it holds no useful data and is not refreshed).
    SKIP = "skip"


@dataclass(frozen=True)
class PolicyDecision:
    """A policy's verdict for one line at one refresh opportunity."""

    action: PolicyAction
    #: Value to store in the line's Count field afterwards (None = leave).
    new_count: Optional[int] = None


class DataPolicy(abc.ABC):
    """Interface of a data-based refresh policy."""

    #: Label used in figures and tables (e.g. ``WB(32,32)``).
    label: str

    @abc.abstractmethod
    def decide(self, line: CacheLine) -> PolicyDecision:
        """Decide what to do with ``line`` when its refresh moment arrives."""


class AllPolicy(DataPolicy):
    """Refresh every line, valid or not (reference policy only)."""

    label = "all"

    def decide(self, line: CacheLine) -> PolicyDecision:
        return PolicyDecision(PolicyAction.REFRESH)


class ValidPolicy(DataPolicy):
    """Refresh valid lines; invalid lines are left to decay (skipped)."""

    label = "valid"

    def decide(self, line: CacheLine) -> PolicyDecision:
        if line.valid:
            return PolicyDecision(PolicyAction.REFRESH)
        return PolicyDecision(PolicyAction.SKIP)


class DirtyPolicy(DataPolicy):
    """Refresh dirty lines only; valid-clean lines are invalidated."""

    label = "dirty"

    def decide(self, line: CacheLine) -> PolicyDecision:
        if not line.valid:
            return PolicyDecision(PolicyAction.SKIP)
        if line.dirty:
            return PolicyDecision(PolicyAction.REFRESH)
        return PolicyDecision(PolicyAction.INVALIDATE)


class WritebackPolicy(DataPolicy):
    """WB(n, m): bounded refreshes before write-back / invalidation.

    A dirty line is refreshed ``n`` times before being written back and
    becoming valid-clean; a valid-clean line is refreshed ``m`` times before
    being invalidated.  Keeping dirty lines longer reflects the double cost
    of evicting them (write back now, read again later) -- Section 3.1.
    """

    def __init__(self, dirty_refreshes: int, clean_refreshes: int) -> None:
        if dirty_refreshes < 0 or clean_refreshes < 0:
            raise ValueError("WB(n, m) parameters must be non-negative")
        self.dirty_refreshes = dirty_refreshes
        self.clean_refreshes = clean_refreshes
        self.label = f"WB({dirty_refreshes},{clean_refreshes})"

    def reference_count(self, line: CacheLine) -> int:
        """The Count reference value for a line in its current state."""
        return self.dirty_refreshes if line.dirty else self.clean_refreshes

    def decide(self, line: CacheLine) -> PolicyDecision:
        if not line.valid:
            return PolicyDecision(PolicyAction.SKIP)
        count = line.refresh_count
        if count is None:
            count = self.reference_count(line)
        if count >= 1:
            return PolicyDecision(PolicyAction.REFRESH, new_count=count - 1)
        if line.dirty:
            # Count exhausted on a dirty line: write it back; it becomes
            # valid-clean and gets a fresh budget of m refreshes.
            return PolicyDecision(
                PolicyAction.WRITEBACK, new_count=self.clean_refreshes
            )
        return PolicyDecision(PolicyAction.INVALIDATE)


def make_data_policy(spec: DataPolicySpec) -> DataPolicy:
    """Instantiate the policy object described by a :class:`DataPolicySpec`."""
    if spec.kind is DataPolicyKind.ALL:
        return AllPolicy()
    if spec.kind is DataPolicyKind.VALID:
        return ValidPolicy()
    if spec.kind is DataPolicyKind.DIRTY:
        return DirtyPolicy()
    if spec.kind is DataPolicyKind.WRITEBACK:
        assert spec.dirty_refreshes is not None and spec.clean_refreshes is not None
        return WritebackPolicy(spec.dirty_refreshes, spec.clean_refreshes)
    raise ValueError(f"unknown data policy kind {spec.kind!r}")
