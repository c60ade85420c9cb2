"""The event counter the simulator tallies hits, misses and refreshes in."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Mapping


class Counter:
    """A named bag of integer counters.

    This is a thin wrapper over a defaultdict that supports addition and
    snapshotting, used for event counts such as hits, misses, refreshes,
    invalidations and network messages.
    """

    def __init__(self, initial: Mapping[str, int] | None = None) -> None:
        self._counts: Dict[str, int] = defaultdict(int)
        if initial:
            for key, value in initial.items():
                self._counts[key] = int(value)

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counts[name] += amount

    @property
    def raw(self) -> Dict[str, int]:
        """The live underlying defaultdict, for hot paths.

        Incrementing ``counter.raw[key] += n`` skips one method call per
        event, which matters on paths executed once per simulated memory
        access.  Callers must treat it as write-mostly: reads should keep
        going through :meth:`get` / indexing.
        """
        return self._counts

    def get(self, name: str) -> int:
        """Return the value of counter ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Return a plain-dict snapshot of all counters."""
        return dict(self._counts)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"Counter({inner})"
