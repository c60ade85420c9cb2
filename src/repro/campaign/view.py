"""Store-backed sweep views: aggregate figures without the whole sweep in RAM.

:class:`StoreSweep` duck-types :class:`~repro.core.sweep.SweepResult` for
the figure/table/report layer while loading each
:class:`~repro.core.results.SimulationResult` from a
:class:`~repro.campaign.store.BaseResultStore` on demand: baselines are
pinned (one per application), point results live in a small LRU sized to
the access pattern of the figure code (which walks point-by-point across
applications).  A 100k-point campaign can therefore be aggregated with a
few dozen results resident at any moment -- no whole-sweep summary file,
no ``results`` dict holding every point.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.jobs import Job
from repro.campaign.store import BaseResultStore
from repro.core.results import SimulationResult
from repro.core.sweep import PolicyPoint, SweepResult

#: Default number of point results kept resident while aggregating.
DEFAULT_RESULT_CACHE = 64


class _LazyBaselines(Mapping):
    """Mapping facade over the per-application baseline keys.

    A full :class:`collections.abc.Mapping`, so everything a plain
    ``baselines`` dict supports (``values()``, ``get()``, ``items()``,
    equality, ...) works here too.  Membership, iteration and ``keys()``
    are overridden to consult only the key index -- they must not require
    loading any result -- while value access goes through the owning
    :class:`StoreSweep` so results land in its pinned baseline cache.
    """

    def __init__(self, view: "StoreSweep") -> None:
        self._view = view

    def __contains__(self, name: object) -> bool:
        return name in self._view._baseline_keys

    def __iter__(self) -> Iterator[str]:
        return iter(self._view._baseline_keys)

    def __len__(self) -> int:
        return len(self._view._baseline_keys)

    def __getitem__(self, name: str) -> SimulationResult:
        return self._view.baseline(name)

    def keys(self):
        return self._view._baseline_keys.keys()


class StoreSweep(SweepResult):
    """A ``SweepResult`` whose results live in a result store.

    Built from the campaign's job enumeration (which maps every
    (application, point) cell to its content-hash key) and the store those
    keys were committed to.  All ``SweepResult`` accessors and the
    ``normalised_*`` helpers work unchanged; only ``result``/``baseline``
    are overridden to load lazily.

    Raises :class:`KeyError` with the missing key when an accessed cell was
    never persisted (e.g. a campaign that was killed before completing).
    """

    def __init__(
        self,
        store: BaseResultStore,
        jobs: Sequence[Job],
        points: Sequence[PolicyPoint],
        result_cache: int = DEFAULT_RESULT_CACHE,
    ) -> None:
        super().__init__(points=list(points))
        self.store = store
        self._baseline_keys: "OrderedDict[str, str]" = OrderedDict()
        self._point_keys: Dict[Tuple[str, str], str] = {}
        for job in jobs:
            if job.is_baseline:
                self._baseline_keys.setdefault(job.application, job.key())
            else:
                self._point_keys.setdefault(
                    (job.application, job.point_label), job.key()
                )
        self._baseline_cache: Dict[str, SimulationResult] = {}
        self._result_cache: "OrderedDict[str, SimulationResult]" = OrderedDict()
        self._result_cache_max = max(1, result_cache)
        # Shadow the dataclass field: membership/iteration over
        # ``sweep.baselines`` must not require loading any result.
        self.baselines = _LazyBaselines(self)

    # -- lazy accessors ----------------------------------------------------------

    @property
    def applications(self) -> List[str]:
        """Applications present in the sweep, in job-enumeration order."""
        return list(self._baseline_keys)

    def baseline(self, application: str) -> SimulationResult:
        """The full-SRAM result of one application (pinned once loaded)."""
        cached = self._baseline_cache.get(application)
        if cached is None:
            key = self._baseline_keys[application]
            cached = self._load(key)
            self._baseline_cache[application] = cached
        return cached

    def result(self, application: str, point: PolicyPoint) -> SimulationResult:
        """The result of one application at one sweep point (LRU-cached)."""
        key = self._point_keys[(application, point.label)]
        cached = self._result_cache.get(key)
        if cached is not None:
            self._result_cache.move_to_end(key)
            return cached
        result = self._load(key)
        self._result_cache[key] = result
        if len(self._result_cache) > self._result_cache_max:
            self._result_cache.popitem(last=False)
        return result

    def _load(self, key: str) -> SimulationResult:
        result = self.store.get(key)
        if result is None:
            raise KeyError(
                f"result {key[:16]}... is not in store {self.store.root} "
                f"(incomplete campaign? run it to completion or resume it)"
            )
        return result

    # -- materialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Materialise the full summary (defeats bounded memory; avoid at scale)."""
        return self.materialise().to_dict()

    def materialise(self) -> SweepResult:
        """Load everything into a plain in-memory :class:`SweepResult`."""
        sweep = SweepResult(points=list(self.points))
        for name in self.applications:
            sweep.baselines[name] = self.baseline(name)
            sweep.results[name] = {}
        for (name, label), key in self._point_keys.items():
            sweep.results[name][label] = self._load(key)
        return sweep
