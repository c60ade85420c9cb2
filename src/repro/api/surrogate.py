"""Surrogate answers: linear interpolation on retention over stored results.

The Table 5.4 campaign samples the retention axis at a handful of grid
points (50/100/200 us by default).  A "what-if" query between those points
does not need a fresh simulation to be *useful*: the energy/time surface is
smooth in retention (refresh energy scales with refresh cadence), so a
linear interpolation between the two bracketing stored exact results
answers in microseconds instead of minutes.  Every other coordinate of the
query (application, trace length, policies) must match the stored runs.

The contract is strict, in the CounterPoint spirit of never letting an
approximation masquerade as measurement:

- A surrogate is only offered *between* stored grid points (inside the
  retention grid, both corner results present in the store).  Outside the
  grid, or with a corner missing, the lattice declines and the service
  falls back to a real simulation.
- Every surrogate answer is stamped ``exact=False``, carries the
  retention interval it interpolated over (``bounds``) and the job hashes
  of the exact corner results it was built from (``corner_keys``).
- Interpolated metrics are convex combinations of the corner metrics, so
  each lies within the corner envelope -- an invariant
  :mod:`repro.validate.service` re-checks on served answers.

:class:`SurrogateLattice` is deliberately store-backed and stateless
between calls: it reads its two corners from the store on every call (the
store keeps no decoded results), so a backfilled exact result is picked up
without invalidation logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.query import ANSWER_METRICS, QueryPoint, metrics_from_result
from repro.campaign.jobs import Job
from repro.campaign.store import BaseResultStore
from repro.config.parameters import ArchitectureConfig
from repro.config.presets import scaled_architecture
from repro.core.sweep import DEFAULT_RETENTION_TIMES_US, PolicyPoint


@dataclass(frozen=True)
class AxisBracket:
    """Where a retention sits on the grid: the value lies in [lo, hi].

    ``weight`` is the fractional position of the query value between the
    bracketing grid points (0 at ``lo``, 1 at ``hi``); an on-grid value is
    represented by lo == hi and weight 0.
    """

    value: float
    lo: float
    hi: float

    @property
    def weight(self) -> float:
        """Fractional position of ``value`` in [lo, hi] (0 when on-grid)."""
        if self.hi == self.lo:
            return 0.0
        return (self.value - self.lo) / (self.hi - self.lo)

    @property
    def on_grid(self) -> bool:
        """True when the value coincides with a grid point."""
        return self.hi == self.lo


@dataclass
class SurrogateAnswer:
    """An interpolated answer: metrics, the retention interval and the
    exact corner results it was combined from."""

    metrics: Dict[str, float]
    bounds: Dict[str, List[float]]
    corner_keys: Tuple[str, ...]


def bracket_axis(value: float, grid: Sequence[float]) -> Optional[AxisBracket]:
    """Bracket ``value`` inside a sorted ``grid``; None outside the hull.

    An on-grid value returns a degenerate (lo == hi) bracket, so callers
    can distinguish "no interpolation needed" from "outside the lattice
    entirely".
    """
    points = sorted(grid)
    if not points or value < points[0] or value > points[-1]:
        return None
    for point in points:
        if value == point:
            return AxisBracket(value=value, lo=point, hi=point)
    for lo, hi in zip(points, points[1:]):
        if lo < value < hi:
            return AxisBracket(value=value, lo=lo, hi=hi)
    return None


class SurrogateLattice:
    """Linear interpolator over the stored retention/energy curve.

    Args:
        store: the result store holding the exact corner results.
        architecture: the machine model queries are normalised against
            (must match the one the corners were simulated on, or the
            corner job hashes will not resolve).
        retentions_us: the retention grid the lattice interpolates over.
    """

    def __init__(
        self,
        store: BaseResultStore,
        architecture: Optional[ArchitectureConfig] = None,
        retentions_us: Sequence[float] = DEFAULT_RETENTION_TIMES_US,
    ) -> None:
        self.store = store
        self.architecture = (
            architecture if architecture is not None else scaled_architecture()
        )
        self.retentions_us = tuple(sorted(retentions_us))

    def corner_job(self, query_point: QueryPoint, retention_us: float) -> Job:
        """The exact job of a query point at one grid retention."""
        point = query_point.point
        assert point is not None  # baselines are never interpolated
        corner_point = PolicyPoint(
            retention_us=retention_us,
            timing_policy=point.timing_policy,
            data_policy=point.data_policy,
        )
        return Job(
            workload=query_point.job.workload,
            config=corner_point.simulation_config(self.architecture),
            point_label=corner_point.label,
        )

    def interpolate(self, query_point: QueryPoint) -> Optional[SurrogateAnswer]:
        """Interpolate one off-grid query point from stored exact corners.

        Returns None -- meaning "no surrogate available, simulate instead"
        -- when the point is a baseline, lies on the retention grid exactly
        (an exact answer should be produced instead), falls outside the
        grid, or either corner result is missing from the store.
        """
        point = query_point.point
        if point is None:
            return None  # the SRAM baseline has no retention axis
        bracket = bracket_axis(point.retention_us, self.retentions_us)
        if bracket is None or bracket.on_grid:
            return None  # outside the grid, or a plain store miss/hit
        w = bracket.weight
        corners: List[Tuple[float, Dict[str, float], str]] = []
        for retention, weight in ((bracket.lo, 1.0 - w), (bracket.hi, w)):
            key = self.corner_job(query_point, retention).key()
            result = self.store.get(key)
            if result is None:
                return None  # a missing corner disqualifies the surrogate
            corners.append((weight, metrics_from_result(result), key))
        metrics = {
            name: sum(weight * corner[name] for weight, corner, _ in corners)
            for name in ANSWER_METRICS
        }
        return SurrogateAnswer(
            metrics=metrics,
            bounds={"retention_us": [bracket.lo, bracket.hi]},
            corner_keys=tuple(key for _, _, key in corners),
        )
