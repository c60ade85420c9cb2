"""The experiment scale and the sweep's headline aggregates.

Regenerating every figure of Chapter 6 requires the same underlying sweep
(Table 5.4).  An :class:`ExperimentScale` says how big that sweep is --
which applications, how long the traces are, which retention times and
policies -- and yields the workload recipes and policy points that
:func:`~repro.campaign.engine.run_campaign` runs.  The defaults are sized
so the whole sweep runs in a few minutes of pure Python, and environment
variables allow the benchmark suite to scale it up to the full
11-application grid
(``REFRINT_APPS=all REFRINT_LENGTH_SCALE=1.0 pytest benchmarks/ ...``).

:func:`point_averages` and :func:`headline_summary` aggregate a finished
sweep into the all-application numbers the paper quotes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config.parameters import TimingPolicyKind
from repro.config.presets import paper_data_policies
from repro.core.sweep import (
    DEFAULT_RETENTION_TIMES_US,
    PolicyPoint,
    SweepResult,
    default_policy_points,
)
from repro.workloads.suite import APPLICATION_NAMES, WorkloadRequest

#: One representative application per class, used by the quick default scale.
REPRESENTATIVE_APPLICATIONS: Sequence[str] = ("fft", "barnes", "blackscholes")


@dataclass(frozen=True)
class ExperimentScale:
    """How big an experiment to run.

    Attributes:
        applications: application names to simulate.
        length_scale: trace-length multiplier passed to the workload suite.
        retention_times_us: retention times of the sweep.
        timing_policies: timing policies of the sweep.
        include_all_data_policies: when False, only Valid and WB(32, 32) are
            swept (enough for the headline numbers); when True the full
            seven data policies of Table 5.4 are used.
    """

    applications: Sequence[str] = REPRESENTATIVE_APPLICATIONS
    length_scale: float = 0.5
    retention_times_us: Sequence[float] = DEFAULT_RETENTION_TIMES_US
    timing_policies: Sequence[TimingPolicyKind] = (
        TimingPolicyKind.PERIODIC,
        TimingPolicyKind.REFRINT,
    )
    include_all_data_policies: bool = True

    @staticmethod
    def quick() -> "ExperimentScale":
        """A minutes-scale experiment: 3 representative apps, short traces."""
        return ExperimentScale()

    @staticmethod
    def full() -> "ExperimentScale":
        """The full Table 5.4 grid over all eleven applications."""
        return ExperimentScale(applications=APPLICATION_NAMES, length_scale=1.0)

    @staticmethod
    def from_environment() -> "ExperimentScale":
        """Build a scale from ``REFRINT_*`` environment variables.

        ``REFRINT_APPS`` is either ``all`` or a comma-separated list of
        application names; ``REFRINT_LENGTH_SCALE`` is a float;
        ``REFRINT_RETENTIONS`` is a comma-separated list of microsecond
        values.  Unset variables fall back to the quick defaults.
        """
        scale = ExperimentScale.quick()
        apps_env = os.environ.get("REFRINT_APPS")
        applications = scale.applications
        if apps_env:
            applications = (
                APPLICATION_NAMES if apps_env.strip().lower() == "all"
                else tuple(name.strip() for name in apps_env.split(",") if name.strip())
            )
        length = float(os.environ.get("REFRINT_LENGTH_SCALE", scale.length_scale))
        retentions_env = os.environ.get("REFRINT_RETENTIONS")
        retentions = scale.retention_times_us
        if retentions_env:
            retentions = tuple(
                float(value) for value in retentions_env.split(",") if value.strip()
            )
        return ExperimentScale(
            applications=applications,
            length_scale=length,
            retention_times_us=retentions,
        )

    def workload_requests(self) -> List[WorkloadRequest]:
        """The seeded workload recipes implied by this scale."""
        return [
            WorkloadRequest(name, length_scale=self.length_scale)
            for name in self.applications
        ]

    def policy_points(self) -> List[PolicyPoint]:
        """The sweep points implied by this scale."""
        data_policies = None
        if not self.include_all_data_policies:
            policies = paper_data_policies()
            data_policies = (policies[1], policies[-1])  # Valid and WB(32,32)
        return default_policy_points(
            retention_times_us=self.retention_times_us,
            timing_policies=self.timing_policies,
            data_policies=data_policies,
        )


def point_averages(
    sweep: SweepResult,
    point: PolicyPoint,
    applications: Optional[List[str]] = None,
) -> Dict[str, float]:
    """All-application averages of the normalised metrics at one sweep point.

    The grid-cell aggregation of the headline summary below and the report
    tables; the query service's per-point ``aggregates``
    (:func:`repro.api.answer.grid_aggregates`) take the same means, in the
    same order, of the ratios already on its answers.  Works on any
    ``SweepResult``, including the store-backed
    :class:`~repro.campaign.view.StoreSweep`.
    """
    memory = sweep.normalised_memory_energy(point, applications)
    system = sweep.normalised_system_energy(point, applications)
    time = sweep.normalised_execution_time(point, applications)
    count = len(memory)
    if count == 0:
        raise ValueError(f"no applications to average at {point.label}")
    return {
        "memory": sum(memory.values()) / count,
        "system": sum(system.values()) / count,
        "time": sum(time.values()) / count,
    }


def headline_summary(
    sweep: SweepResult, retention_us: float = 50.0
) -> Dict[str, float]:
    """The paper's headline comparison at one retention time.

    Returns the all-application averages of normalised memory energy, system
    energy and execution time for the naive eDRAM baseline (Periodic-All)
    and for Refrint WB(32, 32) -- the numbers quoted in the abstract
    (50 % / 72 % / 1.18x versus 36 % / 61 % / 1.02x at 50 us).
    """
    periodic_all = None
    refrint_wb = None
    for point in sweep.points_for_retention(retention_us):
        if point.policy_label == "P.all":
            periodic_all = point
        if point.policy_label == "R.WB(32,32)":
            refrint_wb = point
    if periodic_all is None or refrint_wb is None:
        raise ValueError(
            "the sweep does not contain the Periodic-All and Refrint-WB(32,32) "
            f"points at {retention_us:g} us"
        )

    naive = point_averages(sweep, periodic_all)
    refrint = point_averages(sweep, refrint_wb)
    return {
        "periodic_all_memory": naive["memory"],
        "periodic_all_system": naive["system"],
        "periodic_all_time": naive["time"],
        "refrint_wb32_memory": refrint["memory"],
        "refrint_wb32_system": refrint["system"],
        "refrint_wb32_time": refrint["time"],
    }
