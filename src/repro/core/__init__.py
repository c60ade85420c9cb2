"""Top-level simulator, results, parameter sweep and application classes."""

from repro.core.classes import APPLICATION_CLASSES, class_of, class_members
from repro.core.results import SimulationResult
from repro.core.simulator import RefrintSimulator
from repro.core.sweep import PolicyPoint, SweepResult, default_policy_points

__all__ = [
    "APPLICATION_CLASSES",
    "PolicyPoint",
    "RefrintSimulator",
    "SimulationResult",
    "SweepResult",
    "class_members",
    "class_of",
    "default_policy_points",
]
