"""Synthetic multi-threaded workloads standing in for SPLASH-2 / PARSEC."""

from repro.workloads.suite import (
    APPLICATION_NAMES,
    ApplicationWorkload,
    WorkloadSpec,
    application_class,
    application_specs,
    build_application,
)
from repro.workloads.synthetic import SyntheticTraceGenerator

__all__ = [
    "APPLICATION_NAMES",
    "ApplicationWorkload",
    "SyntheticTraceGenerator",
    "WorkloadSpec",
    "application_class",
    "application_specs",
    "build_application",
]
