"""The Refrint refresh architecture: data policies and refresh controllers."""

from repro.refresh.controller import RefreshController, build_refresh_controllers
from repro.refresh.periodic import PeriodicRefreshController
from repro.refresh.policies import (
    DataPolicy,
    PolicyAction,
    PolicyDecision,
    make_data_policy,
)
from repro.refresh.refrint import RefrintRefreshController

__all__ = [
    "DataPolicy",
    "PeriodicRefreshController",
    "PolicyAction",
    "PolicyDecision",
    "RefreshController",
    "RefrintRefreshController",
    "build_refresh_controllers",
    "make_data_policy",
]
