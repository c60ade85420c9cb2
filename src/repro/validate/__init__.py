"""Counter-based validation of simulation results.

The simulator's CI currency is exact counters (protocol calls, refresh
drains and scans, activity counters); this package validates those
counters against what the WB(n, m) model says they *must* satisfy:

* :mod:`repro.validate.invariants` -- closed-form per-run invariants
  (energy ledgers, refresh cadence bounds, counter conservation laws)
  evaluated against one :class:`~repro.core.results.SimulationResult`;
* :mod:`repro.validate.anomaly` -- a streaming campaign scan that walks a
  :class:`~repro.campaign.view.StoreSweep` in bounded memory and flags grid
  points whose counter ratios break the expected monotone pattern across
  the Table 5.4 retention grid;
* :mod:`repro.validate.report` -- orchestration plus Markdown / JSON
  rendering for the ``validate`` CLI subcommand and the sweep report;
* :mod:`repro.validate.service` -- served-answer checks for the query
  service (exact/surrogate flag consistency, run invariants on exact
  payloads, surrogate metrics inside their corner envelope).
"""

from repro.validate.anomaly import Anomaly, AnomalyReport, scan_sweep
from repro.validate.invariants import (
    InvariantCheck,
    RunValidation,
    check_replay_stats,
    check_result,
)
from repro.validate.report import (
    CampaignValidation,
    as_json_dict,
    render_markdown,
    validate_sweep,
)
from repro.validate.service import check_response

__all__ = [
    "Anomaly",
    "AnomalyReport",
    "CampaignValidation",
    "InvariantCheck",
    "RunValidation",
    "as_json_dict",
    "check_replay_stats",
    "check_response",
    "check_result",
    "render_markdown",
    "scan_sweep",
    "validate_sweep",
]
