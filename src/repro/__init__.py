"""Refrint reproduction library.

This package reproduces the system described in *Refrint: Intelligent
refresh to minimize power in on-chip multiprocessor cache hierarchies*
(Jain, UIUC / HPCA 2013 work with Josep Torrellas).

The library is organised in layers:

* substrates -- a trace-driven 16-core chip-multiprocessor simulator with a
  three-level inclusive cache hierarchy, a directory MESI coherence protocol,
  a 4x4 torus on-chip network, and a flat-latency DRAM model
  (:mod:`repro.mem`, :mod:`repro.coherence`, :mod:`repro.hierarchy`,
  :mod:`repro.noc`, :mod:`repro.cpu`);
* the paper's contribution -- the eDRAM refresh architecture with Sentry
  bits, Periodic and Refrint timing policies, and All / Valid / Dirty /
  WB(n, m) data policies (:mod:`repro.refresh`);
* measurement -- the energy model and accounting (:mod:`repro.energy`);
* experiments -- workload generators, the parameter sweep of Table 5.4 and
  the regeneration of every evaluation table and figure
  (:mod:`repro.workloads`, :mod:`repro.core`, :mod:`repro.experiments`);
* campaign -- parallel, resumable sweep execution with a persistent
  content-addressed result store (:mod:`repro.campaign`);
* serving -- the typed query API and the asyncio HTTP service answering
  (workload, config-grid) queries from any store, with coalescing and
  surrogate interpolation (:mod:`repro.api`, :mod:`repro.service`).

Quickstart
----------

>>> from repro import RefrintSimulator, SimulationConfig
>>> from repro.workloads import build_application
>>> config = SimulationConfig.scaled()
>>> app = build_application("fft", config)
>>> result = RefrintSimulator(config).run(app)
>>> result.energy.memory_total() > 0
True
"""

from repro.api import (
    PointAnswer,
    Provenance,
    Query,
    QueryRequest,
    QueryResponse,
    QueryValidationError,
    SurrogateLattice,
    answer_query,
)
from repro.campaign import (
    CampaignStats,
    ParallelExecutor,
    SegmentResultStore,
    SerialExecutor,
    StoreSweep,
    open_store,
    run_campaign,
    stream_campaign,
)
from repro.config.parameters import (
    ArchitectureConfig,
    CacheGeometry,
    CellTechnology,
    DataPolicyKind,
    RefreshConfig,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.core.results import SimulationResult
from repro.core.simulator import RefrintSimulator
from repro.core.sweep import PolicyPoint, SweepResult
from repro.service import SweepService, make_service, run_service, serve
from repro.workloads.suite import WorkloadRequest

__version__ = "1.2.0"

__all__ = [
    "ArchitectureConfig",
    "CacheGeometry",
    "CampaignStats",
    "CellTechnology",
    "DataPolicyKind",
    "ParallelExecutor",
    "PointAnswer",
    "PolicyPoint",
    "Provenance",
    "Query",
    "QueryRequest",
    "QueryResponse",
    "QueryValidationError",
    "RefreshConfig",
    "RefrintSimulator",
    "SegmentResultStore",
    "SerialExecutor",
    "SimulationConfig",
    "SimulationResult",
    "StoreSweep",
    "SurrogateLattice",
    "SweepResult",
    "SweepService",
    "TimingPolicyKind",
    "WorkloadRequest",
    "answer_query",
    "make_service",
    "open_store",
    "run_campaign",
    "run_service",
    "serve",
    "stream_campaign",
    "__version__",
]
