"""Spans around calls into each ``repro`` layer, installed from outside.

:func:`install` rebinds the public entry points of every layer to timing
wrappers.  Each name is patched where its caller looks it up: module-level
functions in the calling module's namespace (``repro.core.simulator.
build_refresh_controllers``), methods on their class.  Nothing under
``src/`` changes; the untraced runs never import this module.

A span is ``(name, start, end, span id, parent id, request id)``.  The
parent comes from a context variable, so nesting follows the call stack of
each thread and each asyncio task.  The HTTP wrapper reads the client's
``?rid=N`` from the request line, and every span under that request carries
``N``.  A backfill started by a request is a root span without a request
id, because it runs off that request's path.  Spans stay in memory and are
written once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import re
import time
from collections import Counter
from typing import Callable, List

from bench_stats import Span

#: ReplayStats fields summed over every simulation of a traced run.
REPLAY_FIELDS = (
    "references",
    "protocol_calls",
    "slow_references",
    "wheel_drains",
    "wheel_scans",
    "wheel_skips",
)

_RID = re.compile(rb"[?&]rid=(\d+)")


class Tracer:
    """Records spans and replay counts for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.replay: Counter = Counter()
        self._ids = itertools.count(1)
        # (span id, request holder) of the innermost open span.
        self._current = contextvars.ContextVar("bench_span", default=None)

    def _open(self, root: bool):
        parent = None if root else self._current.get()
        request = parent[1] if parent is not None else {"rid": None}
        span_id = next(self._ids)
        token = self._current.set((span_id, request))
        return span_id, (parent[0] if parent is not None else None), request, token

    def _close(self, name, start, span_id, parent_id, request, token) -> None:
        end = time.monotonic()
        self._current.reset(token)
        self.spans.append((name, start, end, span_id, parent_id, request["rid"]))

    def wrap(self, name: str, func: Callable, root: bool = False) -> Callable:
        """A synchronous span around ``func``; ``root`` detaches it from the
        caller's span and request."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id, parent_id, request, token = self._open(root)
            start = time.monotonic()
            try:
                return func(*args, **kwargs)
            finally:
                self._close(name, start, span_id, parent_id, request, token)

        return traced

    def wrap_async(self, name: str, func: Callable) -> Callable:
        """A span around a coroutine function, from call to completion."""

        @functools.wraps(func)
        async def traced(*args, **kwargs):
            span_id, parent_id, request, token = self._open(False)
            start = time.monotonic()
            try:
                return await func(*args, **kwargs)
            finally:
                self._close(name, start, span_id, parent_id, request, token)

        return traced

    def wrap_http(self, name: str, handler: Callable) -> Callable:
        """A span around one HTTP connection that learns its request id."""

        @functools.wraps(handler)
        async def traced(service, reader, writer):
            span_id, parent_id, request, token = self._open(root=True)
            read_head = reader.readuntil

            async def sniff(separator=b"\n"):
                head = await read_head(separator)
                match = _RID.search(head.split(b"\r\n", 1)[0])
                if match:
                    request["rid"] = int(match.group(1))
                return head

            reader.readuntil = sniff
            start = time.monotonic()
            try:
                return await handler(service, reader, writer)
            finally:
                self._close(name, start, span_id, parent_id, request, token)

        return traced

    def wrap_run(self, func: Callable) -> Callable:
        """The simulator's ``run``: a span plus its ReplayStats."""
        traced = self.wrap("access", func)

        @functools.wraps(func)
        def run(simulator, application):
            result = traced(simulator, application)
            stats = simulator.last_replay_stats
            for field in REPLAY_FIELDS:
                self.replay[field] += getattr(stats, field)
            self.replay["runs"] += 1
            return result

        return run

    def dump(self, path) -> None:
        """Write every span and count to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "replay": dict(self.replay)}, handle)


def _patch_method(tracer: Tracer, cls, attr: str, name: str) -> None:
    setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr]))


def _patch_classmethod(tracer: Tracer, cls, attr: str, name: str) -> None:
    setattr(cls, attr, classmethod(tracer.wrap(name, cls.__dict__[attr].__func__)))


def _patch_global(tracer: Tracer, module, attr: str, name: str, root=False) -> None:
    setattr(module, attr, tracer.wrap(name, getattr(module, attr), root=root))


def install() -> Tracer:
    """Wrap every layer's entry points; returns the recording tracer."""
    import repro.campaign.jobs as jobs
    import repro.cli as cli
    import repro.core.simulator as simulator
    import repro.experiments.figures as figures
    import repro.service.core as service_core
    import repro.service.http as http
    import repro.workloads.suite as suite
    from repro.api.query import QueryRequest, QueryResponse
    from repro.api.surrogate import SurrogateLattice
    from repro.campaign.segments import SegmentResultStore
    from repro.campaign.store import BaseResultStore, ResultStore
    from repro.core.results import SimulationResult
    from repro.core.sweep import SweepResult
    from repro.cpu.core import Core
    from repro.energy.model import SystemEnergyModel
    from repro.hierarchy.hierarchy import CacheHierarchy
    from repro.utils.events import EventQueue

    tracer = Tracer()

    # Simulation: workload build, construction, replay, refresh, energy.
    _patch_global(tracer, suite, "build_application", "workloads.build")
    _patch_method(tracer, CacheHierarchy, "__init__", "hierarchy.init")
    _patch_method(tracer, Core, "__init__", "cpu.core_init")
    _patch_global(tracer, simulator, "build_refresh_controllers", "refresh.build")
    _patch_method(tracer, EventQueue, "run_until_key", "refresh.drain")
    _patch_method(tracer, SystemEnergyModel, "account_for", "energy.account")
    simulator.RefrintSimulator.run = tracer.wrap_run(
        simulator.RefrintSimulator.__dict__["run"]
    )

    # Results, store and job hashing.
    _patch_method(tracer, SimulationResult, "to_dict", "results.to_dict")
    _patch_classmethod(tracer, SimulationResult, "from_dict", "results.from_dict")
    _patch_method(tracer, BaseResultStore, "put", "campaign.store_put")
    _patch_method(tracer, BaseResultStore, "flush", "campaign.store_put")
    _patch_method(tracer, SegmentResultStore, "flush", "campaign.store_put")
    _patch_method(tracer, SegmentResultStore, "get", "campaign.store_get")
    _patch_method(tracer, ResultStore, "get", "campaign.store_get")
    _patch_method(tracer, jobs.Job, "hash_payload", "campaign.job_hash")
    _patch_global(tracer, jobs, "hash_payload_digest", "campaign.job_hash")

    # Figures, headline, report and the JSON summary of a sweep.
    for attr in ("figure_6_1", "figure_6_2", "figure_6_3", "figure_6_4", "render_figure"):
        _patch_global(tracer, figures, attr, "experiments.render")
    _patch_global(tracer, cli, "headline_summary", "experiments.render")
    _patch_global(tracer, cli, "sweep_report", "experiments.render")
    _patch_method(tracer, SweepResult, "to_dict", "experiments.render")

    # Query API: parsing (the CLI's arguments go through the same schema),
    # normalisation, surrogates, aggregates and response encoding.
    _patch_classmethod(tracer, QueryRequest, "from_dict", "api.parse")
    _patch_method(tracer, QueryRequest, "__post_init__", "api.parse")
    for attr in ("normalise", "policy_points", "workload_requests"):
        _patch_method(tracer, QueryRequest, attr, "api.normalise")
    _patch_method(tracer, SurrogateLattice, "interpolate", "api.surrogate")
    _patch_global(tracer, service_core, "grid_aggregates", "api.aggregates")
    _patch_method(tracer, QueryResponse, "to_dict", "api.to_dict")

    # Service: answers, the run_jobs seam behind backfills, HTTP.
    service_core.SweepService.answer = tracer.wrap_async(
        "service.answer", service_core.SweepService.__dict__["answer"]
    )
    _patch_global(tracer, service_core, "default_run_jobs", "service.backfill", root=True)
    http.handle_connection = tracer.wrap_http("http", http.handle_connection)
    return tracer
