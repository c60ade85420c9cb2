"""Sweep-as-a-service: the asyncio front end over the campaign engine.

:class:`SweepService` (:mod:`repro.service.core`) answers typed queries on
an event loop -- memoised from the result store, coalesced on job hash,
surrogate-backed off-grid, with exact backfill.  :func:`serve`
(:mod:`repro.service.http`) puts the stdlib HTTP layer on top, and
:func:`run_service` is the blocking entry point behind ``repro.cli serve``.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

from repro.api.answer import RunJobs
from repro.campaign.store import BaseResultStore
from repro.service.core import (
    DEFAULT_MAX_CONCURRENT_BATCHES,
    ServiceStats,
    SweepService,
    make_service,
)
from repro.service.http import HttpError, handle_connection, serve

__all__ = [
    "DEFAULT_MAX_CONCURRENT_BATCHES",
    "HttpError",
    "ServiceStats",
    "SweepService",
    "handle_connection",
    "make_service",
    "run_service",
    "serve",
]


def run_service(
    store: Optional[BaseResultStore] = None,
    host: str = "127.0.0.1",
    port: int = 8023,
    jobs: int = 1,
    surrogate_retentions: Optional[Tuple[float, ...]] = None,
    validate_answers: bool = False,
    announce=print,
) -> None:
    """Build the service over an opened store, serve until interrupted
    (blocking)."""
    from repro.campaign.engine import make_executor

    run_jobs: Optional[RunJobs] = None
    if jobs > 1:
        executor = make_executor(jobs)

        def run_jobs(batch, _executor=executor):
            by_key = {job.key(): result for job, result in _executor.run(batch)}
            return [by_key[job.key()] for job in batch]

    service = make_service(
        store=store,
        run_jobs=run_jobs,
        surrogate_retentions=surrogate_retentions,
        validate_answers=validate_answers,
    )

    async def _main() -> None:
        server = await serve(service, host=host, port=port)
        bound = server.sockets[0].getsockname()
        if announce is not None:
            announce(
                f"serving sweep queries on http://{bound[0]}:{bound[1]} "
                f"(store: {store.root if store is not None else 'none'}, "
                f"surrogate: {'on' if service.lattice is not None else 'off'})"
            )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
