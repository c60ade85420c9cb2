"""Analytic per-run invariants: closed-form bounds every run must satisfy.

Each invariant is an exact consequence of the model -- not a regression
snapshot.  A violation therefore means a *modelling or accounting bug*, not
a perturbed workload: refresh energy must equal refresh operations times the
per-op energy of :mod:`repro.energy.tables`; the number of refreshes a level
can perform is bounded by its (level-scaled) retention period and the run
length; counter conservation laws (DRAM reads + writes == DRAM accesses,
router hops == link hops, hits + misses never exceeding accesses) must hold
on every cache backend.

The engine works on any :class:`~repro.core.results.SimulationResult`:

* a *fresh* result carries its :class:`~repro.config.parameters.SimulationConfig`,
  so every invariant (including the config-dependent refresh-cadence bounds)
  is evaluated;
* a *restored* result (loaded from a store or JSON summary) has
  ``config=None``; callers that know the campaign's architecture pass a
  reconstructed config (see :func:`repro.validate.report.validate_sweep`),
  otherwise the config-dependent checks are skipped and only the structural
  ledgers run.

``check_replay_stats`` validates the event-loop side
(:class:`~repro.core.simulator.ReplayStats`): every reference walks the
protocol, and the refresh timers' ``skips <= scans`` law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config.parameters import (
    CellTechnology,
    DataPolicyKind,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.core.results import SimulationResult
from repro.core.simulator import ReplayStats
from repro.energy.accounting import COMPONENTS, MEMORY_LEVELS
from repro.energy.tables import (
    NANOJOULE,
    TechnologyTables,
    default_tables,
    geometry_for_level,
    instances_for_level,
)
from repro.refresh.controller import level_refresh_config

#: Cache levels carrying their own activity counters.
CACHE_LEVELS = ("l1i", "l1d", "l2", "l3")

#: Relative tolerance for closed-form energy comparisons.  The model and the
#: engine sum identical float terms in different orders, so agreement is
#: expected to a few ulps; 1e-9 relative leaves ~7 decimal digits of margin.
REL_TOL = 1e-9

#: Absolute floor for near-zero energy comparisons (joule scale).
ABS_TOL = 1e-18


@dataclass(frozen=True)
class InvariantCheck:
    """Outcome of one invariant evaluated against one run."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class RunValidation:
    """All invariant outcomes for one (application, configuration) run."""

    application: str
    label: str
    checks: List[InvariantCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return all(check.ok for check in self.checks)

    @property
    def violations(self) -> List[InvariantCheck]:
        """The failed checks only."""
        return [check for check in self.checks if not check.ok]


def _close(measured: float, expected: float) -> bool:
    return math.isclose(measured, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class _Collector:
    """Tiny helper: append pass/fail checks with uniform detail strings."""

    def __init__(self) -> None:
        self.checks: List[InvariantCheck] = []

    def equal(self, name: str, measured: float, expected: float) -> None:
        ok = _close(measured, expected)
        detail = "" if ok else f"measured {measured!r}, expected {expected!r}"
        self.checks.append(InvariantCheck(name, ok, detail))

    def bounded(self, name: str, value: float, bound: float) -> None:
        ok = value <= bound
        detail = "" if ok else f"{value!r} exceeds bound {bound!r}"
        self.checks.append(InvariantCheck(name, ok, detail))

    def require(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(InvariantCheck(name, ok, "" if ok else detail))


def check_result(
    result: SimulationResult,
    config: Optional[SimulationConfig] = None,
    tables: Optional[TechnologyTables] = None,
    replay_stats: Optional[ReplayStats] = None,
) -> RunValidation:
    """Evaluate every applicable invariant against one run.

    Args:
        result: the run to validate (fresh or restored).
        config: configuration override for restored results whose campaign
            context is known; defaults to ``result.config``.
        tables: energy tables the run was accounted with; defaults to the
            technology's standard tables.
        replay_stats: when given (live runs only -- replay stats are not
            serialised), the event-loop invariants are appended too.
    """
    cfg = config if config is not None else result.config
    label = result.label
    is_edram = cfg.is_edram if cfg is not None else label != "SRAM"
    technology = CellTechnology.EDRAM if is_edram else CellTechnology.SRAM
    tables = tables if tables is not None else default_tables(technology)
    counters = result.counters
    collect = _Collector()

    _check_counter_conservation(collect, counters)
    _check_energy_ledger(collect, result, tables, is_edram)
    if cfg is not None:
        _check_leakage(collect, result, cfg, tables)
        if is_edram:
            _check_refresh_cadence(collect, result, cfg)
    if not is_edram:
        _check_sram_is_refresh_free(collect, counters, result)
    _check_timing(collect, result)
    if replay_stats is not None:
        collect.checks.extend(check_replay_stats(replay_stats))
    return RunValidation(
        application=result.application, label=label, checks=collect.checks
    )


# -- invariant groups ---------------------------------------------------------


def _check_counter_conservation(
    collect: _Collector, counters: Dict[str, int]
) -> None:
    """Conservation laws between raw counters (config-independent)."""
    get = lambda name: counters.get(name, 0)  # noqa: E731 - local shorthand
    for level in CACHE_LEVELS:
        hits = get(f"{level}_hits")
        misses = get(f"{level}_misses")
        accesses = get(f"{level}_reads") + get(f"{level}_writes")
        collect.bounded(
            f"{level}-hits-misses-within-accesses", hits + misses, accesses
        )
    collect.equal(
        "dram-access-split",
        get("dram_reads") + get("dram_writes"),
        get("dram_accesses"),
    )
    collect.equal(
        "network-hop-symmetry",
        get("network_router_hops"),
        get("network_link_hops"),
    )
    zeros = sorted(name for name, value in counters.items() if value == 0)
    collect.require(
        "no-phantom-zero-counters",
        not zeros,
        f"zero-valued counters materialised: {', '.join(zeros)}",
    )
    collect.require(
        "no-negative-counters",
        all(value >= 0 for value in counters.values()),
        "a counter went negative",
    )
    collect.equal("decay-free", get("decay_violations"), 0)


def _check_energy_ledger(
    collect: _Collector,
    result: SimulationResult,
    tables: TechnologyTables,
    is_edram: bool,
) -> None:
    """Closed-form energy recomputation from counters and tables."""
    counters = result.counters
    energy = result.energy
    dynamic = 0.0
    refresh = 0.0
    for level in CACHE_LEVELS:
        table = tables.cache(level)
        reads = counters.get(f"{level}_reads", 0)
        writes = counters.get(f"{level}_writes", 0)
        dynamic += (
            reads * table.read_energy_nj + writes * table.write_energy_nj
        ) * NANOJOULE
        refresh += (
            counters.get(f"{level}_refreshes", 0)
            * table.refresh_energy_nj
            * NANOJOULE
        )
    collect.equal(
        "dynamic-energy-closed-form",
        energy.by_component.get("dynamic", 0.0),
        dynamic,
    )
    collect.equal(
        "refresh-energy-closed-form",
        energy.by_component.get("refresh", 0.0),
        refresh if is_edram else 0.0,
    )
    dram = (
        counters.get("dram_accesses", 0) * tables.dram_access_energy_nj * NANOJOULE
    )
    collect.equal("dram-energy-closed-form", energy.by_component.get("dram", 0.0), dram)
    collect.equal("dram-level-equals-component", energy.by_level.get("dram", 0.0), dram)
    by_level = sum(energy.by_level.get(level, 0.0) for level in MEMORY_LEVELS)
    by_component = sum(
        energy.by_component.get(component, 0.0) for component in COMPONENTS
    )
    collect.equal("energy-ledger-balance", by_level, by_component)
    collect.equal("energy-ledger-total", energy.memory_total(), by_level)
    network = (
        counters.get("network_router_hops", 0) * tables.router_hop_energy_nj
        + counters.get("network_link_hops", 0) * tables.link_hop_energy_nj
    ) * NANOJOULE
    collect.equal(
        "network-energy-closed-form", energy.system.get("network", 0.0), network
    )


def _check_leakage(
    collect: _Collector,
    result: SimulationResult,
    cfg: SimulationConfig,
    tables: TechnologyTables,
) -> None:
    """Leakage = per-instance static power x instances x run seconds."""
    architecture = cfg.architecture
    seconds = architecture.seconds_from_cycles(result.execution_cycles)
    leakage = sum(
        tables.cache(level).leakage_power_w
        * instances_for_level(architecture, level)
        * seconds
        for level in CACHE_LEVELS
    )
    collect.equal(
        "leakage-energy-closed-form",
        result.energy.by_component.get("leakage", 0.0),
        leakage,
    )


def _check_refresh_cadence(
    collect: _Collector, result: SimulationResult, cfg: SimulationConfig
) -> None:
    """Refresh counts against the retention-derived cadence bounds.

    A periodic group is walked at most once per (level-scaled) retention
    period; a Refrint line is served at most once per *sentry* retention
    (the margin-shortened period).  Either way the per-level refresh count
    is bounded by ``instances x lines x (passes possible in the run)`` --
    an exact ceiling, independent of the workload.
    """
    assert cfg.refresh is not None
    refresh = cfg.refresh
    architecture = cfg.architecture
    counters = result.counters
    cycles = result.execution_cycles
    periodic = refresh.timing_policy is TimingPolicyKind.PERIODIC
    for level in CACHE_LEVELS:
        geometry = geometry_for_level(architecture, level)
        level_cfg = level_refresh_config(cfg, level, geometry.num_lines)
        period = (
            level_cfg.retention_cycles
            if periodic
            else level_cfg.sentry_retention_cycles
        )
        passes = cycles // period + 1
        instances = instances_for_level(architecture, level)
        collect.bounded(
            f"{level}-refresh-cadence",
            counters.get(f"{level}_refreshes", 0),
            instances * geometry.num_lines * passes,
        )
        policy_level = "l1" if level in ("l1i", "l1d") else level
        policy = refresh.data_policy_for_level(policy_level)
        if periodic:
            groups = geometry.num_refresh_groups
            collect.bounded(
                f"{level}-periodic-pass-cadence",
                counters.get(f"{level}_periodic_passes", 0),
                instances * groups * passes,
            )
            # Under All the bulk pass stamps every line of the group, so
            # with uniform groups the refresh count is *exactly* passes
            # times the group size -- the idle-line cadence equality.
            if (
                policy.kind is DataPolicyKind.ALL
                and geometry.num_lines % geometry.num_refresh_groups == 0
            ):
                collect.equal(
                    f"{level}-periodic-all-exact",
                    counters.get(f"{level}_refreshes", 0),
                    counters.get(f"{level}_periodic_passes", 0)
                    * geometry.lines_per_refresh_group,
                )
        else:
            # Lines of one sentry group recharge (and hence decay) at
            # staggered times, so a group may be scanned once per *due
            # line*, not once per period: each served scan handles at
            # least one due line, and a given line comes due at most once
            # per sentry retention.  The per-line ceiling is therefore
            # the tightest workload-independent bound.
            interrupts = counters.get(f"{level}_sentry_interrupts", 0)
            collect.bounded(
                f"{level}-sentry-interrupt-cadence",
                interrupts,
                instances * geometry.num_lines * passes,
            )
            # A served interrupt scan processes at least one due line, and
            # every processed line is refreshed, written back or
            # invalidated.
            handled = (
                counters.get(f"{level}_refreshes", 0)
                + counters.get(f"{level}_policy_writebacks_total", 0)
                + counters.get(f"{level}_policy_invalidations_total", 0)
            )
            collect.bounded(
                f"{level}-sentry-interrupts-productive", interrupts, handled
            )


def _check_sram_is_refresh_free(
    collect: _Collector, counters: Dict[str, int], result: SimulationResult
) -> None:
    """The SRAM baseline must carry zero refresh machinery activity."""
    refresh_keys = sorted(
        name
        for name in counters
        if name.endswith(
            (
                "_refreshes",
                "_sentry_interrupts",
                "_periodic_passes",
                "_policy_writebacks_total",
                "_policy_invalidations_total",
                "_refresh_stall_cycles",
            )
        )
    )
    collect.require(
        "sram-no-refresh-activity",
        not refresh_keys,
        f"SRAM run reports refresh counters: {', '.join(refresh_keys)}",
    )
    collect.equal(
        "sram-no-refresh-energy", result.energy.by_component.get("refresh", 0.0), 0.0
    )


def _check_timing(collect: _Collector, result: SimulationResult) -> None:
    """Execution-time bookkeeping between the cores and the headline number."""
    finishes = result.per_core_finish_cycles
    if finishes:
        collect.equal(
            "slowest-core-defines-execution",
            max(finishes),
            result.execution_cycles,
        )
        collect.bounded(
            "busy-cycles-within-envelope",
            result.busy_core_cycles,
            len(finishes) * result.execution_cycles,
        )
    collect.bounded("execution-cycles-positive", 1, result.execution_cycles)


def check_replay_stats(stats: ReplayStats) -> List[InvariantCheck]:
    """Event-loop invariants for one live run's :class:`ReplayStats`.

    Every data reference is one protocol walk (real instruction fetches add
    more), so protocol calls cover the references.  A skip is a served
    refresh timer whose handler found nothing due, so skips never exceed
    scans.
    """
    collect = _Collector()
    collect.bounded(
        "protocol-calls-cover-references", stats.references, stats.protocol_calls
    )
    collect.bounded("wheel-skips-within-scans", stats.wheel_skips, stats.wheel_scans)
    return collect.checks
