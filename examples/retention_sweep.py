#!/usr/bin/env python3
"""Retention-time sensitivity and a custom refresh policy.

Two things are demonstrated here:

1. the effect of the eDRAM retention time (50 / 100 / 200 us in the paper's
   Table 5.4) on refresh energy and on the Periodic-vs-Refrint gap, and
2. how to plug a *custom* data policy into the refresh controllers.  A
   policy is a :class:`repro.refresh.policies.DataPolicy` whose
   ``decide()`` looks at one line object.  It runs on the object cache
   backend (``cache_backend="object"``), whose controllers ask it about
   every line they walk; the default array backend applies only the
   paper's four policies and refuses any other.

Run with::

    python examples/retention_sweep.py
"""

from __future__ import annotations

from repro.config.parameters import DataPolicySpec, SimulationConfig, TimingPolicyKind
from repro.core.simulator import RefrintSimulator
from repro.core.sweep import PolicyPoint
from repro.mem.line import CacheLine
from repro.refresh.policies import PolicyAction, PolicyDecision, ValidPolicy
from repro.workloads.suite import build_application


# ---------------------------------------------------------------------------
# Part 1: retention-time sensitivity (Table 5.4's retention axis)
# ---------------------------------------------------------------------------

def retention_sensitivity() -> None:
    reference = SimulationConfig.scaled()
    workload = build_application("barnes", reference, length_scale=0.4)
    baseline = RefrintSimulator(reference.as_sram_baseline()).run(workload)
    print("Retention-time sensitivity (barnes, normalised to full-SRAM)")
    print(f"{'retention':>10s} {'policy':>12s} {'memory':>8s} {'refresh share':>14s} {'time':>6s}")
    for retention_us in (50.0, 100.0, 200.0):
        for timing in (TimingPolicyKind.PERIODIC, TimingPolicyKind.REFRINT):
            point = PolicyPoint(retention_us, timing, DataPolicySpec.valid())
            config = point.simulation_config(reference.architecture)
            result = RefrintSimulator(config).run(workload)
            refresh_share = (
                result.energy.by_component["refresh"] / baseline.memory_energy()
            )
            print(
                f"{retention_us:>8.0f}us {point.policy_label:>12s} "
                f"{result.normalised_memory_energy(baseline):8.3f} "
                f"{refresh_share:14.3f} "
                f"{result.normalised_execution_time(baseline):6.3f}"
            )
    print()


# ---------------------------------------------------------------------------
# Part 2: plugging in a custom data policy
# ---------------------------------------------------------------------------

class RecentlyUsedPolicy(ValidPolicy):
    """Refresh a valid line only if it was accessed in the last N cycles.

    This is *not* one of the paper's policies -- it is an example of how a
    downstream user can express "let cold lines decay" with the library's
    policy interface.  Lines idle for longer than ``idle_limit_cycles`` are
    invalidated instead of refreshed.
    """

    label = "recently-used"

    def __init__(self, idle_limit_cycles: int) -> None:
        self.idle_limit_cycles = idle_limit_cycles
        self._now = 0

    def set_time(self, cycle: int) -> None:
        """The controller's view of time, injected before each decision."""
        self._now = cycle

    def decide(self, line: CacheLine) -> PolicyDecision:
        if not line.valid:
            return PolicyDecision(PolicyAction.SKIP)
        idle_for = self._now - line.last_access_cycle
        if idle_for > self.idle_limit_cycles:
            return PolicyDecision(PolicyAction.INVALIDATE)
        return PolicyDecision(PolicyAction.REFRESH)


def custom_policy_demo() -> None:
    from repro.hierarchy.hierarchy import CacheHierarchy
    from repro.refresh.refrint import RefrintRefreshController
    from repro.utils.events import EventQueue

    reference = SimulationConfig.scaled()
    architecture = reference.architecture
    # A plugged-in policy needs line objects: the object backend.
    hierarchy = CacheHierarchy(architecture, cache_backend="object")
    events = EventQueue()
    refresh = reference.refresh
    assert refresh is not None

    # Attach the custom policy to one L3 bank and drive it by hand.
    bank = hierarchy.banks[0]
    policy = RecentlyUsedPolicy(idle_limit_cycles=2 * refresh.retention_cycles)
    controller = RefrintRefreshController(
        "l3", 0, bank.cache, policy, refresh, hierarchy, events
    )
    controller.start(0)

    # Touch a handful of blocks owned by bank 0, then let time pass.
    line_bytes = architecture.line_bytes
    for index in range(8):
        address = index * line_bytes * architecture.num_l3_banks  # bank 0 blocks
        hierarchy.read(0, address, cycle=index)
    policy.set_time(0)
    horizon = 8 * refresh.retention_cycles
    # Advance in chunks, keeping the policy's clock in sync with the queue.
    step = refresh.retention_cycles
    for until in range(step, horizon + step, step):
        policy.set_time(until)
        events.run(until=until)

    print("Custom 'recently-used' policy demo (one L3 bank):")
    print(f"  valid lines remaining : {bank.cache.count_valid()}")
    print(f"  refreshes performed   : {hierarchy.counters['l3_refreshes']}")
    print(f"  policy invalidations  : {hierarchy.counters['l3_policy_invalidations_total']}")
    print("  (idle lines were invalidated instead of being refreshed forever)")


if __name__ == "__main__":
    retention_sensitivity()
    custom_policy_demo()
