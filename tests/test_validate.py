"""Tests for the counter-validation layer (:mod:`repro.validate`).

Three angles:

* the invariant engine holds on *real* runs of every configuration family
  (and its checks actually fire when a result is deliberately corrupted);
* the streaming anomaly scan walks a 100+-point synthetic campaign in
  bounded memory -- never materialising the sweep -- and flags exactly the
  grid point whose counters were corrupted;
* the campaign-level orchestration (:func:`validate_sweep`) plus its
  Markdown / JSON renderings.
"""

from __future__ import annotations

import pytest

from repro.campaign.jobs import enumerate_jobs
from repro.campaign.segments import SegmentResultStore
from repro.campaign.view import StoreSweep
from repro.config.parameters import (
    DataPolicySpec,
    RefreshConfig,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.config.presets import scaled_architecture, scaled_retention_cycles
from repro.core.results import SimulationResult
from repro.core.simulator import RefrintSimulator, ReplayStats
from repro.core.sweep import PolicyPoint, SweepResult
from repro.energy.accounting import EnergyBreakdown
from repro.noc.network import TorusNetwork
from repro.noc.topology import TorusTopology
from repro.validate import (
    check_replay_stats,
    check_result,
    render_markdown,
    as_json_dict,
    scan_sweep,
    validate_sweep,
)
from repro.workloads.suite import WorkloadRequest, build_application

LENGTH_SCALE = 0.05


def _edram_config(architecture, timing, data, retention_us=50.0):
    retention = scaled_retention_cycles(retention_us)
    refresh = RefreshConfig(
        retention_cycles=retention,
        sentry_margin_cycles=RefreshConfig.derive_sentry_margin(
            architecture.l3_bank.num_lines, retention
        ),
        timing_policy=timing,
        l3_data_policy=data,
    )
    return SimulationConfig.edram(refresh, architecture)


@pytest.fixture(scope="module")
def arch():
    return scaled_architecture()


@pytest.fixture(scope="module")
def workload(arch):
    return build_application("fft", arch, length_scale=LENGTH_SCALE)


@pytest.fixture(scope="module")
def live_runs(arch, workload):
    """(config, result, replay stats) per configuration family, real runs."""
    configs = {
        "SRAM": SimulationConfig.sram(arch),
        "P.all": _edram_config(
            arch, TimingPolicyKind.PERIODIC, DataPolicySpec.all_lines()
        ),
        "R.WB(32,32)": _edram_config(
            arch, TimingPolicyKind.REFRINT, DataPolicySpec.writeback(32, 32)
        ),
    }
    runs = {}
    for label, config in configs.items():
        simulator = RefrintSimulator(config)
        result = simulator.run(workload)
        runs[label] = (config, result, simulator.last_replay_stats)
    return runs


class TestInvariantEngine:
    @pytest.mark.parametrize("label", ["SRAM", "P.all", "R.WB(32,32)"])
    def test_live_runs_hold_every_invariant(self, live_runs, label):
        config, result, stats = live_runs[label]
        validation = check_result(result, config=config, replay_stats=stats)
        assert validation.ok, [
            (check.name, check.detail) for check in validation.violations
        ]
        assert len(validation.checks) > 20  # the engine actually ran

    def test_edram_runs_include_cadence_checks(self, live_runs):
        config, result, _ = live_runs["R.WB(32,32)"]
        names = {check.name for check in check_result(result, config=config).checks}
        assert "l3-sentry-interrupt-cadence" in names
        assert "l3-refresh-cadence" in names

    def test_periodic_all_has_exact_idle_line_cadence(self, live_runs):
        config, result, _ = live_runs["P.all"]
        checks = {
            check.name: check for check in check_result(result, config=config).checks
        }
        assert checks["l3-periodic-all-exact"].ok

    def test_corrupted_refresh_energy_is_caught(self, live_runs):
        config, result, _ = live_runs["P.all"]
        corrupt = SimulationResult.from_dict(result.to_dict())
        corrupt.energy.by_component["refresh"] *= 1.5
        validation = check_result(corrupt, config=config)
        assert not validation.ok
        assert "refresh-energy-closed-form" in {
            check.name for check in validation.violations
        }

    def test_corrupted_refresh_count_breaks_cadence_bound(self, live_runs):
        config, result, _ = live_runs["P.all"]
        corrupt = SimulationResult.from_dict(result.to_dict())
        corrupt.counters["l3_refreshes"] *= 10_000
        validation = check_result(corrupt, config=config)
        names = {check.name for check in validation.violations}
        assert "l3-refresh-cadence" in names

    def test_phantom_zero_counter_is_caught(self, live_runs):
        config, result, _ = live_runs["SRAM"]
        corrupt = SimulationResult.from_dict(result.to_dict())
        corrupt.counters["l2_bogus"] = 0
        validation = check_result(corrupt, config=config)
        violations = {check.name: check for check in validation.violations}
        assert "no-phantom-zero-counters" in violations
        assert "l2_bogus" in violations["no-phantom-zero-counters"].detail

    def test_sram_refresh_activity_is_caught(self, live_runs):
        config, result, _ = live_runs["SRAM"]
        corrupt = SimulationResult.from_dict(result.to_dict())
        corrupt.counters["l3_refreshes"] = 7
        validation = check_result(corrupt, config=config)
        assert "sram-no-refresh-activity" in {
            check.name for check in validation.violations
        }

    def test_restored_result_without_config_still_validates(self, live_runs):
        _, result, _ = live_runs["P.all"]
        restored = SimulationResult.from_dict(result.to_dict())
        validation = check_result(restored)  # no config available
        assert validation.ok
        names = {check.name for check in validation.checks}
        # Config-dependent groups are skipped, structural ledgers still run.
        assert "l3-refresh-cadence" not in names
        assert "leakage-energy-closed-form" not in names
        assert "refresh-energy-closed-form" in names


class TestReplayStats:
    def test_consistent_stats_pass(self):
        stats = ReplayStats(
            references=100,
            protocol_calls=130,
            wheel_drains=8,
            wheel_skips=3,
            wheel_scans=12,
        )
        checks = check_replay_stats(stats)
        assert checks and all(check.ok for check in checks)

    def test_every_reference_walks_the_protocol(self):
        stats = ReplayStats(references=10, protocol_calls=10)
        assert stats.slow_references == stats.references

    def test_skips_beyond_scans_fail(self):
        stats = ReplayStats(
            references=10, protocol_calls=10, wheel_skips=5, wheel_scans=2
        )
        failed = {c.name for c in check_replay_stats(stats) if not c.ok}
        assert failed == {"wheel-skips-within-scans"}

    def test_references_beyond_protocol_calls_fail(self):
        stats = ReplayStats(references=10, protocol_calls=9)
        failed = {c.name for c in check_replay_stats(stats) if not c.ok}
        assert failed == {"protocol-calls-cover-references"}


class TestNetworkCounters:
    def test_same_vertex_message_leaves_no_phantom_zero_counters(self):
        network = TorusNetwork(TorusTopology(2, 2))
        assert network.send_control(1, 1) == 0
        counts = network.counters.as_dict()
        assert counts == {"network_messages": 1}

    def test_cross_vertex_message_counts_hops(self):
        network = TorusNetwork(TorusTopology(2, 2))
        network.send_control(0, 1)
        counts = network.counters.as_dict()
        assert counts["network_router_hops"] == counts["network_link_hops"] > 0


# -- synthetic campaign for the streaming anomaly scan ------------------------

RETENTIONS = tuple(30.0 + 10.0 * i for i in range(17))
DATA_POLICIES = (
    DataPolicySpec.valid(),
    DataPolicySpec.writeback(32, 32),
    DataPolicySpec.all_lines(),
)
SYNTH_INSTRUCTIONS = 123_456


def _synthetic_points():
    return [
        PolicyPoint(retention, timing, data)
        for retention in RETENTIONS
        for timing in (TimingPolicyKind.PERIODIC, TimingPolicyKind.REFRINT)
        for data in DATA_POLICIES
    ]


def _synthetic_result(application, label, retention_us, instructions=SYNTH_INSTRUCTIONS):
    """A well-shaped cell: refresh work strictly shrinking with retention."""
    return SimulationResult(
        config=None,
        application=application,
        execution_cycles=10_000,
        busy_core_cycles=1_000,
        counters={
            "instructions": instructions,
            "l3_refreshes": int(1e6 / retention_us),
        },
        energy=EnergyBreakdown(by_component={"refresh": 1.0 / retention_us}),
        per_core_finish_cycles=[10_000],
        restored_label=label,
    )


@pytest.fixture(scope="module")
def synthetic_campaign(arch, tmp_path_factory):
    """A 102-point stored campaign with one deliberately corrupted cell."""
    points = _synthetic_points()
    assert len(points) >= 100
    requests = [WorkloadRequest("fft", length_scale=LENGTH_SCALE)]
    jobs = enumerate_jobs(requests, points, arch)
    store = SegmentResultStore(tmp_path_factory.mktemp("synthetic") / "store")
    # Mid-series cell of the (Periodic, all) series: retention index 8.
    corrupted = PolicyPoint(
        RETENTIONS[8], TimingPolicyKind.PERIODIC, DataPolicySpec.all_lines()
    )
    for job in jobs:
        if job.is_baseline:
            result = _synthetic_result(job.application, "SRAM", RETENTIONS[-1])
            result.counters.pop("l3_refreshes")
            result.energy.by_component.pop("refresh")
        else:
            point = PolicyPoint.from_label(job.point_label)
            result = _synthetic_result(job.application, job.point_label, point.retention_us)
            if job.point_label == corrupted.label:
                # Refresh work *rising* with retention: the planted anomaly.
                previous = _synthetic_result(
                    job.application, "", RETENTIONS[7]
                )
                result.counters["l3_refreshes"] = (
                    previous.counters["l3_refreshes"] * 2
                )
                result.energy.by_component["refresh"] = (
                    previous.energy.by_component["refresh"] * 2
                )
        store.put(job, result)
    return store, jobs, points, corrupted


class TestAnomalyScan:
    def test_flags_exactly_the_corrupted_cell_in_bounded_memory(
        self, synthetic_campaign, monkeypatch
    ):
        store, jobs, points, corrupted = synthetic_campaign
        sweep = StoreSweep(store, jobs, points, result_cache=8)

        def forbidden(*_args, **_kwargs):  # pragma: no cover - guard only
            raise AssertionError("anomaly scan must stream, not materialise")

        monkeypatch.setattr(sweep, "materialise", forbidden)
        report = scan_sweep(sweep)
        assert report.cells_scanned == len(points) + 1
        assert not report.missing
        flagged = {(a.label, a.rule) for a in report.anomalies}
        assert (corrupted.label, "refresh-energy-monotone") in flagged
        assert (corrupted.label, "refresh-ops-monotone") in flagged
        # The only flagged cells are the corrupted one and its successor
        # (which now sits below a spiked predecessor -- not an anomaly).
        assert {a.label for a in report.anomalies} == {corrupted.label}
        # Bounded memory: the view's LRU never grew past its cap.
        assert len(sweep._result_cache) <= 8

    def test_trace_invariance_catches_diverging_instruction_counts(
        self, synthetic_campaign
    ):
        store, jobs, points, _ = synthetic_campaign
        sweep = StoreSweep(store, jobs, points)
        target = points[3]
        bad = _synthetic_result(
            "fft", target.label, target.retention_us,
            instructions=SYNTH_INSTRUCTIONS + 1,
        )
        job = next(j for j in jobs if j.point_label == target.label)
        store.put(job, bad)
        try:
            report = scan_sweep(sweep)
            assert ("fft", target.label, "trace-invariance") in {
                (a.application, a.label, a.rule) for a in report.anomalies
            }
        finally:
            store.put(
                job,
                _synthetic_result("fft", target.label, target.retention_us),
            )

    def test_missing_cells_are_recorded_and_reset_the_series(
        self, arch, tmp_path
    ):
        points = _synthetic_points()
        requests = [WorkloadRequest("fft", length_scale=LENGTH_SCALE)]
        jobs = enumerate_jobs(requests, points, arch)
        store = SegmentResultStore(tmp_path / "store")
        hole = points[10]
        for job in jobs:
            if job.point_label == hole.label:
                continue
            if job.is_baseline:
                result = _synthetic_result(job.application, "SRAM", RETENTIONS[-1])
            else:
                point = PolicyPoint.from_label(job.point_label)
                result = _synthetic_result(
                    job.application, job.point_label, point.retention_us
                )
            store.put(job, result)
        report = scan_sweep(StoreSweep(store, jobs, points))
        assert report.missing == [f"fft/{hole.label}"]
        assert report.ok  # a gap is not an anomaly
        assert report.cells_scanned == len(points)


class TestValidateSweep:
    @pytest.fixture(scope="class")
    def tiny_sweep(self, live_runs):
        p_all = PolicyPoint(50.0, TimingPolicyKind.PERIODIC, DataPolicySpec.all_lines())
        r_wb = PolicyPoint(
            50.0, TimingPolicyKind.REFRINT, DataPolicySpec.writeback(32, 32)
        )
        sweep = SweepResult(points=[p_all, r_wb])
        sweep.baselines["fft"] = live_runs["SRAM"][1]
        sweep.results["fft"] = {
            p_all.label: live_runs["P.all"][1],
            r_wb.label: live_runs["R.WB(32,32)"][1],
        }
        return sweep

    def test_clean_sweep_validates_clean(self, tiny_sweep):
        validation = validate_sweep(tiny_sweep)
        assert validation.ok
        assert len(validation.runs) == 3
        assert validation.violation_count == 0
        assert validation.anomalies.cells_scanned == 3

    def test_markdown_and_json_renderings(self, tiny_sweep):
        validation = validate_sweep(tiny_sweep)
        text = render_markdown(validation)
        assert "## Counter validation" in text
        assert "All invariants held" in text
        data = as_json_dict(validation)
        assert data["ok"] is True
        assert data["summary"]["runs"] == 3
        assert data["summary"]["violations"] == 0
        assert all(run["checks_run"] > 0 for run in data["runs"])

    def test_violations_surface_in_both_renderings(self, tiny_sweep, live_runs):
        broken = SweepResult(points=list(tiny_sweep.points))
        broken.baselines["fft"] = tiny_sweep.baselines["fft"]
        corrupt = SimulationResult.from_dict(live_runs["P.all"][1].to_dict())
        corrupt.energy.by_component["refresh"] *= 2.0
        broken.results["fft"] = dict(tiny_sweep.results["fft"])
        broken.results["fft"][tiny_sweep.points[0].label] = corrupt
        validation = validate_sweep(broken)
        assert not validation.ok
        text = render_markdown(validation)
        assert "Invariant violations" in text
        assert "refresh-energy-closed-form" in text
        data = as_json_dict(validation)
        assert data["ok"] is False
        assert data["summary"]["violations"] >= 1
