"""Tests for the parameter sweep, class binning and figure/table generation."""

from __future__ import annotations

import json

import pytest

from repro.config.parameters import DataPolicySpec, TimingPolicyKind
from repro.config.presets import scaled_architecture
from repro.core.classes import class_members, class_of
from repro.campaign.engine import run_campaign
from repro.core.sweep import PolicyPoint, default_policy_points
from repro.experiments.figures import (
    figure_6_1,
    figure_6_2,
    figure_6_3,
    figure_6_4,
    render_figure,
)
from repro.experiments.runner import ExperimentScale, headline_summary
from repro.experiments.tables import (
    application_binning_table,
    applications_table,
    architecture_table,
    cell_comparison_table,
    policy_taxonomy_table,
    render_table,
    sweep_table,
)
from repro.workloads.suite import WorkloadRequest

#: A deliberately small sweep so the whole module runs in tens of seconds.
SMALL_POINTS = [
    PolicyPoint(50.0, TimingPolicyKind.PERIODIC, DataPolicySpec.all_lines()),
    PolicyPoint(50.0, TimingPolicyKind.REFRINT, DataPolicySpec.valid()),
    PolicyPoint(50.0, TimingPolicyKind.REFRINT, DataPolicySpec.writeback(32, 32)),
]


@pytest.fixture(scope="module")
def small_sweep():
    requests = [
        WorkloadRequest(name, length_scale=0.06) for name in ("fft", "blackscholes")
    ]
    sweep, _ = run_campaign(
        requests, points=SMALL_POINTS, architecture=scaled_architecture()
    )
    return sweep


class TestPolicyPoints:
    def test_default_grid_is_table_5_4(self):
        points = default_policy_points()
        assert len(points) == 42
        labels = {point.label for point in points}
        assert "50us/P.all" in labels
        assert "200us/R.WB(32,32)" in labels

    def test_point_labels(self):
        point = PolicyPoint(50.0, TimingPolicyKind.REFRINT, DataPolicySpec.writeback(4, 4))
        assert point.policy_label == "R.WB(4,4)"
        assert point.label == "50us/R.WB(4,4)"

    def test_point_materialises_config(self):
        arch = scaled_architecture()
        point = PolicyPoint(100.0, TimingPolicyKind.PERIODIC, DataPolicySpec.valid())
        config = point.simulation_config(arch)
        assert config.is_edram
        assert config.refresh.timing_policy is TimingPolicyKind.PERIODIC

    def test_paper_architecture_uses_real_retention(self):
        from repro.config.presets import paper_architecture

        point = PolicyPoint(50.0, TimingPolicyKind.REFRINT, DataPolicySpec.valid())
        refresh = point.refresh_config(paper_architecture())
        assert refresh.retention_cycles == 50_000


class TestSweep:
    def test_sweep_contains_all_points_and_baselines(self, small_sweep):
        assert set(small_sweep.applications) == {"fft", "blackscholes"}
        for name in small_sweep.applications:
            assert small_sweep.baseline(name).label == "SRAM"
            for point in SMALL_POINTS:
                assert small_sweep.result(name, point).label == point.policy_label

    def test_normalised_metrics_are_sensible(self, small_sweep):
        for point in SMALL_POINTS:
            memory = small_sweep.normalised_memory_energy(point)
            time = small_sweep.normalised_execution_time(point)
            for name in small_sweep.applications:
                assert 0.0 < memory[name] < 1.0
                assert 0.8 < time[name] < 3.0

    def test_retention_helpers(self, small_sweep):
        assert small_sweep.retention_times() == [50.0]
        assert len(small_sweep.points_for_retention(50.0)) == 3

    def test_to_dict_is_json_serialisable(self, small_sweep):
        text = json.dumps(small_sweep.to_dict())
        assert "baselines" in json.loads(text)


class TestClassAveraging:
    def test_class_lookup(self):
        assert class_of("fft") == 1
        assert "barnes" in class_members(2)
        with pytest.raises(KeyError):
            class_members(4)


class TestTables:
    def test_policy_taxonomy_lists_all_policies(self):
        table = policy_taxonomy_table()
        text = render_table(table)
        for label in ("Periodic", "Refrint", "All", "Valid", "Dirty", "WB(n,m)"):
            assert label in text

    def test_architecture_table_matches_paper(self):
        text = render_table(architecture_table())
        assert "16 core CMP" in text
        assert "1024 KB per bank, 16 banks" in text
        assert "Directory MESI protocol at L3" in text

    def test_cell_comparison_table(self):
        text = render_table(cell_comparison_table())
        assert "0.25" in text
        assert "access energy" in text

    def test_applications_table_lists_all_eleven(self):
        table = applications_table()
        assert len(table.rows) == 11
        text = render_table(table)
        assert "SPLASH-2" in text and "PARSEC" in text

    def test_sweep_table_counts_42(self):
        text = render_table(sweep_table())
        assert "42" in text

    def test_binning_table_matches_classes(self):
        text = render_table(application_binning_table())
        assert "Class 1" in text and "fluidanimate" in text


class TestFigures:
    def test_figure_6_1_stacks_levels(self, small_sweep):
        figure = figure_6_1(small_sweep)
        assert [series.name for series in figure.series] == ["L1", "L2", "L3", "DRAM"]
        assert len(figure.bar_labels) == len(SMALL_POINTS)
        totals = figure.totals()
        assert all(0.0 < total < 1.0 for total in totals)

    def test_figure_6_2_stacks_components(self, small_sweep):
        figure = figure_6_2(small_sweep)
        assert [series.name for series in figure.series] == [
            "Dynamic", "Leakage", "Refresh", "Dram",
        ]
        # Figures 6.1 and 6.2 are two views of the same totals.
        assert figure.totals() == pytest.approx(figure_6_1(small_sweep).totals())

    def test_figure_6_3_and_6_4_single_series(self, small_sweep):
        energy = figure_6_3(small_sweep)
        time = figure_6_4(small_sweep)
        assert len(energy.series) == 1 and len(time.series) == 1
        assert all(0.0 < v < 1.0 for v in energy.series[0].values)
        assert all(v > 0.8 for v in time.series[0].values)

    def test_figure_class_filter(self, small_sweep):
        figure = figure_6_2(small_sweep, applications=["fft"])
        assert "fft" in figure.title or "class" in figure.title

    def test_render_figure_contains_all_bars(self, small_sweep):
        text = render_figure(figure_6_1(small_sweep))
        for point in SMALL_POINTS:
            assert point.label in text

    def test_unknown_application_filter_rejected(self, small_sweep):
        with pytest.raises(KeyError):
            figure_6_1(small_sweep, applications=["doom"])


class TestRunnerAndHeadline:
    def test_headline_summary_orders_policies(self, small_sweep):
        summary = headline_summary(small_sweep, retention_us=50.0)
        assert 0.0 < summary["refrint_wb32_memory"] < summary["periodic_all_memory"] < 1.0
        assert summary["refrint_wb32_time"] < summary["periodic_all_time"]

    def test_headline_requires_needed_points(self, small_sweep):
        with pytest.raises(ValueError):
            headline_summary(small_sweep, retention_us=200.0)

    def test_experiment_scale_from_environment(self, monkeypatch):
        monkeypatch.setenv("REFRINT_APPS", "fft,lu")
        monkeypatch.setenv("REFRINT_LENGTH_SCALE", "0.25")
        monkeypatch.setenv("REFRINT_RETENTIONS", "50")
        scale = ExperimentScale.from_environment()
        assert scale.applications == ("fft", "lu")
        assert scale.length_scale == 0.25
        assert scale.retention_times_us == (50.0,)

    def test_experiment_scale_full(self):
        scale = ExperimentScale.full()
        assert len(scale.applications) == 11

    def test_experiment_scale_workload_requests(self):
        scale = ExperimentScale(applications=("fft", "lu"), length_scale=0.25)
        assert scale.workload_requests() == [
            WorkloadRequest("fft", length_scale=0.25),
            WorkloadRequest("lu", length_scale=0.25),
        ]
