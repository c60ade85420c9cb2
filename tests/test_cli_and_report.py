"""Tests for the command-line interface and the Markdown report generator."""

from __future__ import annotations

import io
import json

import pytest

from repro.api.query import QueryRequest
from repro.campaign.engine import run_campaign
from repro.campaign.jobs import enumerate_jobs
from repro.campaign.store import PROVENANCE_FILE, open_store
from repro.cli import build_parser, main
from repro.config.parameters import DataPolicyKind, TimingPolicyKind
from repro.config.presets import paper_data_policies, scaled_architecture
from repro.core.simulator import RefrintSimulator
from repro.core.sweep import PolicyPoint
from repro.config.parameters import DataPolicySpec
from repro.experiments.report import sweep_report
from repro.workloads.suite import WorkloadRequest
from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE
from tests.conftest import write_legacy_store

OTHER = "scalar" if TRACE_GENERATOR_PROVENANCE == "numpy" else "numpy"


class TestArgumentParsing:
    """Policy and application arguments parse through the query schema.

    A bad value is a usage error: exit status 2, with the value named on
    stderr.
    """

    @staticmethod
    def rejects(capsys, argv, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(argv, out=io.StringIO())
        assert excinfo.value.code == 2
        assert bad in capsys.readouterr().err

    def test_parse_data_policy(self, capsys):
        parse = build_parser().parse_args
        for text, kind in (
            ("valid", DataPolicyKind.VALID),
            ("all", DataPolicyKind.ALL),
            ("dirty", DataPolicyKind.DIRTY),
        ):
            assert parse(["simulate", "--data", text]).data.kind is kind
        wb = parse(["simulate", "--data", "WB(16,8)"]).data
        assert wb.kind is DataPolicyKind.WRITEBACK
        assert (wb.dirty_refreshes, wb.clean_refreshes) == (16, 8)
        self.rejects(capsys, ["simulate", "--data", "smart"], "smart")

    def test_parse_timing_policy(self, capsys):
        parse = build_parser().parse_args
        timing = parse(["simulate", "--timing", "periodic"]).timing
        assert timing is TimingPolicyKind.PERIODIC
        assert parse(["simulate", "--timing", "R"]).timing is TimingPolicyKind.REFRINT
        self.rejects(capsys, ["simulate", "--timing", "lazy"], "lazy")

    def test_parse_applications(self, capsys):
        parse = build_parser().parse_args
        assert parse(["sweep", "--applications", "fft, lu"]).applications == [
            "fft", "lu",
        ]
        assert len(parse(["sweep", "--applications", "all"]).applications) == 11
        self.rejects(capsys, ["sweep", "--applications", "fft,doom"], "doom")


class TestServeArguments:
    """A bad ``serve`` value exits 2, naming it or its option, before any
    socket is bound.
    """

    @pytest.fixture(autouse=True)
    def no_server(self, monkeypatch):
        import repro.service

        def boot(**kwargs):
            raise AssertionError("the server must not start")

        monkeypatch.setattr(repro.service, "run_service", boot)

    def test_non_numeric_surrogate_retention(self, capsys):
        TestArgumentParsing.rejects(
            capsys, ["serve", "--surrogate-retentions", "abc"], "abc"
        )

    def test_duplicate_surrogate_retentions(self, capsys):
        TestArgumentParsing.rejects(
            capsys, ["serve", "--surrogate-retentions", "50,50"],
            "--surrogate-retentions: duplicate",
        )

    def test_zero_jobs(self, capsys):
        assert main(["serve", "--jobs", "0"], out=io.StringIO()) == 2
        assert "--jobs" in capsys.readouterr().err


class TestCommands:
    def test_tables_command(self):
        out = io.StringIO()
        assert main(["tables"], out=out) == 0
        text = out.getvalue()
        assert "Table 3.1" in text
        assert "Table 6.1" in text
        assert "WB(n,m)" in text

    def test_simulate_command(self):
        out = io.StringIO()
        code = main(
            [
                "simulate", "--application", "blackscholes",
                "--timing", "refrint", "--data", "valid",
                "--retention-us", "50", "--length-scale", "0.05",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "memory energy vs SRAM" in text
        assert "DRAM accesses" in text

    def test_sweep_command_writes_outputs(self, tmp_path):
        out = io.StringIO()
        json_path = tmp_path / "sweep.json"
        report_path = tmp_path / "sweep.md"
        code = main(
            [
                "sweep", "--applications", "blackscholes",
                "--length-scale", "0.05", "--retentions", "50",
                "--json", str(json_path), "--report", str(report_path),
            ],
            out=out,
        )
        assert code == 0
        assert json_path.exists() and report_path.exists()
        data = json.loads(json_path.read_text())
        assert "baselines" in data and "results" in data
        report = report_path.read_text()
        assert "Figure 6.1" in report and "Figure 6.4" in report
        assert "Headline comparison" in report


    @pytest.fixture(scope="class")
    def cli_store(self, tmp_path_factory):
        """One stored CLI campaign, shared by the resume and validate tests."""
        store = tmp_path_factory.mktemp("cli") / "store"
        argv = [
            "sweep", "--applications", "blackscholes",
            "--length-scale", "0.05", "--retentions", "50",
            "--store", str(store),
        ]
        out = io.StringIO()
        assert main(argv, out=out) == 0
        return store, argv, out.getvalue()

    def test_sweep_command_store_and_resume(self, cli_store):
        store, argv, first = cli_store
        assert "simulated" in first and store.exists()
        out = io.StringIO()
        assert main(argv + ["--resume"], out=out) == 0
        second = out.getvalue()
        assert "0 simulated" in second
        assert "(cached)" in second

    def test_validate_command_passes_on_clean_store(self, cli_store, tmp_path):
        store, _argv, _ = cli_store
        json_path = tmp_path / "validation.json"
        out = io.StringIO()
        code = main(
            [
                "validate", "--store", str(store),
                "--applications", "blackscholes",
                "--length-scale", "0.05", "--retentions", "50",
                "--json", str(json_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "Counter validation" in text
        assert "0 invariant violations" in text
        data = json.loads(json_path.read_text())
        assert data["ok"] is True
        assert data["summary"]["violations"] == 0
        assert data["summary"]["missing"] == 0
        assert data["summary"]["runs"] == data["summary"]["cells_scanned"] > 0

    def test_validate_command_strict_missing(self, cli_store, tmp_path):
        store, _argv, _ = cli_store
        # Ask for an application the store does not hold: every cell of
        # that grid slice is missing.  Lenient mode reports but passes ...
        argv = [
            "validate", "--store", str(store),
            "--applications", "blackscholes,fft",
            "--length-scale", "0.05", "--retentions", "50",
        ]
        out = io.StringIO()
        assert main(argv, out=out) == 0
        assert "missing cells" in out.getvalue()
        # ... strict mode gates on completeness.
        assert main(argv + ["--strict-missing"], out=io.StringIO()) == 1

    def test_validate_command_rejects_missing_directory(self, tmp_path, capsys):
        code = main(
            ["validate", "--store", str(tmp_path / "nope")], out=io.StringIO()
        )
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_sweep_resume_requires_store(self, capsys):
        assert main(["sweep", "--resume"], out=io.StringIO()) == 2
        # Like argparse errors, validation errors land on stderr.
        assert "--store" in capsys.readouterr().err

    def test_sweep_rerun_without_resume_keeps_the_store_healthy(
        self, cli_store, tmp_path
    ):
        """A second sweep into the same store re-puts every key; the older
        records it supersedes are neither damage for ``store verify`` nor
        index entries for ``store gc`` to drop."""
        import shutil

        store, argv, _ = cli_store
        rerun = shutil.copytree(store, tmp_path / "rerun")
        jobs = len(open_store(rerun))
        argv = argv[: argv.index("--store")] + ["--store", str(rerun)]
        out = io.StringIO()
        assert main(argv, out=out) == 0
        assert f"{jobs} jobs: {jobs} simulated" in out.getvalue()
        for _ in range(2):
            out = io.StringIO()
            assert main(["store", "verify", str(rerun)], out=out) == 0
            assert f"verified {jobs} entries: {jobs} ok, 0 bad" in out.getvalue()
            out = io.StringIO()
            assert main(["store", "gc", str(rerun)], out=out) == 0
            assert "dropped" not in out.getvalue()
            assert f"removed 0 files, kept {jobs} entries" in out.getvalue()
        assert len(open_store(rerun)) == jobs

    def test_legacy_store_import_round_trip(self, cli_store, tmp_path):
        """``store migrate`` imports a legacy store the resumed sweep reuses
        whole, copying the stamp and leaving the source untouched."""
        store, argv, _ = cli_store
        request = QueryRequest(
            applications=("blackscholes",),
            retentions_us=(50.0,),
            timing_policies=(TimingPolicyKind.PERIODIC, TimingPolicyKind.REFRINT),
            data_policies=tuple(paper_data_policies()),
            length_scale=0.05,
        )
        jobs = enumerate_jobs(
            request.workload_requests(), request.policy_points(),
            scaled_architecture(),
        )
        results = open_store(store)
        legacy = write_legacy_store(
            tmp_path / "legacy", [(job, results.get(job.key())) for job in jobs]
        )
        before = {path.name: path.read_bytes() for path in legacy.iterdir()}
        imported = tmp_path / "imported"
        out = io.StringIO()
        assert main(["store", "migrate", str(legacy), str(imported)], out=out) == 0
        assert f"migrated {len(jobs)} entries" in out.getvalue()
        out = io.StringIO()
        assert main(["store", "verify", str(imported)], out=out) == 0
        assert f"{len(jobs)} ok" in out.getvalue()
        assert (imported / PROVENANCE_FILE).read_bytes() == before[PROVENANCE_FILE]
        out = io.StringIO()
        resumed = argv[: argv.index("--store")] + ["--store", str(imported), "--resume"]
        assert main(resumed, out=out) == 0
        assert f"{len(jobs)} jobs: 0 simulated" in out.getvalue()
        assert {path.name: path.read_bytes() for path in legacy.iterdir()} == before
        # An occupied destination is refused.
        assert main(["store", "migrate", str(legacy), str(imported)]) == 2


class TestUnopenableStore:
    """A store the CLI cannot open exits 2 with ``error: ...`` before any
    simulation starts or any socket is bound."""

    GRID = ["--applications", "fft", "--length-scale", "0.05", "--retentions", "50"]

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        import repro.service

        def forbidden(*args, **kwargs):
            raise AssertionError("no work may start")

        monkeypatch.setattr(RefrintSimulator, "run", forbidden)
        monkeypatch.setattr(repro.service, "run_service", forbidden)

    @pytest.fixture
    def legacy(self, tmp_path):
        root = tmp_path / "legacy"
        root.mkdir()
        (root / (64 * "a" + ".json")).write_text("{}")
        return root

    @pytest.fixture
    def foreign(self, tmp_path):
        root = tmp_path / "foreign"
        root.mkdir()
        (root / PROVENANCE_FILE).write_text(json.dumps({"trace_generator": OTHER}))
        return root

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", *GRID],
            ["sweep", *GRID, "--store-backend", "segment"],
            ["validate", *GRID],
            ["serve"],
        ],
    )
    def test_legacy_directory_names_store_migrate(self, capsys, legacy, argv):
        assert main([*argv, "--store", str(legacy)], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"store migrate {legacy}" in err

    @pytest.mark.parametrize("argv", [["sweep", *GRID], ["serve"]])
    def test_foreign_provenance_is_named(self, capsys, foreign, argv):
        assert main([*argv, "--store", str(foreign)], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{OTHER!r} trace generator" in err


class TestReport:
    @pytest.fixture(scope="class")
    def tiny_sweep(self):
        points = [
            PolicyPoint(50.0, TimingPolicyKind.PERIODIC, DataPolicySpec.all_lines()),
            PolicyPoint(50.0, TimingPolicyKind.REFRINT, DataPolicySpec.writeback(32, 32)),
        ]
        sweep, _ = run_campaign(
            [WorkloadRequest("fft", length_scale=0.05)],
            points=points,
            architecture=scaled_architecture(),
        )
        return sweep

    def test_report_contains_all_figures_and_applications(self, tiny_sweep):
        report = sweep_report(tiny_sweep, title="Test report")
        assert report.startswith("# Test report")
        for marker in ("Figure 6.1", "Figure 6.2", "Figure 6.3", "Figure 6.4"):
            assert marker in report
        assert "| fft |" in report
        assert "Headline comparison" in report
        assert "Counter validation" in report
        assert "All invariants held" in report

    def test_report_is_valid_markdown_tables(self, tiny_sweep):
        report = sweep_report(tiny_sweep)
        table_lines = [line for line in report.splitlines() if line.startswith("|")]
        assert table_lines
        for line in table_lines:
            assert line.count("|") >= 3
