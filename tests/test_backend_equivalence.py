"""Byte-level equivalence of the two cache backends against golden results.

The struct-of-arrays backend is an *optimisation*, not a remodel: for every
configuration the simulator must produce a :class:`SimulationResult` whose
JSON form is byte-identical to the original one-object-per-line backend.
Two kinds of evidence pin that down:

* **Golden pins.**  ``golden_results.json`` holds the SHA-256 of the
  canonical JSON of every cell of the equivalence matrix -- eleven
  configuration families (SRAM baseline, Periodic under All, Valid,
  Dirty, WB(4,4) and WB(32,32), and Refrint under All, Valid, Dirty,
  WB(4,4) and the paper's headline WB(32,32)) over all eleven
  applications -- and of the deadline-aligned horizon traces below.  They
  were recorded with the object backend and are keyed by trace-generator
  provenance because the numpy and scalar generators draw different
  (equally valid) traces.  Both backends must reproduce them.
* **Random traces.**  A hypothesis property runs random 16-core traces
  under tight retention and heavy sharing through both backends and
  compares the canonical JSON dumps byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.parameters import (
    DataPolicySpec,
    RefreshConfig,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.config.presets import scaled_architecture, scaled_retention_cycles
from repro.core.simulator import RefrintSimulator
from repro.cpu.trace import MemoryOperation, TraceRecord, TraceStream
from repro.mem.cache import CACHE_BACKENDS
from repro.validate import check_result
from repro.workloads.suite import (
    APPLICATION_NAMES,
    ApplicationWorkload,
    build_application,
)
from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE

#: Short but non-trivial traces: every config exercises fills, evictions,
#: coherence traffic and (for eDRAM) refresh actions.
LENGTH_SCALE = 0.1

APPLICATIONS = APPLICATION_NAMES

CONFIG_LABELS = (
    "SRAM", "P.all", "P.valid", "P.dirty", "P.WB(4,4)", "P.WB(32,32)",
    "R.all", "R.valid", "R.dirty", "R.WB(4,4)", "R.WB(32,32)",
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_results.json").read_text(encoding="utf-8")
)[TRACE_GENERATOR_PROVENANCE]


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
def architecture():
    return scaled_architecture()


@pytest.fixture(scope="module")
def workloads(architecture):
    return {
        name: build_application(name, architecture, length_scale=LENGTH_SCALE)
        for name in APPLICATIONS
    }


def _config_matrix(architecture):
    # Chosen to cover every refresh path of both controllers: P.all and
    # P.valid take the bulk slice sweep (invalid lines included/excluded),
    # P.dirty and P.WB the one-pass per-group walk, and the Refrint points
    # each policy branch of the fused sentry interrupt scan.  At this
    # length WB(32,32) never runs a Count out, so the Dirty and WB(4,4)
    # cells are the ones where policy write-backs and invalidations fire.
    policies = {
        "all": DataPolicySpec.all_lines(),
        "valid": DataPolicySpec.valid(),
        "dirty": DataPolicySpec.dirty(),
        "WB(4,4)": DataPolicySpec.writeback(4, 4),
        "WB(32,32)": DataPolicySpec.writeback(32, 32),
    }
    matrix = {"SRAM": SimulationConfig.sram(architecture)}
    for label in CONFIG_LABELS[1:]:
        timing, policy = label.split(".", 1)
        matrix[label] = _edram_config(
            architecture,
            TimingPolicyKind.PERIODIC if timing == "P" else TimingPolicyKind.REFRINT,
            policies[policy],
        )
    return matrix


def _canonical_bytes(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")


def _digest(result) -> str:
    return hashlib.sha256(_canonical_bytes(result)).hexdigest()


@pytest.mark.parametrize("backend", CACHE_BACKENDS)
@pytest.mark.parametrize("config_label", CONFIG_LABELS)
@pytest.mark.parametrize("application", APPLICATIONS)
def test_matrix_cell_matches_golden_pin(
    architecture, workloads, config_label, application, backend
):
    config = _config_matrix(architecture)[config_label]
    simulator = RefrintSimulator(config, cache_backend=backend)
    result = simulator.run(workloads[application])
    assert _digest(result) == GOLDEN["matrix"][f"{config_label}/{application}"]
    # Every cell of the matrix must also hold the analytic invariants --
    # byte-identity alone would let a bug shared by both backends through.
    validation = check_result(
        result, config=config, replay_stats=simulator.last_replay_stats
    )
    assert validation.ok, [
        (check.name, check.detail) for check in validation.violations
    ]


#: Refresh-wheel activity (drains, scans, skips) of two matrix cells, by
#: trace-generator provenance; both backends must reproduce it.
REPLAY_PINS = {
    "numpy": {
        "P.WB(4,4)/barnes": (39, 1008, 0),
        "R.WB(4,4)/barnes": (354, 21646, 8354),
    },
    "scalar": {
        "P.WB(4,4)/barnes": (41, 1088, 0),
        "R.WB(4,4)/barnes": (367, 23431, 9674),
    },
}[TRACE_GENERATOR_PROVENANCE]


@pytest.mark.parametrize("backend", CACHE_BACKENDS)
@pytest.mark.parametrize("cell", sorted(REPLAY_PINS))
def test_wheel_activity_matches_pin(architecture, workloads, cell, backend):
    """Drains, scans and skips are part of the result contract.

    A Refrint interrupt that finds no due line counts as a skip; moving
    that check between the wheel and the handler must not change when
    the wheel drains, what it examines or what it counts.
    """
    config_label, application = cell.split("/")
    simulator = RefrintSimulator(
        _config_matrix(architecture)[config_label], cache_backend=backend
    )
    simulator.run(workloads[application])
    stats = simulator.last_replay_stats
    assert (
        stats.wheel_drains, stats.wheel_scans, stats.wheel_skips
    ) == REPLAY_PINS[cell]


def test_golden_pins_cover_the_matrix():
    """Both generators' pin sets hold exactly the cells the tests read."""
    pins = json.loads(
        (Path(__file__).parent / "golden_results.json").read_text(encoding="utf-8")
    )
    cells = {f"{c}/{a}" for c in CONFIG_LABELS for a in APPLICATIONS}
    horizon = {
        f"{case}/gap{gap}" for case in TestHorizonBoundary.CASES for gap in (0, 7)
    }
    assert set(pins) == {"numpy", "scalar"}
    for provenance in pins.values():
        assert set(provenance["matrix"]) == cells
        assert set(provenance["horizon"]) == horizon


def test_backend_selection_is_plumbed_through(architecture):
    """The hierarchy really builds the requested backend on every cache."""
    from repro.hierarchy.hierarchy import CacheHierarchy

    for backend in CACHE_BACKENDS:
        hierarchy = CacheHierarchy(architecture, cache_backend=backend)
        for _, _, cache in hierarchy.all_caches():
            assert cache.backend == backend
            assert (cache.arrays is not None) == (backend == "array")


def test_unknown_backend_is_rejected(architecture):
    from repro.mem.cache import Cache

    with pytest.raises(ValueError, match="unknown cache backend 'numpy'"):
        Cache(architecture.l1d, backend="numpy")


class TestHorizonBoundary:
    """References landing exactly on a refresh deadline.

    The replay loop executes references back to back strictly *before* its
    horizon; a reference issued at exactly the horizon cycle must yield to
    the queue so the refresh pass (and its array blocking) executes first,
    just as the (time, seq) heap order would.  These traces are built so
    that core 0's references land exactly on the periodic group passes'
    nominal cycles (multiples of the stagger stride), with the other cores
    idle and busy respectively.
    """

    CASES = {
        "periodic-all": (TimingPolicyKind.PERIODIC, DataPolicySpec.all_lines()),
        "refrint-wb(2,2)": (
            TimingPolicyKind.REFRINT, DataPolicySpec.writeback(2, 2)
        ),
    }

    @staticmethod
    def _aligned_workload(architecture, stride, other_gap):
        fft = build_application("fft", architecture, length_scale=0.01)
        line = architecture.l1d.line_bytes
        aligned = TraceStream(
            [
                TraceRecord(
                    address=0x2000_0000 + i * line,
                    operation=(
                        MemoryOperation.WRITE if i % 3 == 0
                        else MemoryOperation.READ
                    ),
                    # The first reference issues at exactly `stride` (the
                    # first staggered group pass); later gaps keep issue
                    # times near (and regularly exactly on) later passes.
                    gap_instructions=stride if i == 0 else stride - 1,
                )
                for i in range(64)
            ],
            thread_id=0,
        )
        others = [
            TraceStream(
                [
                    TraceRecord(
                        address=0x3000_0000 + t * 0x1_0000 + i * line,
                        operation=MemoryOperation.READ,
                        gap_instructions=other_gap,
                    )
                    for i in range(32)
                ],
                thread_id=t,
            )
            for t in range(1, architecture.num_cores)
        ]
        return ApplicationWorkload(spec=fft.spec, traces=(aligned, *others))

    @pytest.mark.parametrize("backend", CACHE_BACKENDS)
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("other_gap", [0, 7])
    def test_boundary_reference_matches_golden_pin(
        self, architecture, case, other_gap, backend
    ):
        timing, data = self.CASES[case]
        config = _edram_config(architecture, timing, data)
        stride = (
            config.refresh.retention_cycles
            // architecture.l3_bank.num_refresh_groups
        )
        workload = self._aligned_workload(architecture, stride, other_gap)
        result = RefrintSimulator(config, cache_backend=backend).run(workload)
        assert _digest(result) == GOLDEN["horizon"][f"{case}/gap{other_gap}"]


# -- random traces ------------------------------------------------------------


@st.composite
def random_workloads(draw):
    """Per-core traces mixing private streaks with a shared contended pool."""
    num_cores = 16
    line = 64
    shared_blocks = [0x1000_0000 + i * line for i in range(8)]
    traces = []
    for core in range(num_cores):
        length = draw(st.integers(0, 24))
        records = []
        private_base = 0x8000_0000 + core * 0x10_000
        for _ in range(length):
            kind = draw(st.integers(0, 3))
            if kind == 0:  # shared, contended: upgrades and owner recalls
                address = draw(st.sampled_from(shared_blocks))
            else:  # private streak with word-level spatial locality
                address = private_base + draw(st.integers(0, 63)) * 8
            records.append(
                TraceRecord(
                    address=address,
                    operation=(
                        MemoryOperation.WRITE
                        if draw(st.booleans())
                        else MemoryOperation.READ
                    ),
                    gap_instructions=draw(st.integers(0, 6)),
                )
            )
        traces.append(TraceStream(records, thread_id=core))
    return traces


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(traces=random_workloads(), retention_us=st.sampled_from([5.0, 50.0]))
def test_random_traces_are_byte_identical_across_backends(traces, retention_us):
    """Array and object backends agree under refresh and coherence pressure.

    The 5 us retention point drives the refresh wheel hard: sentry timers
    fire constantly, arrays go refresh-busy (references queue behind the
    blocked arrays), and WB(2, 2) exhausts its Count quickly so policy
    write-backs and invalidations interleave with the references.
    """
    architecture = scaled_architecture()
    spec = build_application("fft", architecture, length_scale=0.01).spec
    workload = ApplicationWorkload(spec=spec, traces=tuple(traces))
    config = _edram_config(
        architecture,
        TimingPolicyKind.REFRINT,
        DataPolicySpec.writeback(2, 2),
        retention_us=retention_us,
    )
    array, reference = (
        _canonical_bytes(
            RefrintSimulator(config, cache_backend=backend).run(workload)
        )
        for backend in ("array", "object")
    )
    assert array == reference
