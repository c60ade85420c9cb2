"""Tests for the surrogate lattice: bracketing, interpolation, declines.

The lattice only ever reads exact results through ``store.get(key)``, so
these tests drive it with a stub store of synthetic metric values -- the
interpolation arithmetic is then checkable exactly, without simulating.
(The live end-to-end surrogate path, including backfill, runs in
tests/test_service.py.)
"""

from __future__ import annotations

import pytest

from repro.api.query import QueryRequest
from repro.api.surrogate import SurrogateLattice, bracket_axis
from repro.config.presets import scaled_architecture


class FakeResult:
    """The slice of SimulationResult the metric extractor reads."""

    def __init__(self, execution_cycles, busy, memory_j, system_j):
        self.execution_cycles = execution_cycles
        self.busy_core_cycles = busy
        self._memory_j = memory_j
        self._system_j = system_j

    def memory_energy(self):
        return self._memory_j

    def system_energy(self):
        return self._system_j


class FakeStore:
    """dict-backed stand-in for a result store (get by job key)."""

    backend_name = "fake"
    root = "fake://store"

    def __init__(self):
        self.results = {}

    def get(self, key):
        return self.results.get(key)


@pytest.fixture(scope="module")
def arch():
    return scaled_architecture()


def query_point_at(retention_us, arch):
    request = QueryRequest(
        applications="fft",
        retentions_us=(retention_us,),
        timing_policies=("refrint",),
        data_policies=("WB(32,32)",),
        length_scale=0.05,
        include_baseline=False,
    )
    (point,) = request.normalise(arch).points
    return point


class TestBracketAxis:
    def test_outside_hull_declines(self):
        assert bracket_axis(25.0, (50.0, 200.0)) is None
        assert bracket_axis(400.0, (50.0, 200.0)) is None
        assert bracket_axis(50.0, ()) is None

    def test_on_grid_is_degenerate(self):
        bracket = bracket_axis(100.0, (50.0, 100.0, 200.0))
        assert (bracket.lo, bracket.hi) == (100.0, 100.0)
        assert bracket.on_grid and bracket.weight == 0.0

    def test_between_points(self):
        bracket = bracket_axis(125.0, (50.0, 100.0, 200.0))
        assert (bracket.lo, bracket.hi) == (100.0, 200.0)
        assert not bracket.on_grid
        assert bracket.weight == pytest.approx(0.25)


class TestInterpolation:
    def seeded_lattice(self, arch):
        store = FakeStore()
        lattice = SurrogateLattice(store, architecture=arch, retentions_us=(50.0, 200.0))
        probe = query_point_at(125.0, arch)
        lo_job = lattice.corner_job(probe, 50.0)
        hi_job = lattice.corner_job(probe, 200.0)
        store.results[lo_job.key()] = FakeResult(1000, 800, 2.0, 4.0)
        store.results[hi_job.key()] = FakeResult(2000, 1200, 1.0, 3.0)
        return store, lattice, (lo_job.key(), hi_job.key())

    def test_midpoint_is_the_average(self, arch):
        _, lattice, corner_keys = self.seeded_lattice(arch)
        answer = lattice.interpolate(query_point_at(125.0, arch))
        assert answer is not None
        assert answer.metrics["execution_cycles"] == pytest.approx(1500.0)
        assert answer.metrics["busy_core_cycles"] == pytest.approx(1000.0)
        assert answer.metrics["memory_energy_j"] == pytest.approx(1.5)
        assert answer.metrics["system_energy_j"] == pytest.approx(3.5)
        assert answer.bounds == {"retention_us": [50.0, 200.0]}
        assert answer.corner_keys == corner_keys

    def test_weighting_is_linear(self, arch):
        _, lattice, _ = self.seeded_lattice(arch)
        answer = lattice.interpolate(query_point_at(87.5, arch))
        # 87.5us sits a quarter of the way from 50 to 200.
        assert answer.metrics["execution_cycles"] == pytest.approx(1250.0)
        assert answer.metrics["memory_energy_j"] == pytest.approx(1.75)

    def test_convexity_envelope(self, arch):
        _, lattice, _ = self.seeded_lattice(arch)
        for retention in (60.0, 125.0, 190.0):
            answer = lattice.interpolate(query_point_at(retention, arch))
            for name, lo, hi in (
                ("execution_cycles", 1000, 2000),
                ("memory_energy_j", 1.0, 2.0),
                ("system_energy_j", 3.0, 4.0),
            ):
                assert lo <= answer.metrics[name] <= hi

    def test_on_grid_declines(self, arch):
        # An on-grid point is a plain store miss/hit, never a surrogate.
        _, lattice, _ = self.seeded_lattice(arch)
        assert lattice.interpolate(query_point_at(50.0, arch)) is None
        assert lattice.interpolate(query_point_at(200.0, arch)) is None

    def test_outside_hull_declines(self, arch):
        _, lattice, _ = self.seeded_lattice(arch)
        assert lattice.interpolate(query_point_at(25.0, arch)) is None
        assert lattice.interpolate(query_point_at(500.0, arch)) is None

    def test_missing_corner_declines(self, arch):
        store, lattice, corner_keys = self.seeded_lattice(arch)
        del store.results[corner_keys[1]]
        assert lattice.interpolate(query_point_at(125.0, arch)) is None

    def test_baseline_never_interpolated(self, arch):
        _, lattice, _ = self.seeded_lattice(arch)
        request = QueryRequest(
            applications="fft", retentions_us=(125.0,), length_scale=0.05
        )
        baseline = request.normalise(arch).points[0]
        assert baseline.is_baseline
        assert lattice.interpolate(baseline) is None
