"""Unit and property tests for the synthetic workload generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import scaled_architecture
from repro.core.classes import APPLICATION_CLASSES, classes_consistent_with_specs
from repro.workloads.suite import (
    APPLICATION_NAMES,
    application_class,
    application_specs,
    build_application,
)
from repro.workloads.synthetic import (
    SHARED_REGION_BASE,
    SyntheticTraceGenerator,
    TraceParameters,
)


def small_parameters(**overrides) -> TraceParameters:
    parameters = dict(
        num_threads=4,
        references_per_thread=500,
        shared_footprint_bytes=64 * 1024,
        private_footprint_bytes=8 * 1024,
        hot_footprint_bytes=1024,
        hot_fraction=0.5,
        shared_fraction=0.5,
        sequential_fraction=0.3,
        migration_fraction=0.2,
        write_fraction=0.3,
        seed=7,
    )
    parameters.update(overrides)
    return TraceParameters(**parameters)


class TestTraceParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_parameters(hot_fraction=1.5)
        with pytest.raises(ValueError):
            small_parameters(sequential_fraction=0.8, migration_fraction=0.5)
        with pytest.raises(ValueError):
            small_parameters(num_threads=0)
        with pytest.raises(ValueError):
            small_parameters(hot_footprint_bytes=4)

    def test_word_counts(self):
        params = small_parameters()
        assert params.shared_words == 64 * 1024 // 8
        assert params.hot_words == 128


class TestGenerator:
    def test_deterministic_given_seed(self):
        params = small_parameters()
        first = SyntheticTraceGenerator(params).generate_thread(1)
        second = SyntheticTraceGenerator(params).generate_thread(1)
        assert [r.address for r in first] == [r.address for r in second]
        assert [r.operation for r in first] == [r.operation for r in second]

    def test_different_threads_differ(self):
        params = small_parameters()
        generator = SyntheticTraceGenerator(params)
        t0 = generator.generate_thread(0)
        t1 = generator.generate_thread(1)
        assert [r.address for r in t0] != [r.address for r in t1]

    def test_write_fraction_respected(self):
        params = small_parameters(write_fraction=0.5, references_per_thread=4000)
        trace = SyntheticTraceGenerator(params).generate_thread(0)
        assert trace.read_fraction() == pytest.approx(0.5, abs=0.05)

    def test_zero_references(self):
        params = small_parameters(references_per_thread=0)
        trace = SyntheticTraceGenerator(params).generate_thread(0)
        assert len(trace) == 0

    def test_private_regions_do_not_overlap_between_threads(self):
        params = small_parameters(hot_fraction=0.0, shared_fraction=0.0)
        generator = SyntheticTraceGenerator(params)
        footprints = []
        for thread in range(params.num_threads):
            addresses = {r.address for r in generator.generate_thread(thread)}
            footprints.append(addresses)
        for i in range(len(footprints)):
            for j in range(i + 1, len(footprints)):
                assert footprints[i].isdisjoint(footprints[j])

    def test_shared_region_is_shared_between_threads(self):
        params = small_parameters(
            hot_fraction=0.0, shared_fraction=1.0,
            sequential_fraction=0.0, migration_fraction=1.0,
        )
        generator = SyntheticTraceGenerator(params)
        blocks0 = {r.address // 64 for r in generator.generate_thread(0)}
        blocks1 = {r.address // 64 for r in generator.generate_thread(1)}
        assert blocks0 & blocks1

    def test_footprint_tracks_shared_footprint_parameter(self):
        small = small_parameters(
            hot_fraction=0.0, shared_fraction=1.0, sequential_fraction=1.0,
            migration_fraction=0.0, shared_footprint_bytes=16 * 1024,
            references_per_thread=8000,
        )
        large = small_parameters(
            hot_fraction=0.0, shared_fraction=1.0, sequential_fraction=1.0,
            migration_fraction=0.0, shared_footprint_bytes=256 * 1024,
            references_per_thread=8000,
        )
        foot_small = SyntheticTraceGenerator(small).generate_thread(0).footprint_bytes()
        foot_large = SyntheticTraceGenerator(large).generate_thread(0).footprint_bytes()
        assert foot_large > foot_small

    def test_sequential_stream_has_spatial_locality(self):
        params = small_parameters(
            hot_fraction=0.0, shared_fraction=1.0, sequential_fraction=1.0,
            migration_fraction=0.0,
        )
        trace = SyntheticTraceGenerator(params).generate_thread(0)
        same_block = sum(
            1 for a, b in zip(trace.records, trace.records[1:])
            if a.address // 64 == b.address // 64
        )
        assert same_block / len(trace) > 0.7

    def test_all_addresses_word_aligned_and_in_known_regions(self):
        params = small_parameters()
        trace = SyntheticTraceGenerator(params).generate_thread(2)
        for record in trace:
            assert record.address % 8 == 0
            assert record.address >= SHARED_REGION_BASE


@settings(max_examples=20, deadline=None)
@given(
    hot=st.floats(min_value=0.0, max_value=1.0),
    shared=st.floats(min_value=0.0, max_value=1.0),
    writes=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_generator_never_crashes_on_valid_fractions(hot, shared, writes):
    params = small_parameters(
        hot_fraction=hot, shared_fraction=shared, write_fraction=writes,
        references_per_thread=50,
    )
    trace = SyntheticTraceGenerator(params).generate_thread(0)
    assert len(trace) == 50


class TestSuite:
    def test_eleven_applications(self):
        assert len(APPLICATION_NAMES) == 11
        assert set(APPLICATION_NAMES) == {
            "fft", "lu", "radix", "cholesky", "barnes", "fmm", "radiosity",
            "raytrace", "streamcluster", "blackscholes", "fluidanimate",
        }

    def test_class_binning_matches_table_6_1(self):
        assert set(APPLICATION_CLASSES[1]) == {"fft", "fmm", "cholesky", "fluidanimate"}
        assert set(APPLICATION_CLASSES[2]) == {"barnes", "lu", "radix", "radiosity"}
        assert set(APPLICATION_CLASSES[3]) == {"blackscholes", "streamcluster", "raytrace"}
        assert classes_consistent_with_specs()

    def test_application_class_lookup(self):
        assert application_class("fft") == 1
        assert application_class("lu") == 2
        assert application_class("raytrace") == 3
        with pytest.raises(KeyError):
            application_class("doom")

    def test_build_application_produces_one_trace_per_core(self):
        arch = scaled_architecture()
        workload = build_application("fft", arch, length_scale=0.05)
        assert workload.num_threads == arch.num_cores
        assert workload.total_references() > 0
        assert workload.name == "fft"

    def test_class1_has_larger_shared_footprint_than_class3(self):
        arch = scaled_architecture()
        class1 = build_application("fft", arch, length_scale=0.2)
        class3 = build_application("blackscholes", arch, length_scale=0.2)
        foot1 = sum(t.footprint_bytes() for t in class1.traces)
        foot3 = sum(t.footprint_bytes() for t in class3.traces)
        assert foot1 > foot3

    def test_length_scale_changes_trace_length(self):
        arch = scaled_architecture()
        short = build_application("lu", arch, length_scale=0.1)
        long = build_application("lu", arch, length_scale=0.3)
        assert long.total_references() > short.total_references()

    def test_unknown_application_rejected(self):
        arch = scaled_architecture()
        with pytest.raises(KeyError):
            build_application("quake", arch)

    def test_specs_have_documented_problem_sizes(self):
        for spec in application_specs().values():
            assert spec.problem_size
            assert spec.suite in ("SPLASH-2", "PARSEC")
