"""The evaluated application suite (Tables 5.3 and 6.1).

Each of the paper's eleven SPLASH-2 / PARSEC applications is represented by
a :class:`WorkloadSpec`: a named set of trace-generator knobs chosen so the
synthetic stand-in lands in the class the paper bins the real application
into (Table 6.1) and stresses the same refresh-policy behaviour:

* **Class 1** -- large footprint, high visibility (FFT, FMM, Cholesky,
  Fluidanimate): shared footprints several times the aggregate L3,
  predominantly streaming access, so most L3 lines are touched briefly and
  then sit idle -- the case where aggressive WB(n, m) wins.
* **Class 2** -- small footprint, high visibility (Barnes, LU, Radix,
  Radiosity): working sets that fit on chip but with heavy inter-thread
  sharing, so the directory sees dirty-to-shared transitions and write-backs
  -- WB(n, m) with larger (n, m) and Valid do well.
* **Class 3** -- small footprint, low visibility (Blackscholes,
  Streamcluster, Raytrace): per-thread working sets that fit in the L1/L2
  and see little sharing, so the L3 cannot tell the data is hot -- only the
  conservative Valid policy avoids hurting them.

Footprints are expressed relative to the architecture's cache capacities so
the same specs work for the paper-sized and the scaled geometries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.config.parameters import ArchitectureConfig, SimulationConfig
from repro.cpu.trace import TraceStream
from repro.workloads.synthetic import SyntheticTraceGenerator, TraceParameters


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameterisation of one named application.

    Attributes:
        name: application name (lower case, e.g. ``fft``).
        suite: benchmark suite the original application comes from.
        problem_size: the input the paper lists in Table 5.3 (documentation
            only; the synthetic generator does not parse it).
        app_class: the paper's Class 1 / 2 / 3 bin from Table 6.1.
        l3_footprint_ratio: shared footprint as a multiple of the aggregate
            L3 capacity.
        l2_private_ratio: per-thread private footprint as a multiple of one
            L2's capacity.
        hot_l1_ratio: per-thread hot buffer as a multiple of one L1D.
        hot_fraction: fraction of references to the hot buffer.
        shared_fraction: fraction of the remaining references that go to the
            shared region (the rest stay in the private region).
        sequential_fraction: streaming-sweep share of shared references.
        migration_fraction: producer-consumer share of shared references.
        write_fraction: store fraction.
        reference_scale: relative trace length (1.0 = the suite default).
        mean_gap_instructions: mean non-memory instructions between
            references.
    """

    name: str
    suite: str
    problem_size: str
    app_class: int
    l3_footprint_ratio: float
    l2_private_ratio: float
    hot_l1_ratio: float
    hot_fraction: float
    shared_fraction: float
    sequential_fraction: float
    migration_fraction: float
    write_fraction: float
    reference_scale: float = 1.0
    mean_gap_instructions: float = 3.0


#: Baseline number of data references per thread at ``length_scale == 1.0``.
BASE_REFERENCES_PER_THREAD = 4000


_SPECS: Tuple[WorkloadSpec, ...] = (
    # ----- Class 1: large footprint, high visibility -------------------------
    WorkloadSpec(
        name="fft", suite="SPLASH-2", problem_size="2^20 points", app_class=1,
        l3_footprint_ratio=4.0, l2_private_ratio=0.15, hot_l1_ratio=0.15,
        hot_fraction=0.35, shared_fraction=0.90,
        sequential_fraction=0.88, migration_fraction=0.05,
        write_fraction=0.35, reference_scale=1.1,
    ),
    WorkloadSpec(
        name="fmm", suite="SPLASH-2", problem_size="16 K particles", app_class=1,
        l3_footprint_ratio=3.0, l2_private_ratio=0.20, hot_l1_ratio=0.20,
        hot_fraction=0.40, shared_fraction=0.85,
        sequential_fraction=0.75, migration_fraction=0.10,
        write_fraction=0.30, reference_scale=1.0,
    ),
    WorkloadSpec(
        name="cholesky", suite="SPLASH-2", problem_size="tk29.O", app_class=1,
        l3_footprint_ratio=2.5, l2_private_ratio=0.18, hot_l1_ratio=0.18,
        hot_fraction=0.38, shared_fraction=0.88,
        sequential_fraction=0.78, migration_fraction=0.08,
        write_fraction=0.40, reference_scale=1.0,
    ),
    WorkloadSpec(
        name="fluidanimate", suite="PARSEC", problem_size="simsmall", app_class=1,
        l3_footprint_ratio=3.5, l2_private_ratio=0.18, hot_l1_ratio=0.18,
        hot_fraction=0.35, shared_fraction=0.88,
        sequential_fraction=0.72, migration_fraction=0.15,
        write_fraction=0.45, reference_scale=1.0,
    ),
    # ----- Class 2: small footprint, high visibility --------------------------
    WorkloadSpec(
        name="barnes", suite="SPLASH-2", problem_size="16 K particles", app_class=2,
        l3_footprint_ratio=0.30, l2_private_ratio=0.9, hot_l1_ratio=0.2,
        hot_fraction=0.50, shared_fraction=0.60,
        sequential_fraction=0.05, migration_fraction=0.45,
        write_fraction=0.30, reference_scale=1.0,
    ),
    WorkloadSpec(
        name="lu", suite="SPLASH-2", problem_size="512 x 512 matrix", app_class=2,
        l3_footprint_ratio=0.35, l2_private_ratio=1.0, hot_l1_ratio=0.2,
        hot_fraction=0.50, shared_fraction=0.55,
        sequential_fraction=0.20, migration_fraction=0.40,
        write_fraction=0.40, reference_scale=1.0,
    ),
    WorkloadSpec(
        name="radix", suite="SPLASH-2", problem_size="2 M keys", app_class=2,
        l3_footprint_ratio=0.40, l2_private_ratio=0.9, hot_l1_ratio=0.2,
        hot_fraction=0.45, shared_fraction=0.65,
        sequential_fraction=0.30, migration_fraction=0.35,
        write_fraction=0.50, reference_scale=1.0,
    ),
    WorkloadSpec(
        name="radiosity", suite="SPLASH-2", problem_size="batch", app_class=2,
        l3_footprint_ratio=0.25, l2_private_ratio=0.8, hot_l1_ratio=0.2,
        hot_fraction=0.55, shared_fraction=0.55,
        sequential_fraction=0.05, migration_fraction=0.50,
        write_fraction=0.35, reference_scale=0.9,
    ),
    # ----- Class 3: small footprint, low visibility ----------------------------
    WorkloadSpec(
        name="blackscholes", suite="PARSEC", problem_size="simmedium", app_class=3,
        l3_footprint_ratio=0.15, l2_private_ratio=0.35, hot_l1_ratio=0.25,
        hot_fraction=0.80, shared_fraction=0.20,
        sequential_fraction=0.20, migration_fraction=0.02,
        write_fraction=0.20, reference_scale=1.0,
    ),
    WorkloadSpec(
        name="streamcluster", suite="PARSEC", problem_size="simsmall", app_class=3,
        l3_footprint_ratio=0.20, l2_private_ratio=0.40, hot_l1_ratio=0.25,
        hot_fraction=0.75, shared_fraction=0.30,
        sequential_fraction=0.35, migration_fraction=0.03,
        write_fraction=0.15, reference_scale=1.0,
    ),
    WorkloadSpec(
        name="raytrace", suite="SPLASH-2", problem_size="teapot", app_class=3,
        l3_footprint_ratio=0.25, l2_private_ratio=0.45, hot_l1_ratio=0.25,
        hot_fraction=0.75, shared_fraction=0.35,
        sequential_fraction=0.05, migration_fraction=0.05,
        write_fraction=0.15, reference_scale=0.9,
    ),
)

#: Application names in the order the paper lists them.
APPLICATION_NAMES: Tuple[str, ...] = tuple(spec.name for spec in _SPECS)


def application_specs() -> Dict[str, WorkloadSpec]:
    """All workload specs keyed by application name."""
    return {spec.name: spec for spec in _SPECS}


def application_class(name: str) -> int:
    """The paper's Class (1, 2 or 3) of an application (Table 6.1)."""
    specs = application_specs()
    if name not in specs:
        raise KeyError(f"unknown application {name!r}")
    return specs[name].app_class


@dataclass(frozen=True)
class ApplicationWorkload:
    """A generated workload: one trace per core plus its describing spec."""

    spec: WorkloadSpec
    traces: Tuple[TraceStream, ...]

    @property
    def name(self) -> str:
        """Application name."""
        return self.spec.name

    @property
    def num_threads(self) -> int:
        """Number of threads (equals the number of traces)."""
        return len(self.traces)

    def total_references(self) -> int:
        """Total data references across all threads."""
        return sum(len(trace) for trace in self.traces)


def _trace_parameters(
    spec: WorkloadSpec,
    architecture: ArchitectureConfig,
    length_scale: float,
    seed: int,
) -> TraceParameters:
    """Translate a workload spec into concrete trace-generator parameters."""
    line = architecture.line_bytes
    shared_bytes = max(line, int(spec.l3_footprint_ratio * architecture.l3_total_bytes))
    private_bytes = max(line, int(spec.l2_private_ratio * architecture.l2.size_bytes))
    hot_bytes = max(line, int(spec.hot_l1_ratio * architecture.l1d.size_bytes))
    references = max(
        1, int(BASE_REFERENCES_PER_THREAD * spec.reference_scale * length_scale)
    )
    return TraceParameters(
        num_threads=architecture.num_cores,
        references_per_thread=references,
        shared_footprint_bytes=shared_bytes,
        private_footprint_bytes=private_bytes,
        hot_footprint_bytes=hot_bytes,
        hot_fraction=spec.hot_fraction,
        shared_fraction=spec.shared_fraction,
        sequential_fraction=spec.sequential_fraction,
        migration_fraction=spec.migration_fraction,
        write_fraction=spec.write_fraction,
        mean_gap_instructions=spec.mean_gap_instructions,
        line_bytes=line,
        seed=seed,
    )


def build_application(
    name: str,
    config: SimulationConfig | ArchitectureConfig,
    length_scale: float = 1.0,
    seed: int | None = None,
) -> ApplicationWorkload:
    """Generate the 16-thread workload for one named application.

    Args:
        name: one of :data:`APPLICATION_NAMES`.
        config: the simulation configuration (or bare architecture) whose
            cache capacities define the footprints.
        length_scale: multiplier on the per-thread trace length; use < 1 for
            quick tests and > 1 for higher-fidelity runs.
        seed: RNG seed override (defaults to the config's seed, or 2013).
    """
    specs = application_specs()
    if name not in specs:
        raise KeyError(
            f"unknown application {name!r}; known: {', '.join(APPLICATION_NAMES)}"
        )
    if isinstance(config, SimulationConfig):
        architecture = config.architecture
        base_seed = config.random_seed if seed is None else seed
    else:
        architecture = config
        base_seed = 2013 if seed is None else seed
    spec = specs[name]
    parameters = _trace_parameters(spec, architecture, length_scale, base_seed)
    generator = SyntheticTraceGenerator(parameters)
    return ApplicationWorkload(spec=spec, traces=tuple(generator.generate()))


#: Default RNG seed shared with :class:`SimulationConfig` (the paper's year).
DEFAULT_SEED = 2013


@dataclass(frozen=True)
class WorkloadRequest:
    """A seeded, picklable recipe for regenerating one application workload.

    The campaign engine ships these to worker processes instead of the traces
    themselves: a request is a few dozen bytes, whereas a generated workload
    is millions of addresses.  Because the synthetic generator is a pure
    function of ``(spec, architecture, length_scale, seed)``, rebuilding the
    workload inside a worker yields a bit-identical trace, so parallel and
    serial campaign runs produce identical results.

    Attributes:
        name: application name (one of :data:`APPLICATION_NAMES`).
        length_scale: multiplier on the per-thread trace length.
        seed: base RNG seed for the trace generator.
    """

    name: str
    length_scale: float = 1.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.length_scale <= 0:
            raise ValueError("length_scale must be positive")

    def build(self, architecture: ArchitectureConfig) -> ApplicationWorkload:
        """Generate the workload this request describes."""
        return build_application(
            self.name,
            architecture,
            length_scale=self.length_scale,
            seed=self.seed,
        )
