"""The benchmark's trace hooks still find the store methods they wrap.

``perfbench/bench_trace.py`` patches each traced method through its class's
own ``__dict__``, from outside ``src/``.  A store method that moves to
another class or disappears breaks ``install()``; one that is wrapped twice
(say, a class aliased to another) doubles its span counts.  Either would
silently change the traced benchmark, so the seams are pinned here.  The
hooks need only the standard library, so this runs with or without numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent(
    """
    import json
    import sys
    from collections import Counter

    import bench_trace

    tracer = bench_trace.install()

    from repro.campaign.jobs import Job
    from repro.campaign.store import open_store
    from repro.config.parameters import SimulationConfig
    from repro.config.presets import scaled_architecture
    from repro.core.results import SimulationResult
    from repro.energy.accounting import EnergyBreakdown
    from repro.workloads.suite import WorkloadRequest

    job = Job(
        WorkloadRequest("fft", length_scale=0.1),
        SimulationConfig.sram(scaled_architecture()),
    )
    result = SimulationResult(
        config=None,
        application="fft",
        execution_cycles=123,
        busy_core_cycles=45,
        counters={"l1d_hits": 7},
        energy=EnergyBreakdown(
            by_level={"l1": 1.0}, by_component={"dynamic": 1.0}, system={}
        ),
        per_core_finish_cycles=[123],
        restored_label="SRAM",
    )
    with open_store(sys.argv[1], backend="segment") as store:
        store.put(job, result)
        store.flush()
        assert store.get(job.key()).to_dict() == result.to_dict()
    counts = Counter(span[0] for span in tracer.spans)
    print(json.dumps({name: counts[name] for name in ("campaign.store_put", "campaign.store_get")}))
    """
)


def test_store_spans_match_the_benchmark_seams(tmp_path):
    path = [str(ROOT / "perfbench"), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "store")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    counts = json.loads(completed.stdout.splitlines()[-1])
    # put and flush each record a store_put span; get records one store_get.
    assert counts == {"campaign.store_put": 2, "campaign.store_get": 1}
