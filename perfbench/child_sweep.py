"""One cold ``repro.cli sweep`` in a fresh process.

Usage::

    python3 perfbench/child_sweep.py --import-only [--calibrate]
    python3 perfbench/child_sweep.py --result OUT.json [--calibrate] \\
        [--spans SPANS.json] -- <sweep arguments>

``--import-only`` imports ``repro.cli`` and prints the mark (see
:mod:`bench_probe`) taken right after, so the parent can time process
start-up plus import.  Otherwise the child runs
``repro.cli.main(["sweep", ...])`` and writes, as JSON, the import mark,
the exit code and a mark when the sweep started, at each job's progress
line, at the campaign line and when the sweep ended.  With ``--calibrate``
the host probe runs from before the import to the end.  With ``--spans``
the layer wrappers of :mod:`bench_trace` are installed before the sweep
and their spans written at the end.  ``PYTHONPATH`` must name the
checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench_probe import HostProbe


class StampedOutput:
    """The sweep's ``out`` stream: marks progress lines, drops the rest.

    The CLI prints ``  <app>: <label>`` before each job runs and
    ``campaign: ...`` once the last one is committed, so each mark after
    the first shows when the previous job's result was in the store.
    """

    def __init__(self, mark) -> None:
        self.mark = mark
        self.job_marks = []
        self.campaign_end = None
        self._partial = ""

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            if self.campaign_end is None:
                if line.startswith("campaign:"):
                    self.campaign_end = self.mark()
                elif line.startswith("  "):
                    self.job_marks.append(self.mark())
        return len(text)

    def flush(self) -> None:
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--result")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("sweep_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    host = HostProbe()
    if args.calibrate:
        host.start()

    import repro.cli

    imported = host.mark()
    if args.import_only:
        host.stop()
        print(json.dumps(imported))
        return 0
    tracer = None
    if args.spans:
        import bench_trace

        tracer = bench_trace.install()
    sweep_args = [arg for arg in args.sweep_args if arg != "--"]
    out = StampedOutput(host.mark)
    start = host.mark()
    if args.calibrate:
        host.sample()  # so every interval from the start holds a probe
    code = repro.cli.main(["sweep", *sweep_args], out=out)
    end = host.mark()
    host.stop()
    if tracer is not None:
        tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "imported": imported,
                "code": code,
                "start": start,
                "job_marks": out.job_marks,
                "campaign_end": out.campaign_end,
                "end": end,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
