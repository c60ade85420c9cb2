"""Launch ``repro.cli serve`` in this process, optionally traced.

Usage::

    python3 perfbench/child_serve.py [--marks MARKS.json] [--spans SPANS.json] \\
        -- <serve arguments>

Without options this is ``python -m repro.cli serve``.  With ``--marks``
the host probe of :mod:`bench_probe` runs from before the import to the
end, and ``MARKS.json`` gets ``{"ready": mark}`` when the service announces
that it listens and ``{"ready": mark, "end": mark}`` when it stops, so the
parent can read the boot and the service's work at the probe's nominal
speed.  With ``--spans``, the layer wrappers of :mod:`bench_trace` are
installed first and their spans are written when the service stops
(SIGINT ends ``serve`` cleanly).  ``PYTHONPATH`` must name the checkout's
``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from bench_probe import HostProbe


class Marks:
    """Writes the probe's marks to a JSON file as the service reaches them."""

    def __init__(self, host: HostProbe, path: str) -> None:
        self.host = host
        self.path = path
        self.marks = {}

    def take(self, name: str) -> None:
        if self.path:
            self.marks[name] = self.host.mark()
            with open(self.path, "w", encoding="utf-8") as handle:
                json.dump(self.marks, handle)


class ReadyOutput:
    """``serve``'s out stream: echoes it, and marks the ``serving ...`` line."""

    def __init__(self, marks: Marks) -> None:
        self.marks = marks

    def write(self, text: str) -> int:
        if text.startswith("serving sweep queries on"):
            self.marks.take("ready")
        return sys.stdout.write(text)

    def flush(self) -> None:
        sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--marks")
    parser.add_argument("--spans")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    # A parent started without job control may pass SIGINT down ignored;
    # restore Python's handler so the harness can stop the service.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    host = HostProbe()
    marks = Marks(host, args.marks)
    if args.marks:
        host.start()

    import repro.cli

    tracer = None
    if args.spans:
        import bench_trace

        tracer = bench_trace.install()
    serve_args = [arg for arg in args.serve_args if arg != "--"]
    try:
        return repro.cli.main(["serve", *serve_args], out=ReadyOutput(marks))
    finally:
        host.stop()
        marks.take("end")
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
