"""Entry script for one ``mxsum`` CLI process of the cli-reports workload.

    python3 bench/cli_entry.py REPORT_PATH TRACE MXSUM_ARGS...

Does what the ``mxsum`` console script does (import ``mxsum.cli`` and
call ``main``), and writes to REPORT_PATH the import and ``main`` times,
the exit status and the peak resident memory of this process. With
TRACE = 0 it probes the machine's speed throughout (see ``speed.py``)
and adds the probes; with TRACE = 1 it installs the layer tracing
instead and adds the spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from time import perf_counter

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(report_path: str, trace: bool, argv: list[str]) -> int:
    clock = contextlib.nullcontext() if trace else speed.Clock(speed.MIXES["cli-reports"])
    with clock:
        status, report = _run(trace, argv)
    if not trace:
        report.update(probe_s=clock.probe_s, probes=clock.samples)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return status


def _run(trace: bool, argv: list[str]) -> tuple[int, dict]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = perf_counter()
    import mxsum.cli

    t1 = perf_counter()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    t2 = perf_counter()
    if tracer is None:
        status = mxsum.cli.main(argv)
    else:
        status = tracer.call("cli.main", mxsum.cli.main, (argv,), {})
    t3 = perf_counter()
    sys.stdout.flush()

    import resource

    report = {
        "status": status,
        "import_s": t1 - t0,
        "main_s": t3 - t2,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }
    return status, report


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
