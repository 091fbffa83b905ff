"""One fresh interpreter that imports mxsum and serves a workload.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (import mxsum and run the warm-up pass), ``run``
(set up, then the timed closed loop) or ``trace`` (set up, then every
request twice, untraced and traced in alternating order). Standard
output carries one JSON line per block of requests (run mode), then one
JSON object with the rest of the result; ``run.py`` checks it. Set-up
and request times are at the reference speed of ``speed.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import speed
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def execute(mx, op: dict) -> list:
    """Run one in-process request; never raises."""

    try:
        sign = op["route"].rsplit("_", 1)[1]
        params = mx.SeriesParams(op["mu"], op["lam"], complex(*op["a"]), sign)
        route = getattr(mx, op["route"])
        evaluation = route(params, K=op["K"]) if "K" in op else route(params)
        value = complex(evaluation.value)
        return ["ok", value.real, value.imag]
    except Exception as exc:  # the request failed; run.py classifies it
        return ["error", type(exc).__name__, str(exc)[:200]]


def warm_up(workload: str, seed: int):
    """Import mxsum and serve the warm-up requests; returns the package."""

    requests = workloads.warmup(workload, seed)
    if workload == "cli-reports":
        import mxsum.cli

        for request in requests:
            with contextlib.redirect_stdout(io.StringIO()):
                mxsum.cli.main(request["argv"])
        return mxsum
    import mxsum

    for op in requests:
        execute(mxsum, op)
    return mxsum


def timed_loop(mx, clock: speed.Clock, workload: str, seed: int, seconds: float) -> None:
    """Whole blocks until ``seconds`` of request CPU time at the reference
    speed (or WALL_LIMIT times as much wall time); prints each block's
    requests, outcomes and latencies."""

    rng = workloads.timed_rng(workload, seed)
    served = 0.0
    deadline = perf_counter() + speed.WALL_LIMIT * seconds
    index = 0
    while served < seconds and perf_counter() < deadline:
        requests, outcomes, latency_s = [], [], []
        for cell in workloads.cells(workload, rng, index):
            for op in workloads.draw(cell, rng):
                mark = clock.mark()
                outcomes.append(execute(mx, op))
                latency_s.append(clock.scaled(mark))
                requests.append(op)
        served += sum(latency_s)
        index += 1
        # one line per block, so results are not kept in this process
        print(json.dumps({"requests": requests, "outcomes": outcomes, "latency_s": latency_s}))


def traced_loop(mx, workload: str, seed: int, seconds: float):
    """Whole blocks until the untraced time reaches ``seconds``; each
    request runs untraced and traced, the order alternating."""

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    rng = workloads.timed_rng(workload, seed)
    ops, outcomes, traced = [], [], []
    untraced_s = traced_s = 0.0
    index = 0
    while untraced_s < seconds:
        for cell in workloads.cells(workload, rng, index):
            for op in workloads.draw(cell, rng):
                tracer.op = len(ops)
                for on in (True, False) if len(ops) % 2 else (False, True):
                    tracing.switch(patches, on)
                    t0 = perf_counter()
                    if on:
                        traced.append(tracer.call("bench.op", execute, (mx, op), {}))
                        traced_s += perf_counter() - t0
                    else:
                        outcomes.append(execute(mx, op))
                        untraced_s += perf_counter() - t0
                ops.append(op)
        index += 1
    tracing.switch(patches, False)
    return tracer, ops, outcomes, traced, untraced_s, traced_s


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    os.environ.pop("MXSUM_THREADS", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = {}
    if mode == "trace":
        t0 = perf_counter()
        mx = warm_up(workload, seed)
        result["setup_s"] = perf_counter() - t0
        tracer, ops, outcomes, traced, untraced_s, traced_s = traced_loop(
            mx, workload, seed, seconds
        )
        result.update(ops=ops, outcomes=outcomes, traced_outcomes=traced)
        result["per_layer"] = tracing.aggregate(tracer.spans, traced_s, untraced_s)
        path = os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{seed}.jsonl")
        tracing.write_spans(tracer.spans, path)
    else:
        with speed.Clock(speed.MIXES[workload]) as clock:
            mark = clock.mark()
            mx = warm_up(workload, seed)
            result["setup_s"] = clock.scaled(mark)
            if mode == "run":
                timed_loop(mx, clock, workload, seed, seconds)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
