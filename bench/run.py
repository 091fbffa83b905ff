"""The mxsum benchmark: three closed-loop workloads, one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --compare BASE NEW

Run from anywhere; the package is imported from ``src/`` next to this
directory, with ``MXSUM_THREADS`` unset.

Workloads (see ``workloads.py`` for the exact streams):

* full-points: full_minus / full_plus at real and complex a; all kernel
  quadrature and K-Bessel, no coefficient work;
* expansion-points: algebraic_minus / algebraic_plus with fresh lam per
  request; almost all coefficient generation;
* cli-reports: one ``mxsum`` process per request (tables, check,
  coefficient tables, eval).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, their times at the reference speed of
``speed.py``; with ``--trace 1`` it holds the per-layer metrics instead,
from a run that serves every request twice, untraced and traced in
alternating order.
The lines before it give the same numbers with sample counts and the
failures by class. Each run also writes its full result, with Python, mpmath,
nproc, commit and seed, to ``.bench_out/result-*.json``; ``--compare``
prints the ratio of every end-to-end metric between two such results
(or directories of them, compared by median).

Every output is checked outside the timed loop: full-points against
``direct_sum(tol=1e-15)`` (itself checked on a seeded subsample against
a 40-digit explicit sum), expansion-points against a 40-digit
evaluation of the same truncated expansion, coefficient tables against
40-digit values, report rows against their expected verdicts and eval
values against 40-digit sums or an independent route. The run exits
non-zero without a result if a check cannot run.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from time import perf_counter

import checks
import known_failures
import speed
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

END_TO_END = (
    ("verified_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("verified_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# set-up-only interpreters started besides the one that runs the loop;
# expansion-points fills a cold Bernoulli cache in its set-up (~7 s at
# the reference speed), so it has only the loop's own
SETUP_REPEATS = {"full-points": 4, "expansion-points": 0, "cli-reports": 5}
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A step of the benchmark itself could not run."""


def python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("MXSUM_THREADS", None)
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Run bench/worker.py; its block lines become the result's ``blocks``."""

    done = python([os.path.join(BENCH, "worker.py"), workload, str(seed), str(seconds), mode])
    if done.returncode != 0:
        raise BenchError(f"worker {mode} failed:\n{done.stderr[-2000:]}")
    *lines, last = done.stdout.splitlines()
    result = json.loads(last)
    result["blocks"] = [json.loads(line) for line in lines]
    return result


def prime() -> None:
    """Compile the package once, so set-up times exclude bytecode writing."""

    done = python(["-c", f"import sys; sys.path.insert(0, {SRC!r}); import mxsum.cli"])
    if done.returncode != 0:
        raise BenchError(f"cannot import mxsum from {SRC}:\n{done.stderr[-2000:]}")


def _children_cpu_s() -> float:
    """User and system CPU seconds of the children waited for so far."""

    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cli_process(argv: list[str], trace: bool) -> dict:
    """Run one mxsum process through the benchmark's entry script."""

    os.makedirs(OUT, exist_ok=True)
    report_path = os.path.join(OUT, "cli-report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    entry = os.path.join(BENCH, "cli_entry.py")
    t0, cpu0 = perf_counter(), _children_cpu_s()
    done = python([entry, report_path, "1" if trace else "0", *argv])
    record = {
        "returncode": done.returncode,
        "stdout": done.stdout,
        "stderr": done.stderr[-2000:],
        "process_s": perf_counter() - t0,
        "process_cpu_s": _children_cpu_s() - cpu0,
    }
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as handle:
            record.update(json.load(handle))
    return record


def cli_traced(seed: int, seconds: float):
    """Whole cycles until the untraced process time reaches ``seconds``;
    each request runs untraced and traced, the order alternating."""

    rng = workloads.timed_rng("cli-reports", seed)
    requests, records, traced = [], [], []
    while sum(r["process_s"] for r in records) < seconds:
        for cell in workloads.cli_cells(rng):
            for request in workloads.draw(cell, rng):
                for on in (True, False) if len(requests) % 2 else (False, True):
                    (traced if on else records).append(cli_process(request["argv"], on))
                requests.append(request)
    for request, before, after in zip(requests, records, traced):
        if (before["returncode"], before["stdout"]) != (after["returncode"], after["stdout"]):
            raise BenchError(f"tracing changed the output of {request['argv']}")
    # span ids restart in every process; the request index tells them apart
    spans = [
        [*span[:2], index, *span[3:]]
        for index, record in enumerate(traced)
        for span in record.get("spans", [])
    ]
    times = [(r["process_s"], r.get("import_s", 0.0), r.get("main_s", 0.0)) for r in traced]
    per_layer = tracing.aggregate(
        spans, sum(t[0] for t in times), sum(r["process_s"] for r in records), times
    )
    tracing.write_spans(spans, os.path.join(OUT, f"spans-cli-reports-seed{seed}.jsonl"))
    return requests, records, per_layer


def percentile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density, p = q/100
    (midpoint rule over the n rank intervals). Unlike one or two order
    statistics it does not jump where latencies fall into clusters, as the
    per-K costs of expansion-points and the commands of cli-reports do."""

    xs = sorted(values)
    n = len(xs)
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_w = [
        (a - 1.0) * math.log(u) + (b - 1.0) * math.log1p(-u)
        for u in ((i + 0.5) / n for i in range(n))
    ]
    top = max(log_w)
    weights = [math.exp(w - top) for w in log_w]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def traced_worker(workload: str, seed: int, seconds: float):
    result = worker(workload, seed, seconds, "trace")
    if result["traced_outcomes"] != result["outcomes"]:
        raise BenchError("tracing changed the result of a request")
    return result["ops"], result["outcomes"], result["per_layer"]


def measured_cli(seed: int, seconds: float) -> dict:
    """Whole cycles until ``seconds`` of process CPU time at the reference
    speed (or WALL_LIMIT times as much wall time), each process scaled by
    the probes it took of itself."""

    rng = workloads.timed_rng("cli-reports", seed)
    block = {"requests": [], "outcomes": [], "latency_s": []}
    deadline = perf_counter() + speed.WALL_LIMIT * seconds
    while sum(block["latency_s"]) < seconds and perf_counter() < deadline:
        for cell in workloads.cli_cells(rng):
            for request in workloads.draw(cell, rng):
                record = cli_process(request["argv"], False)
                probes = record.get("probes")
                if not probes:
                    raise BenchError(f"no speed probes from {request['argv']}: {record['stderr']}")
                elapsed = record["process_cpu_s"] - record["probe_s"]
                block["requests"].append(request)
                block["outcomes"].append(record)
                block["latency_s"].append(speed.scale(elapsed, probes))
    return block


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, serve and check one workload; its numbers and verdicts."""

    prime()
    setups = [
        worker(workload, seed, seconds, "setup")["setup_s"]
        for _ in range(SETUP_REPEATS[workload])
    ]
    per_layer = None
    if trace:
        serve = cli_traced if workload == "cli-reports" else partial(traced_worker, workload)
        requests, outcomes, per_layer = serve(seed, seconds)
        blocks = [{"requests": requests, "outcomes": outcomes, "latency_s": []}]
    elif workload == "cli-reports":
        blocks = [measured_cli(seed, seconds)]
        peak_kb = [o.get("maxrss_kb", 0) for o in blocks[0]["outcomes"]]
    else:
        result = worker(workload, seed, seconds, "run")
        setups.append(result["setup_s"])
        blocks = result["blocks"]
        peak_kb = [result["maxrss_kb"]]

    requests = [q for b in blocks for q in b["requests"]]
    outcomes = [o for b in blocks for o in b["outcomes"]]
    verdicts = checks.VERDICTS[workload](requests, outcomes, seed)
    n = len(verdicts)
    verified = verdicts.count("ok")
    failures: dict[str, int] = {}
    for verdict in verdicts:
        if verdict != "ok":
            key = "unexpected" if verdict.startswith("unexpected") else verdict
            failures[key] = failures.get(key, 0) + 1
    outcome = {
        "workload": workload,
        "served": n,
        "unexpected": [v for v in verdicts if v.startswith("unexpected")],
        "failed_frac": (n - verified) / n,
        "failures": failures,
        "per_layer": per_layer,
        "setup_samples_s": setups,
    }
    if trace:
        return outcome
    latency_ms = [t * 1e3 for b in blocks for t in b["latency_s"]]
    busy_s = sum(latency_ms) / 1e3
    outcome["metrics"] = {
        "verified_per_s": (verified / busy_s, f"{verified} verified in {busy_s:.2f} s of requests"),
        "latency_p50_ms": (percentile(latency_ms, 50), f"n={n}"),
        "latency_p90_ms": (percentile(latency_ms, 90), f"n={n}"),
        "verified_frac": (verified / n, f"{verified} of {n}"),
        "setup_s": (statistics.median(setups), f"median of n={len(setups)}"),
        "peak_rss_mb": (max(peak_kb) / 1024.0, f"max of n={len(peak_kb)} processes"),
    }
    # reported, not gated: only full-points has ten or more samples beyond it
    outcome["latency_p99_ms"] = percentile(latency_ms, 99)
    return outcome


# ---------------------------------------------------------------------------
# reporting


def metadata(seed: int, seconds: float, trace: bool) -> dict:
    import mpmath

    commit = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def describe(outcome: dict, trace: bool) -> dict:
    """Print one workload's numbers; return its result-line metrics."""

    print(
        f"== {outcome['workload']}: {outcome['served']} requests served, "
        f"{len(outcome['unexpected'])} failed unexpectedly"
    )
    for example in outcome["unexpected"][:5]:
        print(f"  UNEXPECTED {example}")
    print(
        f"  failed_frac {outcome['failed_frac']:.4f} of n={outcome['served']} "
        f"requests; by known class: {outcome['failures'] or 'none'}"
    )
    for name in outcome["failures"]:
        if name in known_failures.BY_NAME:
            cls = known_failures.BY_NAME[name]
            print(f"    {name}: {cls.symptom}; cause: {cls.cause}")
    if trace:
        names = tracing.per_layer_names()
        for name, unit in names:
            print(f"  {name:48s} {outcome['per_layer'][name]:14.6g} {unit}")
        return {name: {"value": outcome["per_layer"][name], "unit": unit} for name, unit in names}
    for name, unit in END_TO_END:
        value, samples = outcome["metrics"][name]
        print(f"  {name:16s} {value:14.6g} {unit:5s} ({samples})")
    beyond = outcome["served"] // 100
    print(f"  latency_p99_ms   {outcome['latency_p99_ms']:14.6g} ms    ({beyond} samples beyond; not a gated metric)")
    return {name: {"value": outcome["metrics"][name][0], "unit": unit} for name, unit in END_TO_END}


def save(outcome: dict, meta: dict) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"result-{outcome['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    )
    record = dict(outcome, meta=meta)
    if "metrics" in outcome:
        record["metrics"] = {
            name: {"value": value, "unit": dict(END_TO_END)[name], "samples": samples}
            for name, (value, samples) in outcome["metrics"].items()
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return path


def _load(path: str) -> list[dict]:
    paths = sorted(glob.glob(os.path.join(path, "result-*-trace0.json"))) if os.path.isdir(path) else [path]
    results = []
    for p in paths:
        with open(p, encoding="utf-8") as handle:
            results.append(json.load(handle))
    return results


def compare(base_path: str, new_path: str) -> int:
    """Print new/base for every workload x end-to-end metric (medians over seeds)."""

    def medians(results):
        by_workload: dict[str, dict[str, list[float]]] = {}
        for r in results:
            for name, m in r["metrics"].items():
                by_workload.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
        return by_workload

    base, new = medians(_load(base_path)), medians(_load(new_path))
    print(f"{'workload':18s} {'metric':16s} {'unit':5s} {'base':>12s} {'new':>12s} {'new/base':>9s}")
    for workload in workloads.WORKLOADS:
        if workload not in base or workload not in new:
            continue
        for name, unit in END_TO_END:
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            ratio = nm / bm if bm else math.nan
            print(
                f"{workload:18s} {name:16s} {unit:5s} {bm:12.6g} {nm:12.6g} {ratio:9.4f}"
                f"  (base n={len(b)}, new n={len(n)})"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=11.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not os.path.isfile(os.path.join(SRC, "mxsum", "__init__.py")):
        print(f"bench: no mxsum package under {SRC}", file=sys.stderr)
        return 2
    # probes and timed work share one CPU; children inherit the affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    trace = bool(args.trace)
    meta = metadata(args.seed, args.seconds, trace)
    print("bench " + " ".join(f"{k}={v}" for k, v in meta.items()))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            outcome = run_workload(workload, args.seed, args.seconds, trace)
            print(f"  saved {save(outcome, dict(meta, workload=workload))}")
            metrics = describe(outcome, trace)
            unexpected = len(outcome["unexpected"])
            line["correct"] = line["correct"] and unexpected == 0
            line["attempted"] += outcome["served"]
            line["failed"] += unexpected
            prefix = "" if len(names) == 1 else f"{workload}."
            line["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except (BenchError, checks.OracleError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
