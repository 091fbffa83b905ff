"""Layer-boundary tracing installed from outside the mxsum package.

``install`` replaces the public functions at each layer boundary with
timing wrappers, in every module namespace that holds them:

* kernel: the names ``evaluators`` imports from ``mxsum.kernel``;
* coefficients: ``a/b/bhat_coefficients`` as ``evaluators`` and ``cli``
  see them;
* evaluators: every route in ``mxsum.__all__``, also inside
  ``evaluators`` itself, so nested routes (``full_minus`` calling
  ``h_minus_quadrature``) become child spans;
* harness: the entry points ``cli`` and ``mxsum`` expose.

Module-private helpers are never patched. A span records its name, its
parent, the request it belongs to, its start and end, and its self time
(its duration minus that of its child spans). Spans are kept in memory
and written out by the caller when the run ends.
"""

from __future__ import annotations

import json
import math
import os
from collections import defaultdict
from time import perf_counter

KERNEL = (
    "integrate",
    "kv_complex",
    "sum_terms",
    "pfq_series",
    "accelerated_alternating_complex",
)
COEFFICIENTS = {"a_coefficients": "a", "b_coefficients": "b", "bhat_coefficients": "bhat"}
# every harness entry point is wrapped, so harness self time is complete;
# HARNESS_REPORTED are the ones with a metric of their own
HARNESS = (
    "reproduce_table1",
    "reproduce_table2",
    "reproduce_table3",
    "table2_convention_report",
    "tail_agreement_check",
    "check_suite",
    "decay_rate_fit",
    "emit_report",
)
HARNESS_REPORTED = (
    "reproduce_table1",
    "reproduce_table2",
    "reproduce_table3",
    "check_suite",
    "decay_rate_fit",
    "emit_report",
)
# the evaluation routes in mxsum.__all__; fixed here so that the metric
# set stays the same when a later version drops or adds a route
ROUTES = (
    "algebraic_minus",
    "algebraic_plus",
    "bessel_tail_minus",
    "bessel_tail_plus",
    "direct_sum",
    "full_minus",
    "full_plus",
    "h_minus_quadrature",
    "h_plus_quadrature",
    "integer_mu_closed_form",
    "j_mu_asymptotic",
    "j_mu_quadrature",
    "lambda0_plus",
    "mu_step_check",
    "olver_lambda0_minus",
    "small_a_minus",
    "tail_display_form",
)
LAYERS = ("kernel", "coefficients", "evaluators", "harness", "cli", "bench")


def kv_regime(z: complex) -> str:
    """The K_nu route for argument z, by the rule in ``kernel/bessel.py``."""

    z = complex(z)
    if z.imag < 0.0:
        z = z.conjugate()
    if abs(z) >= 20.0:
        return "hankel"
    if math.atan2(z.imag, z.real) <= 0.25 * math.pi + 1e-14:
        return "trapezoid"
    return "rotated"


class Tracer:
    """In-memory span recorder.

    A span is the tuple (id, parent, op, name, start, end, self_s,
    failed, count, tag); ``count`` is the work the call reports
    (nodes, terms, coefficient values) and ``tag`` its regime or lam.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def call(self, name, fn, args, kwargs, count=None, tag=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        failed = True
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append(
                (
                    span_id,
                    parent,
                    self.op,
                    name,
                    start,
                    end,
                    duration - frame[1],
                    failed,
                    None if failed or count is None else count(result),
                    None if tag is None else tag(args),
                )
            )

    def wrap(self, name, fn, count=None, tag=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, tag)

        return traced


def write_spans(spans, path: str) -> None:
    """One JSON array per line, in the field order of ``Tracer``."""

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def _terms_used(result) -> int:
    return result.terms_used


def _tail_terms(result) -> int:
    return result[0].tail_terms_used


def _values(result) -> int:
    return len(result.values)


def _lam(args) -> float:
    return float(args[0])


def _regime(args) -> str:
    return kv_regime(args[1])


def install(tracer: Tracer) -> list[tuple]:
    """Route every layer-boundary call of mxsum through ``tracer``.

    Returns the patches as (module, name, original, wrapper), for
    ``switch`` to turn tracing off and on again.
    """

    import mxsum
    from mxsum import cli, coefficients, evaluators, harness, kernel

    patches = []

    def patch(modules, span, name, original, count=None, tag=None):
        if original is None:
            return
        wrapper = tracer.wrap(span, original, count, tag)
        for module in modules:
            if getattr(module, name, None) is original:
                patches.append((module, name, original, wrapper))

    for name in KERNEL:
        patch(
            (evaluators,),
            f"kernel.{name}",
            name,
            getattr(kernel, name, None),
            None if name == "kv_complex" else _terms_used,
            _regime if name == "kv_complex" else None,
        )
    for name, kind in COEFFICIENTS.items():
        patch(
            (mxsum, evaluators, cli),
            f"coefficients.{kind}",
            name,
            getattr(coefficients, name, None),
            _values,
            _lam,
        )
    for name in ROUTES:
        patch(
            (mxsum, evaluators, harness, cli),
            f"evaluators.{name}",
            name,
            getattr(evaluators, name, None),
            _tail_terms if name.startswith("bessel_tail_") else None,
        )
    for name in HARNESS:
        patch((mxsum, harness, cli), f"harness.{name}", name, getattr(harness, name, None))
    switch(patches, True)
    return patches


def switch(patches: list[tuple], on: bool) -> None:
    for module, name, original, wrapper in patches:
        setattr(module, name, wrapper if on else original)


# ---------------------------------------------------------------------------
# aggregation into per-layer metrics


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""

    names = [
        ("kernel.integrate.calls", "count"),
        ("kernel.integrate.nodes", "count"),
        ("kernel.integrate.self_ms", "ms"),
        ("kernel.integrate.failed", "count"),
        ("kernel.kv_complex.calls.hankel", "count"),
        ("kernel.kv_complex.calls.trapezoid", "count"),
        ("kernel.kv_complex.calls.rotated", "count"),
        ("kernel.kv_complex.self_ms", "ms"),
        ("kernel.sum_terms.calls", "count"),
        ("kernel.sum_terms.terms", "count"),
        ("kernel.sum_terms.self_ms", "ms"),
        ("kernel.pfq_series.calls", "count"),
        ("kernel.pfq_series.self_ms", "ms"),
        ("kernel.accelerated_alternating_complex.calls", "count"),
        ("kernel.accelerated_alternating_complex.self_ms", "ms"),
    ]
    for kind in COEFFICIENTS.values():
        names += [
            (f"coefficients.{kind}.calls", "count"),
            (f"coefficients.{kind}.values", "count"),
            (f"coefficients.{kind}.self_ms", "ms"),
            (f"coefficients.{kind}.lam_reuse", "frac"),
        ]
    for route in ROUTES:
        names += [
            (f"evaluators.{route}.calls", "count"),
            (f"evaluators.{route}.self_ms", "ms"),
            (f"evaluators.{route}.failed", "count"),
        ]
    names.append(("evaluators.bessel_tail.terms", "count"))
    names += [(f"harness.{name}.ms", "ms") for name in HARNESS_REPORTED]
    names += [
        ("cli.process_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.main_ms", "ms"),
        ("cli.startup_ms", "ms"),
    ]
    names += [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    names += [
        ("trace.wall_ms", "ms"),
        ("trace.untraced_wall_ms", "ms"),
        ("trace.overhead_frac", "frac"),
        ("trace.unaccounted_frac", "frac"),
        ("trace.spans", "count"),
    ]
    return names


def aggregate(spans, wall_s: float, untraced_s: float, cli_times=None) -> dict:
    """Per-layer metrics from spans ordered by start.

    wall_s: time spent serving the traced requests; untraced_s: the same
    requests served without tracing, alternating with the traced ones. cli_times: per-process (process_s, import_s,
    main_s) for the CLI workload. Layer self times, plus the CLI
    process start-up and import for the CLI workload, should add up to
    wall_s; ``trace.unaccounted_frac`` is the share that does not.
    """

    calls = defaultdict(int)
    failed = defaultdict(int)
    counted = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    tags = defaultdict(int)
    seen_lam = defaultdict(set)
    reused = defaultdict(int)
    layer_self = defaultdict(float)
    for _sid, _parent, _op, name, start, end, own, bad, count, tag in spans:
        calls[name] += 1
        failed[name] += bad
        counted[name] += count or 0
        self_s[name] += own
        total_s[name] += end - start
        layer_self[name.split(".", 1)[0]] += own
        if name == "kernel.kv_complex":
            tags[tag] += 1
        if name.startswith("coefficients."):
            reused[name] += tag in seen_lam[name]
            seen_lam[name].add(tag)

    ms = 1e3
    out: dict[str, float] = {}
    for name in KERNEL:
        key = f"kernel.{name}"
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_ms"] = self_s[key] * ms
    out["kernel.integrate.nodes"] = counted["kernel.integrate"]
    out["kernel.integrate.failed"] = failed["kernel.integrate"]
    for regime in ("hankel", "trapezoid", "rotated"):
        out[f"kernel.kv_complex.calls.{regime}"] = tags[regime]
    out["kernel.sum_terms.terms"] = counted["kernel.sum_terms"]
    for kind in COEFFICIENTS.values():
        key = f"coefficients.{kind}"
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.values"] = counted[key]
        out[f"{key}.self_ms"] = self_s[key] * ms
        out[f"{key}.lam_reuse"] = reused[key] / calls[key] if calls[key] else 0.0
    for route in ROUTES:
        key = f"evaluators.{route}"
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_ms"] = self_s[key] * ms
        out[f"{key}.failed"] = failed[key]
    out["evaluators.bessel_tail.terms"] = (
        counted["evaluators.bessel_tail_minus"] + counted["evaluators.bessel_tail_plus"]
    )
    for name in HARNESS_REPORTED:
        out[f"harness.{name}.ms"] = total_s[f"harness.{name}"] * ms

    process = imports = mains = 0.0
    for process_s, import_s, main_s in cli_times or ():
        process += process_s
        imports += import_s
        mains += main_s
    startup = process - imports - mains
    out["cli.process_ms"] = process * ms
    out["cli.import_ms"] = imports * ms
    out["cli.main_ms"] = mains * ms
    out["cli.startup_ms"] = startup * ms
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_self[layer] * ms
    accounted = sum(layer_self.values()) + imports + startup
    out["trace.wall_ms"] = wall_s * ms
    out["trace.untraced_wall_ms"] = untraced_s * ms
    out["trace.overhead_frac"] = wall_s / untraced_s - 1.0
    out["trace.unaccounted_frac"] = 1.0 - accounted / wall_s
    out["trace.spans"] = len(spans)
    return out
