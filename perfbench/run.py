"""The wgchan benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports ``wgchan`` from the
checkout's ``src`` only.  Workloads:

* ``exact_sums``: warm in-process exact sums, Weingarten tables and
  exponent minimizations, checked against frozen rationals (weingarten,
  moments, perm);
* ``spectra_large``: one ``run_ensemble`` trial per large spec per pass
  (montecarlo);
* ``cli_session``: fresh ``python -m wgchan.cli`` processes, one at a time
  (cli and, cold, every layer under it).

A run sets up, then repeats the seed's pass of operations while another
pass still fits in ``--seconds`` (at least one pass; two for spectra_large,
whose pass is one long trial per spec), timing each operation and checking
its answer.  The end-to-end metrics are the same on every workload:
``setup_s``, the median set-up time of several fresh processes;
``ops_per_s``, operations per second of time spent in them; ``op_p50_ms``,
the median operation latency; ``peak_rss_mb``, the largest resident set of
this process or of a child it ran.  With ``--trace 0`` the last line of
stdout holds them; with ``--trace 1`` the run measures one half of its
time untraced and the other half with spans around every call into a layer,
and the last line holds the per-layer metrics and the tracing overhead
(traced minus untraced).  The line before it, ``# report {...}``, holds
provenance, the workload's own named metrics with units and sample counts,
and the failed operations.  Exit code 0 means the run completed; 2 means the
checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import cli_session
import exact_sums
import spectra_large
from common import (
    ROOT,
    BenchError,
    PassResult,
    Spans,
    checkout_env,
    load_pool,
    peak_rss_mb,
    provenance,
    run_pass,
    use_checkout_source,
)

WORKLOADS = {"exact_sums": exact_sums, "spectra_large": spectra_large, "cli_session": cli_session}
SETUP_PROBE_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

#: per-layer metric -> (unit, span name or None when the workload computes it)
PER_LAYER = {
    "weingarten.wg_exact_s": ("s", "weingarten.wg_exact"),
    "weingarten.wg_exact_calls": ("count", "weingarten.wg_exact"),
    "moments.census_cold_s": ("s", "moments.census_cold"),
    "moments.exact_conjugate_s": ("s", "moments.exact_conjugate"),
    "moments.exact_pinched_s": ("s", "moments.exact_pinched"),
    "moments.minimize_s": ("s", "moments.minimize"),
    "moments.exact_values": ("count", None),
    "perm.reference_tables_s": ("s", "perm.reference_tables"),
    "montecarlo.isometry_s": ("s", "montecarlo.isometry"),
    "montecarlo.gram_s": ("s", "montecarlo.gram"),
    "montecarlo.eigensolve_s": ("s", "montecarlo.eigensolve"),
    "montecarlo.trace_powers_s": ("s", "montecarlo.trace_powers"),
    "montecarlo.lambda1_s": ("s", "montecarlo.lambda1"),
    "montecarlo.lambda1_rel_err": ("ratio", None),
    "montecarlo.gram_gflop": ("GFlop", None),
    "montecarlo.factor_mb": ("MB", None),
    "montecarlo.moment_ensemble_s": ("s", "montecarlo.moment_ensemble"),
    "montecarlo.batched_samples": ("count", None),
    "freeprob.theory_s": ("s", "freeprob.theory"),
    "cli.startup_s": ("s", None),
    **{f"cli.{kind}_s": ("s", None) for kind in dict(cli_session.SLOTS)},
    "trace.overhead_pass_s": ("s", None),
    "trace.overhead_op_p50_ms": ("ms", None),
}
#: Per-layer metrics computed from array shapes rather than measured.
COMPUTED = ("montecarlo.gram_gflop", "montecarlo.factor_mb")
EXACT_VALUE_SPANS = ("moments.census_cold", "moments.exact_conjugate", "moments.exact_pinched")


def _measure(workload, ctx, pool: dict, seed: int, seconds: float, spans: Spans | None,
             min_passes: int = 1) -> list[PassResult]:
    """Repeat the seed's pass while another pass still fits in ``seconds``."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload.build_pass(ctx, pool, seed, len(passes)), spans))
        if len(passes) >= min_passes and time.perf_counter() - start + passes[-1].wall_s > seconds:
            return passes


def _setup_samples(name: str, workload, own_s: float | None) -> list[float]:
    """Set-up time of fresh processes: the in-process workloads' own set-up
    (this process plus probes), or the CLI's start-up for cli_session."""
    samples = [] if own_s is None else [own_s]
    if workload.IN_PROCESS:
        command = [sys.executable, __file__, "--workload", name, "--setup-probe"]
    else:
        command = workload.SETUP_COMMAND
    while len(samples) < workload.SETUP_SAMPLES:
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, env=checkout_env(), cwd=ROOT,
                              timeout=SETUP_PROBE_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        samples.append(float(proc.stdout.split()[-1]) if workload.IN_PROCESS else wall)
    return samples


def _timed_setup(workload, pool: dict, spans: Spans | None):
    start = time.perf_counter()
    use_checkout_source()
    ctx = workload.setup(pool, spans)
    return ctx, time.perf_counter() - start


def _layer_metrics(workload, ctx, setup_spans: Spans, spans: Spans, untraced, traced) -> dict[str, float]:
    """Set-up spans count once, pass spans per traced pass; a layer the
    workload does not use reads 0."""
    per_pass = 1.0 / len(traced)

    def total(field: str, name: str) -> float:
        return getattr(setup_spans, field).get(name, 0) + getattr(spans, field).get(name, 0) * per_pass

    values = {metric: 0.0 for metric in PER_LAYER}
    for metric, (unit, span) in PER_LAYER.items():
        if span is not None:
            values[metric] = total("calls" if unit == "count" else "self_s", span)
    values["moments.exact_values"] = sum(total("calls", name) for name in EXACT_VALUE_SPANS)
    values["montecarlo.batched_samples"] = total("counts", "montecarlo.batched_samples")
    values.update(workload.layer_extras(ctx, untraced, traced))
    untraced_lat = [t for r in untraced for t in r.latencies]
    traced_lat = [t for r in traced for t in r.latencies]
    values["trace.overhead_pass_s"] = statistics.mean(sum(r.latencies) for r in traced) - statistics.mean(
        sum(r.latencies) for r in untraced
    )
    values["trace.overhead_op_p50_ms"] = (statistics.median(traced_lat) - statistics.median(untraced_lat)) * 1e3
    return values


def _named(workload, passes: list[PassResult]) -> dict:
    return {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in workload.named_metrics(passes).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        pool = load_pool()
        if args.setup_probe:
            print(_timed_setup(workload, pool, None)[1])
            return 0
        setup_spans = Spans() if args.trace else None
        ctx, own_setup_s = _timed_setup(workload, pool, setup_spans)
        setup_samples = None
        if not args.trace:
            setup_samples = _setup_samples(args.workload, workload, own_setup_s if workload.IN_PROCESS else None)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        untraced = _measure(workload, ctx, pool, args.seed, args.seconds / 2, None)
        spans = Spans()
        traced = _measure(workload, ctx, pool, args.seed, args.seconds / 2, spans)
        phases = untraced + traced
        values = _layer_metrics(workload, ctx, setup_spans, spans, untraced, traced)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        named = {"untraced": _named(workload, untraced), "traced": _named(workload, traced)}
    else:
        phases = _measure(workload, ctx, pool, args.seed, args.seconds, None, workload.MIN_PASSES)
        latencies = [t for r in phases for t in r.latencies]
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        named = _named(workload, phases)

    attempted = sum(len(r.latencies) for r in phases)
    failures = [f for r in phases for f in r.failures]
    common_named = {
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "samples": 1},
        "ops_attempted": {"value": attempted, "unit": "count", "samples": 1},
        "fail_frac": {"value": len(failures) / attempted, "unit": "ratio", "samples": attempted},
    }
    if setup_samples is not None:
        common_named["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s", "samples": len(setup_samples)}
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": len(phases),
        "provenance": provenance(args.workload, args.seed, {"operations": attempted, "passes": len(phases),
                                                            "setup": len(setup_samples or [])}),
        "named_metrics": {**named, **common_named},
        "failures": failures[:20],
    }
    if args.trace:
        report["computed_not_measured"] = list(COMPUTED)
    print("# report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
