"""Command-line harness: Weingarten tables, exact moments, minimizer tables,
channel simulation, exact-vs-MC-vs-theory comparison, and entropy sweeps.

Output is CSV (default, schema tagged `# wgchan-schema v1`, rows streamed as
they are produced, written by ``csv.writer``) or strict JSON (one document
with config, rows, schema_version; NaN and infinities become null).
Floats are printed with 17 significant digits so they round-trip exactly.
Exit codes: 0 success, 1 reference-table mismatch, 2 invalid input, 3
strict-mode statistical failure.  Numeric arguments, the rationals --c, --d
and --t included, are checked before any output, so invalid input prints
nothing to stdout and creates no --out file.  ``compare --strict`` gates on
the exact column only, at |z| <= 4, so it refuses (exit 2) the independent
flavor, which has no exact value.  Every ensemble command prints the
standard error of a single trial as nan (JSON null).

Seeding: a command with seed S runs trial t on the stream
``numpy.random.default_rng([S, t])`` (ensemble commands) or as the t-th
output drawn from the single sequential stream ``default_rng(S)`` (batched
moment estimates), so adding trials extends a sweep without reshuffling
earlier trials.

At module level only the standard library is imported; each command imports
the layers it runs (``wg`` only ``weingarten``, ``exact-moments`` and
``minimize`` only ``moments``), so building the parser, ``--help``, usage
errors and the checks this module makes itself never load numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .moments import RegimeParams
    from .montecarlo import ChannelSpec

SCHEMA_VERSION = "wgchan-schema v1"

COMPARE_COLUMNS = ["p", "exact", "mc_mean", "mc_stderr", "theory", "z_exact", "z_theory"]
#: Largest |z_exact| that ``compare --strict`` passes.
Z_THRESHOLD = 4.0


class CliError(Exception):
    """Invalid input; maps to exit code 2 with a diagnostic."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_value(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None  # strict JSON has no NaN or Infinity
    return value


@contextmanager
def _writer(args, columns: list[str], config: dict):
    """Open --out (default stdout) and yield a function that writes one row
    from a dict, reading only `columns`.  CSV rows stream as they come; the
    JSON document is written only when the command returns normally, so a
    run that fails part-way leaves no document that parses."""
    if args.out is None:
        out = sys.stdout
    else:
        try:
            out = open(args.out, "w")
        except OSError as exc:
            raise CliError(f"cannot open --out {args.out!r}: {exc.strerror}") from exc
    rows: list[dict] = []
    table = csv.writer(out, lineterminator="\n")

    def row(values: dict) -> None:
        if args.format == "csv":
            table.writerow([_fmt(values.get(col)) for col in columns])
            out.flush()
        else:
            rows.append({col: _json_value(values.get(col)) for col in columns})

    try:
        if args.format == "csv":
            out.write(f"# {SCHEMA_VERSION}\n")
            table.writerow(columns)
            out.flush()
        yield row
        if args.format == "json":
            json.dump({"schema_version": SCHEMA_VERSION, "config": config, "rows": rows}, out, indent=2)
            out.write("\n")
            out.flush()
    finally:
        if out is not sys.stdout:
            out.close()


def _rational(option: str, text: str | None) -> Fraction | None:
    """The exact rational that `text` spells, such as 4/3 or 0.5 (None
    stays None); anything else, 1/0 included, is invalid input."""
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse {option}={text!r} as a rational number") from exc


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise CliError(f"--seed must be >= 0, got {seed}")


def _regime_options(args) -> tuple[Fraction, Fraction, Fraction | None]:
    """`simulate`'s and `entropy`'s --seed, --c, --d and --t, checked before
    numpy loads or any output; the regime k ~ c n^d needs d >= 0."""
    _check_seed(args.seed)
    c, d, t = _rational("--c", args.c), _rational("--d", args.d), _rational("--t", args.t)
    if d < 0:
        raise CliError(f"--d={d} must be >= 0")
    return c, d, t


def _spec_for_regime(n: int, c: Fraction, d: Fraction, t: Fraction | None, flavor: str) -> ChannelSpec:
    from .montecarlo import ChannelSpec

    if n < 1:
        raise CliError(f"n={n} must be >= 1")
    if d == 0:
        if c.denominator != 1:
            raise CliError("d=0 needs an integer ancilla dimension c")
        k = int(c)
    else:
        try:
            k = round(float(c) * float(n) ** float(d))
        except OverflowError as exc:
            raise CliError(f"c={c}, d={d} at n={n} give an ancilla dimension beyond float range") from exc
    if k < 1:
        raise CliError(f"regime gives ancilla dimension k={k} < 1")
    if t is None:
        m = n
    else:
        m = round(t * n * k)
        if m < 1 or (n * k) % m != 0:
            raise CliError(f"t={t} gives input dimension m={m} not dividing nk={n * k}")
    return ChannelSpec(n=n, k=k, m=m, flavor=flavor)


# ---------------------------------------------------------------------------
# commands


def wg_exact(n: int, p: int):
    """`weingarten.wg_exact`, imported on the first call."""
    from . import weingarten

    return weingarten.wg_exact(n, p)


def cmd_wg(args) -> int:
    if args.n < args.p:
        raise CliError(f"n < p ({args.n} < {args.p}): Weingarten table undefined")
    table = wg_exact(args.n, args.p)
    config = {"command": "wg", "n": args.n, "p": args.p}
    with _writer(args, ["cycle_type", "wg", "wg_float"], config) as row:
        for ct in sorted(table.values, key=lambda c: (-c.num_cycles, c.parts)):
            val = table.values[ct]
            row({"cycle_type": str(ct), "wg": val, "wg_float": float(val)})
    return 0


def cmd_exact_moments(args) -> int:
    if args.pinched and args.m is not None:
        raise CliError("--m does not apply to --pinched, which is defined at m = n")
    from . import moments

    m = args.n if args.m is None else args.m
    config = {
        "command": "exact-moments",
        "n": args.n,
        "k": args.k,
        "m": m,
        "p_max": args.p_max,
        "pinched": args.pinched,
    }
    moments.validate_exact_args(args.p_max, args.n, args.k, m)
    with _writer(args, ["p", "exact", "exact_float"], config) as row:
        for p in range(1, args.p_max + 1):
            if args.pinched:
                value = moments.exact_moment_pinched(p, args.n, args.k)
            else:
                value = moments.exact_moment_conjugate(p, args.n, args.k, m)
            row({"p": p, "exact": value, "exact_float": float(value)})
    return 0


def _render_minimizers(report) -> str:
    from . import moments

    names = []
    gamma, delta, gtilde = moments.make_gamma_delta(report.p)
    ident = moments.identity(2 * report.p)
    labels = {ident: "id", delta: "delta", gamma: "gamma", gtilde: "gamma_tilde"}
    for entry in report.minimizers:
        if isinstance(entry, tuple):
            names.append("(" + " ".join(_label_one(e, labels) for e in entry) + ")")
        else:
            names.append(_label_one(entry, labels))
    return " ".join(names)


def _label_one(entry, labels) -> str:
    return labels.get(entry, str(getattr(entry, "images", entry)))


def cmd_minimize(args) -> int:
    if args.p < 1:
        raise CliError(f"p={args.p} must be >= 1")
    d_values = [_rational("--d", text) for text in args.d]
    if min(d_values) < 0:
        raise CliError(f"--d={min(d_values)} must be >= 0")
    from . import moments

    if args.p > moments.DEFAULT_PAIR_ORDER:
        raise CliError(f"p={args.p} exceeds the pair-search cap {moments.DEFAULT_PAIR_ORDER}")
    config = {"command": "minimize", "p": args.p, "d": [str(d) for d in d_values]}
    columns = ["problem", "d", "minimum", "n_minimizers", "minimizers"]
    mismatches = []
    with _writer(args, columns, config) as row:
        for d in d_values:
            reports = [moments.minimize_S2(args.p, d), moments.minimize_S1(args.p, d)]
            if 0 < d < 1 or 1 < d < 2:
                reports.append(moments.minimize_S_pinched(args.p, d))
            reports.append(moments.minimize_S(args.p, d))
            for report in reports:
                row(
                    {
                        "problem": report.problem,
                        "d": str(d),
                        "minimum": report.minimum,
                        "n_minimizers": len(report.minimizers),
                        "minimizers": _render_minimizers(report),
                    }
                )
            if args.check_tables:
                expected_s2 = moments.reference_S2(args.p, d)
                expected_s1 = moments.reference_S1(args.p, d)
                got_s2 = (reports[0].minimum, reports[0].minimizer_set())
                got_s1 = (reports[1].minimum, reports[1].minimizer_set())
                if got_s2 != expected_s2:
                    mismatches.append(f"S2 mismatch at p={args.p}, d={d}")
                if got_s1 != expected_s1:
                    mismatches.append(f"S1 mismatch at p={args.p}, d={d}")
    if mismatches:
        for line in mismatches:
            print(line, file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args) -> int:
    c, d, t = _regime_options(args)
    from . import montecarlo

    spec = _spec_for_regime(args.n, c, d, t, args.flavor)
    config = {
        "command": "simulate",
        "flavor": spec.flavor,
        "n": spec.n,
        "k": spec.k,
        "m": spec.m,
        "trials": args.trials,
        "seed": args.seed,
    }
    columns = [
        "row",
        "trial",
        "lambda1",
        "entropy",
        "bulk_mean",
        "bulk_std",
        "bulk_m1",
        "bulk_m2",
        "bulk_m3",
        "bulk_m4",
    ]
    stream = montecarlo.iter_trial_statistics(spec, args.trials, args.seed)  # checks before any output
    with _writer(args, columns, config) as row:
        trials = []
        for trial, stats in enumerate(stream):
            stats["bulk_mean"] = stats["bulk_m1"]
            trials.append(stats)
            row({"row": "trial", "trial": trial, **stats})
        report = montecarlo.EnsembleReport.from_trials(spec, trials)
        for kind, aggregate in (("mean", report.mean), ("stderr", report.stderr)):
            row({"row": kind, **{name: aggregate(name) for name in report.per_trial}})
    return 0


def cmd_compare(args) -> int:
    m = args.n if args.m is None else args.m
    if args.pinched and args.flavor != "conjugate":
        raise CliError("pinched comparison is defined for the conjugate flavor")
    if args.pinched and m != args.n:
        raise CliError(f"pinched comparison is defined at m = n, got m={m} with n={args.n}")
    if args.strict and args.flavor != "conjugate":
        raise CliError(f"--strict gates on exact values, and the {args.flavor} flavor has none")
    if args.strict and args.trials < 2:
        raise CliError(f"--strict needs at least 2 trials for a standard error, got {args.trials}")
    _check_seed(args.seed)
    from . import montecarlo
    from .moments import RegimeParams

    spec = montecarlo.ChannelSpec(n=args.n, k=args.k, m=m, flavor=args.flavor)
    config = {
        "command": "compare",
        "flavor": spec.flavor,
        "n": spec.n,
        "k": spec.k,
        "m": spec.m,
        "p_max": args.p_max,
        "trials": args.trials,
        "seed": args.seed,
        "pinched": args.pinched,
    }
    montecarlo.validate_moment_args(spec, args.p_max, args.trials)
    exacts = [_exact_moment(spec, p, args.pinched) for p in range(1, args.p_max + 1)]
    gates = []
    with _writer(args, COMPARE_COLUMNS, config) as row:
        ensemble = montecarlo.moment_ensemble(
            spec, args.p_max, args.trials, args.seed, pinched=args.pinched
        )
        c = Fraction(spec.k, spec.n)
        regime = RegimeParams(c=c, d=Fraction(1), b=Fraction(spec.m, spec.n))
        for p, exact in enumerate(exacts, start=1):
            mc_mean = ensemble.mean(p, pinched=args.pinched)
            mc_stderr = ensemble.stderr(p, pinched=args.pinched)
            theory = _theory_moment(spec, regime, p, args.pinched)
            z_exact = _z(mc_mean, mc_stderr, float(exact)) if exact is not None else None
            z_theory = _z(mc_mean, mc_stderr, theory)
            row(
                {
                    "p": p,
                    "exact": exact,
                    "mc_mean": mc_mean,
                    "mc_stderr": mc_stderr,
                    "theory": theory,
                    "z_exact": z_exact,
                    "z_theory": z_theory,
                }
            )
            if z_exact is not None:
                gates.append(abs(z_exact))
    # a NaN gate compares False with everything, so it fails here
    failed = [g for g in gates if not g <= Z_THRESHOLD]
    if args.strict and failed:
        worst = math.nan if any(math.isnan(g) for g in failed) else max(failed)
        print(f"strict mode: worst |z| = {worst:.3g} > {Z_THRESHOLD}", file=sys.stderr)
        return 3
    return 0


def _exact_moment(spec: ChannelSpec, p: int, pinched: bool) -> Fraction | None:
    """Exact E tr(Z^p) (or of QZQ), or None for the independent flavor,
    which has no exact sum."""
    from . import moments

    if spec.flavor != "conjugate":
        return None
    if pinched:
        return moments.exact_moment_pinched(p, spec.n, spec.k)
    return moments.exact_moment_conjugate(p, spec.n, spec.k, spec.m)


def _theory_moment(spec: ChannelSpec, regime: RegimeParams, p: int, pinched: bool) -> float:
    from . import freeprob, moments

    if pinched or spec.flavor == "independent":
        # spectrum ~ free Poisson of parameter c^2 at scale c^2 n^2 = k^2:
        # E tr(Z^p) ~ n^2 * moment / k^(2p)
        c2 = (spec.k / spec.n) ** 2
        mp = float(freeprob.mp_moment(c2, p))
        return mp * spec.n**2 / float(spec.k) ** (2 * p)
    pred = moments.asymptotic_moment_conjugate(p, regime)
    return pred.value(spec.n, spec.k)


def _z(mean: float, stderr: float, reference: float) -> float:
    # a statistic that is deterministic up to roundoff (like tr Z = 1) has a
    # vanishing stderr; grade it by absolute closeness instead
    if stderr < 1e-13 * max(1.0, abs(reference)):
        return 0.0 if abs(mean - reference) < 1e-10 * max(1.0, abs(reference)) else float("inf")
    return (mean - reference) / stderr


def cmd_entropy(args) -> int:
    c, d, t = _regime_options(args)
    from . import freeprob, montecarlo
    from .moments import RegimeParams

    n_list = [int(x) for x in args.n_list.split(",")]
    config = {
        "command": "entropy",
        "d": str(d),
        "c": str(c),
        "t": None if t is None else str(t),
        "n_list": n_list,
        "trials": args.trials,
        "seed": args.seed,
    }
    columns = [
        "n",
        "k",
        "m",
        "h_mean",
        "h_stderr",
        "prediction",
        "naive_bound",
        "defect_mean",
        "defect_stderr",
        "predicted_defect",
    ]
    regime = RegimeParams(c=c, d=d, t=t)
    specs = [_spec_for_regime(n, c, d, t, "conjugate") for n in n_list]
    # each stream checks its arguments as it is made, before any output
    streams = [montecarlo.iter_trial_statistics(spec, args.trials, args.seed, full_spectrum=True) for spec in specs]
    predictions = [freeprob.entropy_prediction(regime, spec.n, spec.k) for spec in specs]
    with _writer(args, columns, config) as row:
        for spec, stream, prediction in zip(specs, streams, predictions):
            report = montecarlo.EnsembleReport.from_trials(spec, list(stream))
            h_mean = report.mean("entropy")
            h_se = report.stderr("entropy")
            cap = 2 * math.log(min(spec.k, spec.n))
            row(
                {
                    "n": spec.n,
                    "k": spec.k,
                    "m": spec.m,
                    "h_mean": h_mean,
                    "h_stderr": h_se,
                    "prediction": prediction.leading,
                    "naive_bound": freeprob.naive_bound(spec.k) if spec.k >= 2 else None,
                    "defect_mean": cap - h_mean,
                    "defect_stderr": h_se,
                    "predicted_defect": prediction.defect if prediction.defect_known else None,
                }
            )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgchan",
        description="Weingarten calculus and random-quantum-channel output spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_wg = sub.add_parser("wg", help="exact Weingarten table for (n, p)")
    p_wg.add_argument("--n", type=int, required=True)
    p_wg.add_argument("--p", type=int, required=True)
    add_output(p_wg)
    p_wg.set_defaults(func=cmd_wg)

    p_em = sub.add_parser("exact-moments", help="exact E tr(Z^p), p <= 4, as one class-weighted sum over S_2p")
    p_em.add_argument("--n", type=int, required=True)
    p_em.add_argument("--k", type=int, required=True)
    p_em.add_argument("--m", type=int, default=None, help="input dimension (default n; not with --pinched)")
    p_em.add_argument("--p-max", type=int, default=2)
    p_em.add_argument("--pinched", action="store_true")
    add_output(p_em)
    p_em.set_defaults(func=cmd_exact_moments)

    p_min = sub.add_parser("minimize", help="exhaustive exponent minimizations")
    p_min.add_argument("--p", type=int, required=True)
    p_min.add_argument("--d", action="append", required=True, help="rational, e.g. 1 or 4/3 (repeatable)")
    p_min.add_argument("--check-tables", action="store_true")
    add_output(p_min)
    p_min.set_defaults(func=cmd_minimize)

    p_sim = sub.add_parser("simulate", help="sample product-channel outputs")
    p_sim.add_argument("--flavor", choices=["conjugate", "independent"], default="conjugate")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--c", default="1", help="ancilla ratio/coefficient (rational)")
    p_sim.add_argument("--d", default="1", help="ancilla growth exponent (rational)")
    p_sim.add_argument("--t", default=None, help="Bell fraction m = t n k (rational)")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    add_output(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="exact (one sum over S_2p, p <= 4) vs Monte Carlo vs theory moments")
    p_cmp.add_argument("--flavor", choices=["conjugate", "independent"], default="conjugate")
    p_cmp.add_argument("--n", type=int, required=True)
    p_cmp.add_argument("--k", type=int, required=True)
    p_cmp.add_argument("--m", type=int, default=None, help="input dimension (default n; must equal n with --pinched)")
    p_cmp.add_argument("--p-max", type=int, default=2)
    p_cmp.add_argument("--trials", type=int, required=True)
    p_cmp.add_argument("--seed", type=int, required=True)
    p_cmp.add_argument("--pinched", action="store_true")
    p_cmp.add_argument("--strict", action="store_true")
    add_output(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_ent = sub.add_parser("entropy", help="output entropy vs prediction vs naive bound")
    p_ent.add_argument("--d", required=True)
    p_ent.add_argument("--c", required=True)
    p_ent.add_argument("--t", default=None, help="Bell fraction m = t n k (rational; needs --d 0)")
    p_ent.add_argument("--n-list", required=True, help="comma-separated output dimensions")
    p_ent.add_argument("--trials", type=int, required=True)
    p_ent.add_argument("--seed", type=int, required=True)
    add_output(p_ent)
    p_ent.set_defaults(func=cmd_entropy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
