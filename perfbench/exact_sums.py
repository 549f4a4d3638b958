"""exact_sums: one warm in-process stream of exact operations.

Almost all the work is in ``weingarten``, ``moments`` and ``perm``;
``montecarlo`` sits idle.  Every answer is checked against the frozen
rationals in ``pool.json`` with zero tolerance, and S1 / S2 minimizations
also against the closed-form tables ``reference_S1`` / ``reference_S2``.

A pass runs the whole pool, stratum by stratum (moment points of one kind,
Weingarten tables of one order, minimizations of one problem and order),
except that the seed leaves out one entry of every stratum with at least
``DROP_FROM`` entries; it also chooses the order.  The mix of costs, and
with it every quantile, is then nearly the same for every seed, while a
claim can still be re-checked on operations a seed did not run.  Moment
values are requested per point (n, k, m) for p = 1, 2, 3 in turn, the way
``exact-moments --p-max 3`` requests them.

Traced, the benchmark calls ``wg_exact`` itself and passes ``wg=`` to the
moment sums, so the Weingarten rebuild and the census sum are timed apart.
Set-up is traced too, so the cold census builds and the geodesic
enumerations behind the reference tables show as their own spans.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

from common import Op, PassResult, Spans, minimizer_digest, p90, span

#: Whole passes an untraced run makes at least.
MIN_PASSES = 1
#: Fresh-process set-ups whose median is setup_s.
SETUP_SAMPLES = 3
IN_PROCESS = True

#: Strata with at least this many entries lose one seed-chosen entry per pass.
#: The costliest stratum, Weingarten tables at p = 7, has four and is whole.
DROP_FROM = 5


class Context:
    def __init__(self):
        from wgchan import moments, weingarten

        self.moments = moments
        self.weingarten = weingarten
        self.minimizers = {
            "S": moments.minimize_S,
            "S_pinched": moments.minimize_S_pinched,
            "S1": moments.minimize_S1,
            "S2": moments.minimize_S2,
        }
        self.references = {"S1": moments.reference_S1, "S2": moments.reference_S2}


def _moment(ctx: Context, kind: str, p: int, point: dict, spans: Spans | None, span_name: str) -> Fraction:
    """One moment value.  Traced, the Weingarten table is built here and
    passed in, so its rebuild and the census sum are timed apart."""
    n, k = point["n"], point["k"]
    table = None
    if spans is not None:
        with spans.span("weingarten.wg_exact"):
            table = ctx.weingarten.wg_exact(n * k, 2 * p, max_order=max(2 * p, 7))
    with span(spans, span_name):
        if kind == "conj":
            return ctx.moments.exact_moment_conjugate(p, n, k, point["m"], wg=table)
        return ctx.moments.exact_moment_pinched(p, n, k, wg=table)


def setup(pool: dict, spans: Spans | None) -> Context:
    """Import and fill every cache the pool touches: the census for each
    order and pinching pattern, the S_2p tables, and the geodesic sets
    behind the reference tables.  Independent of the seed."""
    ctx = Context()
    conj, pinched = pool["conjugate"][0], pool["pinched"][0]
    for p in (1, 2, 3):
        _moment(ctx, "conj", p, conj, spans, "moments.census_cold")
        _moment(ctx, "pinched", p, pinched, spans, "moments.census_cold")
    for entry in pool["minimize"]:
        if entry["problem"] in ctx.references:
            with span(spans, "perm.reference_tables"):
                ctx.references[entry["problem"]](entry["p"], Fraction(entry["d"]))
    for problem, p, d in (("S", 3, "1"), ("S_pinched", 3, "1/2"), ("S1", 4, "1")):
        with span(spans, "moments.minimize"):
            ctx.minimizers[problem](p, Fraction(d))
    return ctx


def _moment_op(ctx: Context, kind: str, p: int, point: dict) -> Op:
    want = Fraction(point["values"][str(p)])
    where = ",".join(str(point[key]) for key in ("n", "k", "m") if key in point)
    name = "moments.exact_conjugate" if kind == "conj" else "moments.exact_pinched"

    def check(got, spans):
        return None if got == want else f"got {got}, frozen {want}"

    return Op(kind, f"{kind} p={p} ({where})", lambda spans: _moment(ctx, kind, p, point, spans, name), check)


def _wg_op(ctx: Context, entry: dict) -> Op:
    n, p = entry["n"], entry["p"]
    want = {ct: Fraction(v) for ct, v in entry["values"].items()}

    def run(spans):
        with span(spans, "weingarten.wg_exact"):
            return ctx.weingarten.wg_exact(n, p)

    def check(table, spans):
        got = {str(ct): v for ct, v in table.values.items()}
        return None if got == want else "table differs from the frozen one"

    return Op("wg", f"wg_exact({n}, {p})", run, check)


def _minimize_op(ctx: Context, entry: dict) -> Op:
    problem, p, d = entry["problem"], entry["p"], Fraction(entry["d"])
    fn = ctx.minimizers[problem]

    def run(spans):
        with span(spans, "moments.minimize"):
            return fn(p, d)

    def check(report, spans):
        if str(report.minimum) != entry["minimum"] or len(report.minimizers) != entry["n_minimizers"]:
            return f"minimum {report.minimum} with {len(report.minimizers)} minimizers differs from the pool"
        if minimizer_digest(report) != entry["digest"]:
            return "minimizer set differs from the pool"
        if problem in ctx.references:
            with span(spans, "perm.reference_tables"):
                reference = ctx.references[problem](p, d)
            if (report.minimum, report.minimizer_set()) != reference:
                return f"disagrees with reference_{problem}"
        return None

    return Op("minimize", f"minimize_{problem}(p={p}, d={entry['d']})", run, check)


def build_pass(ctx: Context, pool: dict, seed: int, pass_index: int) -> list[Op]:
    """The seed's operations; every pass of a run repeats the same list."""
    strata: dict[tuple, list[list[Op]]] = {}
    for kind in ("conj", "pinched"):
        for point in pool["conjugate" if kind == "conj" else "pinched"]:
            strata.setdefault((kind,), []).append([_moment_op(ctx, kind, q, point) for q in (1, 2, 3)])
    for entry in pool["wg"]:
        strata.setdefault(("wg", entry["p"]), []).append([_wg_op(ctx, entry)])
    for entry in pool["minimize"]:
        strata.setdefault((entry["problem"], entry["p"]), []).append([_minimize_op(ctx, entry)])
    rng = random.Random(seed)
    groups: list[list[Op]] = []
    for stratum in strata.values():
        if len(stratum) >= DROP_FROM:
            stratum.pop(rng.randrange(len(stratum)))
        groups += stratum
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def layer_extras(ctx: Context, untraced: list[PassResult], traced: list[PassResult]) -> dict[str, float]:
    return {}


def named_metrics(passes: list[PassResult]) -> dict[str, tuple[float, str, int]]:
    latencies = [t for result in passes for t in result.latencies]
    count = len(latencies)
    return {
        "exact_ops_per_s": (count / sum(latencies), "1/s", count),
        "exact_op_p50_ms": (statistics.median(latencies) * 1e3, "ms", count),
        "exact_op_p90_ms": (p90(latencies) * 1e3, "ms", count),
    }
