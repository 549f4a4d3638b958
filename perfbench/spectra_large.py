"""spectra_large: seeded ``run_ensemble`` trials at library defaults on three
large specs, one trial of each per pass, each timed on its own.  An untraced
run makes at least two passes: a trial takes seconds and the machine's
speed drifts, so one trial per spec is too few to report a steady median.

Almost all the work is in ``montecarlo`` (isometry QR, Gram assembly, the
spectral stage); the exact layers sit idle.  The specs split the spectral
stage into its two routes, so a gain on one route shows as no change on the
other:

* lin64c: n = k = m = 64, conjugate; trace route plus power-iteration lambda1;
* lin64i: the same, independent flavor;
* ent96: n = m = 96, k = 48, conjugate; full ``eigvalsh`` of a 2304^2 Gram.

Answers are checked against facts that hold for every density matrix, never
against floats of an earlier version: tr Z = 1 within 1e-10,
tr Z^2 <= lambda1 <= sqrt(tr Z^2), entropy within [0, log rank], and, on the
full path, no eigenvalue below -1e-10.  Traced, the trial runs layer by
layer and lambda1 is compared with ``scipy.sparse.linalg.eigsh``; the relative
error is reported, not gated, since the power iteration's early stop is a
known defect of the program.
"""

from __future__ import annotations

import statistics
import time

from common import Op, PassResult, Spans, check_spectrum

#: Whole passes an untraced run makes at least.
MIN_PASSES = 2
#: Fresh-process set-ups whose median is setup_s.
SETUP_SAMPLES = 5
IN_PROCESS = True

SPEC_ARGS = [
    ("lin64c", 64, 64, 64, "conjugate"),
    ("lin64i", 64, 64, 64, "independent"),
    ("ent96", 96, 48, 96, "conjugate"),
]


class Context:
    def __init__(self):
        import numpy as np
        from wgchan import montecarlo

        self.np = np
        self.mc = montecarlo
        self.specs = {name: montecarlo.ChannelSpec(n, k, m, flavor) for name, n, k, m, flavor in SPEC_ARGS}
        self.rel_err: list[float] = []
        self.gflop = 0.0
        self.factor_mb = 0.0


def setup(pool: dict, spans: Spans | None) -> Context:
    """Import and warm BLAS up with one isometry of the large specs' shape."""
    ctx = Context()
    ctx.mc.haar_isometry(64 * 64, 64, ctx.np.random.default_rng(0))
    return ctx


def _check_report(spec, report) -> str | None:
    """Rebuild tr Z and tr Z^2 from the trial's rescaled bulk moments and
    lambda1 (the outlier is dropped from the bulk when ``drop_largest`` is 1)."""
    stats = {name: float(values[0]) for name, values in report.per_trial.items()}
    lam1 = stats["lambda1"]
    rank = min(spec.n, spec.k) ** 2
    top = [lam1] if report.drop_largest == 1 else []
    rest = rank - len(top)
    tr1 = stats["bulk_m1"] * rest / report.scale + sum(top)
    tr2 = stats["bulk_m2"] * rest / report.scale**2 + sum(t * t for t in top)
    return check_spectrum(rank, lam1, tr1, tr2, stats.get("entropy"))


def _traced_trial(ctx: Context, spec, seed: int, spans: Spans):
    """One trial of ``run_ensemble`` at library defaults, split by layer.
    The isometry is timed as ``haar_isometry`` on the trial's own stream;
    the Gram assembly is ``product_output`` minus that time."""
    mc, np = ctx.mc, ctx.np
    start = time.perf_counter()
    rng = mc.trial_rng(seed, 0)
    for _ in range(1 if spec.flavor == "conjugate" else 2):
        mc.haar_isometry(spec.n * spec.k, spec.m, rng)
    isometry_s = time.perf_counter() - start
    start = time.perf_counter()
    z = mc.product_output(spec, mc.trial_rng(seed, 0))
    spans.add_time("montecarlo.isometry", isometry_s)
    spans.add_time("montecarlo.gram", time.perf_counter() - start - isometry_s)
    # Computed from shapes, not measured: the mix product (nk x m)(m x nk) and
    # the Hermitian rank-k update forming the Gram, 8 real flops per complex
    # multiply-add, the update counted at half.
    n2, k2 = spec.n**2, spec.k**2
    ctx.gflop += (8.0 * (spec.n * spec.k) ** 2 * spec.m + 4.0 * max(n2, k2) * min(n2, k2) ** 2) / 1e9
    ctx.factor_mb = max(ctx.factor_mb, 16.0 * n2 * k2 / 1e6)
    if min(spec.n, spec.k) ** 2 <= mc.FULL_SPECTRUM_CAP:
        with spans.span("montecarlo.eigensolve"):
            eigs = z.eigenvalues()
        return z, float(eigs[0]), float(eigs.sum()), float(np.sum(eigs**2)), eigs
    with spans.span("montecarlo.trace_powers"):
        traces = z.trace_powers(4)
    with spans.span("montecarlo.lambda1"):
        lam1 = z.largest_eigenvalue()
    return z, lam1, traces[0], traces[1], None


def _check_traced(ctx: Context, spec, result) -> str | None:
    z, lam1, tr1, tr2, eigs = result
    rank = min(spec.n, spec.k) ** 2
    if eigs is not None:
        low = float(eigs.min())
        if low < -1e-10:
            return f"eigenvalue {low!r} below -1e-10"
        positive = eigs[eigs > 0]
        return check_spectrum(rank, lam1, tr1, tr2, float(-(positive * ctx.np.log(positive)).sum()))
    from scipy.sparse.linalg import eigsh

    reference = float(eigsh(z.gram, k=1, which="LA", return_eigenvectors=False)[0])
    ctx.rel_err.append(abs(lam1 - reference) / reference)
    return check_spectrum(rank, lam1, tr1, tr2, None)


def build_pass(ctx: Context, pool: dict, seed: int, pass_index: int) -> list[Op]:
    ops = []
    for index, (name, *_rest) in enumerate(SPEC_ARGS):
        spec = ctx.specs[name]
        trial_seed = ((seed % 2**32) * 64 + pass_index) * len(SPEC_ARGS) + index

        def run(spans, spec=spec, trial_seed=trial_seed):
            if spans is None:
                return ctx.mc.run_ensemble(spec, 1, trial_seed)
            return _traced_trial(ctx, spec, trial_seed, spans)

        def check(result, spans, spec=spec):
            return _check_report(spec, result) if spans is None else _check_traced(ctx, spec, result)

        ops.append(Op(name, f"{name} trial seed={trial_seed}", run, check))
    return ops


def layer_extras(ctx: Context, untraced: list[PassResult], traced: list[PassResult]) -> dict[str, float]:
    passes = max(len(traced), 1)
    return {
        "montecarlo.lambda1_rel_err": max(ctx.rel_err, default=0.0),
        "montecarlo.gram_gflop": ctx.gflop / passes,
        "montecarlo.factor_mb": ctx.factor_mb,
    }


def named_metrics(passes: list[PassResult]) -> dict[str, tuple[float, str, int]]:
    by_spec: dict[str, list[float]] = {}
    for result in passes:
        for kind, latency in zip(result.kinds, result.latencies):
            by_spec.setdefault(kind, []).append(latency)
    latencies = [t for values in by_spec.values() for t in values]
    out = {"trials_per_min": (60.0 * len(latencies) / sum(latencies), "1/min", len(latencies))}
    for name, values in by_spec.items():
        out[f"trial_s.{name}"] = (statistics.median(values), "s", len(values))
    return out
