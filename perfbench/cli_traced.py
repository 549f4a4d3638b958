"""Run one ``wgchan`` CLI command with the layers' public functions wrapped
in spans, for the traced cli_session.

The wrappers replace module attributes from outside, so calls the CLI and
the library make through those modules are timed without changing the
program.  The first exact moment call per order p in the process builds the
census and is recorded as ``moments.census_cold``.  On exit the spans go to
stderr as one line after ``@@perfbench-spans ``, with the moment
``wgchan.cli`` finished importing.

Usage (from the checkout root):  python3 perfbench/cli_traced.py <wgchan args>
"""

from __future__ import annotations

import json
import sys
import time

from common import Spans, use_checkout_source

SPANS_MARK = "@@perfbench-spans "


def _install(spans: Spans) -> None:
    from wgchan import cli, freeprob, moments, montecarlo, weingarten

    wg_exact = spans.wrap("weingarten.wg_exact", weingarten.wg_exact)
    cli.wg_exact = wg_exact
    moments.wg_exact = wg_exact

    def first_call_is_cold(name: str, fn):
        seen: set[int] = set()

        def wrapper(p, *args, **kwargs):
            span = name if p in seen else "moments.census_cold"
            seen.add(p)
            with spans.span(span):
                return fn(p, *args, **kwargs)

        return wrapper

    moments.exact_moment_conjugate = first_call_is_cold("moments.exact_conjugate", moments.exact_moment_conjugate)
    moments.exact_moment_pinched = first_call_is_cold("moments.exact_pinched", moments.exact_moment_pinched)
    for name in ("minimize_S", "minimize_S1", "minimize_S2", "minimize_S_pinched"):
        setattr(moments, name, spans.wrap("moments.minimize", getattr(moments, name)))
    for name in ("reference_S1", "reference_S2"):
        setattr(moments, name, spans.wrap("perm.reference_tables", getattr(moments, name)))
    moments.asymptotic_moment_conjugate = spans.wrap("freeprob.theory", moments.asymptotic_moment_conjugate)
    for name in ("mp_moment", "entropy_prediction"):
        setattr(freeprob, name, spans.wrap("freeprob.theory", getattr(freeprob, name)))

    moment_ensemble = montecarlo.moment_ensemble

    def counted_ensemble(spec, p_max, trials, *args, **kwargs):
        spans.count("montecarlo.batched_samples", trials)
        with spans.span("montecarlo.moment_ensemble"):
            return moment_ensemble(spec, p_max, trials, *args, **kwargs)

    montecarlo.moment_ensemble = counted_ensemble


def main() -> int:
    use_checkout_source()
    from wgchan import cli

    imported_at = time.perf_counter()
    spans = Spans()
    _install(spans)
    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(SPANS_MARK + json.dumps({"imported_at": imported_at, "spans": spans.dump()}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
