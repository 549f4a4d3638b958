"""Regenerate ``pool.json``, the frozen answers the benchmark checks against.

Every answer is an exact rational stored as a string and compared with zero
tolerance.  Where a second exact route is cheap it is checked here, before
the answer is frozen:

* Weingarten tables: the convolution identity
  sum_tau N^{#(sigma tau^-1)} Wg(tau) = [sigma == id] over the whole of S_p
  for p <= 5 (over one representative per class for p = 6, 7), and the
  single-cycle closed form for the p-cycle entry;
* conjugate moments: tr Z = 1 at p = 1, and at m = 1 the Gaussianization
  (Wick) sum over S_2p divided by the rising factorial (nk)...(nk+2p-1);
* S1 / S2 minimizations: the closed-form tables ``reference_S1`` /
  ``reference_S2``.

Run from the repository root:  python3 perfbench/make_pool.py
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import minimizer_digest  # noqa: E402
from wgchan import moments, weingarten  # noqa: E402

CONJ_POINTS = [
    (2, 3, 2), (2, 3, 3), (3, 2, 3), (3, 3, 3), (3, 3, 1), (3, 3, 9), (2, 4, 2),
    (4, 2, 4), (2, 4, 1), (4, 2, 1), (3, 4, 3), (4, 3, 4), (4, 4, 4), (3, 4, 6),
    (4, 3, 6), (3, 4, 2), (2, 6, 3), (6, 2, 3), (5, 5, 5), (6, 6, 6),
]
PINCHED_POINTS = [(2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4), (5, 3)]
WG_POINTS = (
    [(n, p) for p in range(1, 6) for n in range(p, 13)]
    + [(n, 6) for n in range(6, 11)]
    + [(n, 7) for n in range(7, 11)]
)
D_VALUES = ["0", "1/2", "1", "4/3", "3/2", "2", "3"]
PINCHED_D = ["1/2", "2/3", "4/3", "3/2"]


def _cycles(images) -> int:
    seen = [False] * len(images)
    count = 0
    for start in range(len(images)):
        if not seen[start]:
            count += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
    return count


def _ctype(images) -> str:
    seen = [False] * len(images)
    lens = []
    for start in range(len(images)):
        if not seen[start]:
            d, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = images[x]
                d += 1
            lens.append(d)
    return "+".join(str(v) for v in sorted(lens, reverse=True))


def _check_convolution(n: int, p: int, values: dict[str, Fraction]) -> None:
    group = list(itertools.permutations(range(p)))
    if p <= 5:
        sigmas = group
    else:
        sigmas = {}
        for s in group:
            sigmas.setdefault(_ctype(s), s)
        sigmas = list(sigmas.values())
    for sigma in sigmas:
        total = Fraction(0)
        for tau in group:
            inv = [0] * p
            for x, y in enumerate(tau):
                inv[y] = x
            total += n ** _cycles([sigma[y] for y in inv]) * values[_ctype(tau)]
        want = 1 if list(sigma) == list(range(p)) else 0
        if total != want:
            raise SystemExit(f"convolution identity fails for wg_exact({n}, {p})")
    if values[str(p)] != weingarten.wg_cycle_exact(n, p):
        raise SystemExit(f"single-cycle closed form disagrees for wg_exact({n}, {p})")


def _wick_m1(p: int, n: int, k: int) -> Fraction:
    """E (tr rho^p)^2 for rho = Tr_k |v><v|, v Haar in C^n (x) C^k: a Gaussian
    Wick sum over S_2p with gamma = two p-cycles, over E |g|^{4p}."""
    q = 2 * p
    gamma = [(x + 1) % p for x in range(p)] + [p + (x + 1) % p for x in range(p)]
    total = 0
    for sigma in itertools.permutations(range(q)):
        total += n ** _cycles(sigma) * k ** _cycles([gamma[y] for y in sigma])
    rising = 1
    for j in range(q):
        rising *= n * k + j
    return Fraction(total, rising)


def _minimize_entry(problem: str, p: int, d: str) -> dict:
    fn = {
        "S": moments.minimize_S,
        "S_pinched": moments.minimize_S_pinched,
        "S1": moments.minimize_S1,
        "S2": moments.minimize_S2,
    }[problem]
    report = fn(p, Fraction(d))
    if problem in ("S1", "S2"):
        ref = (moments.reference_S1 if problem == "S1" else moments.reference_S2)(p, Fraction(d))
        if (report.minimum, report.minimizer_set()) != ref:
            raise SystemExit(f"{problem} at p={p}, d={d} disagrees with its reference table")
    return {
        "problem": problem,
        "p": p,
        "d": d,
        "minimum": str(report.minimum),
        "n_minimizers": len(report.minimizers),
        "digest": minimizer_digest(report),
    }


def main() -> None:
    conj = []
    for n, k, m in CONJ_POINTS:
        values = {p: moments.exact_moment_conjugate(p, n, k, m) for p in (1, 2, 3)}
        if values[1] != 1:
            raise SystemExit(f"tr Z != 1 at (n, k, m) = {(n, k, m)}")
        if m == 1:
            for p in (1, 2, 3):
                if values[p] != _wick_m1(p, n, k):
                    raise SystemExit(f"Wick oracle disagrees at p={p}, (n, k)=({n}, {k})")
        conj.append({"n": n, "k": k, "m": m, "values": {str(p): str(v) for p, v in values.items()}})

    pinched = []
    for n, k in PINCHED_POINTS:
        values = {p: moments.exact_moment_pinched(p, n, k) for p in (1, 2, 3)}
        pinched.append({"n": n, "k": k, "values": {str(p): str(v) for p, v in values.items()}})

    wg = []
    for n, p in WG_POINTS:
        table = weingarten.wg_exact(n, p)
        values = {str(ct): v for ct, v in table.values.items()}
        _check_convolution(n, p, values)
        wg.append({"n": n, "p": p, "values": {ct: str(v) for ct, v in values.items()}})

    minimize = []
    for p in (1, 2, 3):
        minimize += [_minimize_entry("S", p, d) for d in D_VALUES]
        minimize += [_minimize_entry("S_pinched", p, d) for d in PINCHED_D]
    for p in (1, 2, 3, 4):
        for d in D_VALUES:
            minimize += [_minimize_entry("S1", p, d), _minimize_entry("S2", p, d)]

    pool = {"conjugate": conj, "pinched": pinched, "wg": wg, "minimize": minimize}
    (HERE / "pool.json").write_text(json.dumps(pool, indent=1) + "\n")
    print(f"wrote {HERE / 'pool.json'}: {len(conj)} conjugate points, {len(pinched)} pinched points, "
          f"{len(wg)} Weingarten tables, {len(minimize)} minimizations")


if __name__ == "__main__":
    main()
