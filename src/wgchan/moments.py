"""Moments of product-channel outputs: the exact permutation sums, the
pinched sums over choice functions, their leading-order predictions in every
growth regime, and the exponent-minimization problems (S, S1, S2) whose
solution tables drive those predictions.

The exact moment is a sum over pairs (alpha, beta) in S_{2p} x S_{2p} of
k^{#alpha} n^{#(alpha gamma^{-1})} m^{#(beta delta)} Wg(nk, alpha beta^{-1}).
With alpha' = alpha delta (delta is an involution) the beta sum becomes the
class function H = G_{2p}(m) Wg(nk), with G_{2p}(m) the central element
sum_sigma m^{#sigma} sigma, so

    E tr Z^p = m^{-p} sum_{alpha' in S_{2p}}
               k^{#(alpha' delta)} n^{#(alpha' delta gamma^{-1})} H(class alpha').

H acts on the irrep rho of S_{2p} as content_rho(m) / content_rho(nk) and is
read off the character table; no Weingarten table is built.  The alpha' sum
is grouped by (class, #(alpha' delta), #(alpha' delta gamma^{-1})), an integer
census (``perm.class_census``) computed once per order and wiring (gamma, or
f_hat for the pinched sum).  It and the minimizations count over the cached
``perm.group_table(2p)``, which stops at S_8, so p <= 4.

Every minimization objective is d A + B + const, with small integers A and B
fixed at each point of the domain.  So each problem and order has one cached,
read-only census (`_Census`), built in one pass over S_{2p} (S1, S2) or
S_{2p}^2 (S and the pinched S): the (A, B) classes that occur (2 to 36 for S1
and S2 at p <= 4, at most 53 for the pair problems at p <= 3) and the points
of each, in row-major order.  A value d = num/den is answered from the class
table: score each class as num A + den B, take the minimum, and read the
points of the winning classes.  The pinched problem's minimum over choice
functions, min_f (#Bell(f) + |alpha f_hat^{-1}|), does not depend on d and
enters B once per alpha.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .perm import (
    DEFAULT_ENUMERATION_CAP,
    Permutation,
    character_table,
    class_census,
    content_polynomial,
    cycles_after,
    geodesics,
    group_table,
    identity,
    index_of,
    make_gamma_delta,
    partitions,
)
from .weingarten import WgTable, wg_irrep_weights

#: Pair searches (S and the pinched variant) enumerate S_{2p}^2.
DEFAULT_PAIR_ORDER = 3


# ---------------------------------------------------------------------------
# regime description


@dataclass(frozen=True)
class RegimeParams:
    """Growth-regime parameters: m/n -> b, ancilla k ~ c n^d, and the
    fixed-ancilla Bell fraction t (meaningful only when d = 0)."""

    c: Fraction | float
    d: Fraction | float = Fraction(1)
    b: Fraction | float = Fraction(1)
    t: Fraction | float | None = None

    def __post_init__(self):
        if self.b <= 0 or self.c <= 0:
            raise ValueError("b and c must be positive")
        if self.d < 0:
            raise ValueError("d must be >= 0")
        if self.t is not None and not 0 < self.t <= 1:
            raise ValueError("t must lie in (0, 1]")


def as_fraction(value) -> Fraction:
    """Exact conversion; pass a Fraction or string like '4/3' for values that
    must land exactly on a case boundary."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    return Fraction(value)  # exact binary value of a float


# ---------------------------------------------------------------------------
# choice functions (pinched sums)


@dataclass(frozen=True)
class ChoiceFunction:
    """Assignment of Identity or Bell to each of the p slots of the expanded
    pinched trace, encoded as a string of 'I'/'E' picks."""

    picks: tuple[str, ...]

    def __post_init__(self):
        if not self.picks:
            raise ValueError("choice function needs p >= 1 slots")
        if any(ch not in ("I", "E") for ch in self.picks):
            raise ValueError(f"picks must be 'I' or 'E': {self.picks!r}")

    @classmethod
    def from_string(cls, text: str) -> "ChoiceFunction":
        return cls(tuple(text))

    @property
    def p(self) -> int:
        return len(self.picks)

    @property
    def bell_count(self) -> int:
        return sum(1 for ch in self.picks if ch == "E")

    def __str__(self) -> str:
        return "".join(self.picks)


def choice_functions(p: int):
    """All 2^p choice functions, deterministic order."""
    for picks in itertools.product("IE", repeat=p):
        yield ChoiceFunction(picks)


def choice_to_permutation(f: ChoiceFunction) -> Permutation:
    """The permutation f_hat wiring the pinched trace: on top labels,
    i^T -> (i-1)^T for an Identity pick and i^T -> i^B for a Bell pick; on
    bottom labels, i^B -> (i+1)^B when the *next* pick is Identity and
    i^B -> i^T when it is Bell (index arithmetic modulo p).

    For f identically 'I' this is gamma; otherwise its cycle count equals the
    number of Bell picks.
    """
    p = f.p
    images = [0] * (2 * p)

    def tpos(i):
        return p + i - 1

    def bpos(i):
        return p - i

    for i in range(1, p + 1):
        if f.picks[i - 1] == "I":
            images[tpos(i)] = tpos(i - 1 if i > 1 else p)
        else:
            images[tpos(i)] = bpos(i)
        nxt = f.picks[i % p]
        if nxt == "I":
            images[bpos(i)] = bpos(i + 1 if i < p else 1)
        else:
            images[bpos(i)] = tpos(i)
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# exact moments: the single sum over S_{2p}


@lru_cache(maxsize=64)
def _class_census(p: int, target_images: tuple[int, ...]) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Census over alpha in S_{2p} of (class of alpha, #(alpha delta),
    #(alpha delta target^{-1})): for each class in ``partitions(2p)`` order,
    the nonzero cells as (a, b, count) triples."""
    _, delta, _ = make_gamma_delta(p)
    right = (delta * Permutation(target_images).inverse()).images
    counts = class_census(2 * p, [delta.images, right])
    return tuple(
        tuple((int(a), int(b), int(block[a, b])) for a, b in zip(*np.nonzero(block))) for block in counts
    )


@lru_cache(maxsize=4)
def _pinched_census(p: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The census of the pinched sum, merged over all 2^p choice functions
    f: per class, cells (a, b, count) as in `_class_census` against f_hat,
    with each term's sign (-1)^e and Bell normalization n^{p-e} (e its Bell
    picks) folded into the count and the exponent b.  Cells that cancel are
    dropped."""
    merged = [Counter() for _ in partitions(2 * p)]
    for f in choice_functions(p):
        e = f.bell_count
        for acc, cells in zip(merged, _class_census(p, choice_to_permutation(f).images)):
            for a, b, cnt in cells:
                acc[a, b + p - e] += (-1) ** e * cnt
    return tuple(tuple((a, b, cnt) for (a, b), cnt in sorted(acc.items()) if cnt) for acc in merged)


def _class_weights(p: int, census, k: int, n: int) -> list[int]:
    """Per class lam: sum of count * k^a n^b over the census cells (a, b,
    count) of lam; for the census of `target` that is the sum over alpha in
    lam of k^{#(alpha delta)} n^{#(alpha delta target^{-1})}."""
    k_pow = [k**a for a in range(2 * p + 1)]
    n_pow = [n**b for b in range(3 * p + 1)]
    return [sum(cnt * k_pow[a] * n_pow[b] for a, b, cnt in cells) for cells in census]


def _single_sum(p: int, weights: list[int], m: int, nk: int) -> Fraction:
    """sum_mu weights[mu] H(mu) for the beta sum H = G_{2p}(m) Wg(nk), taken
    irrep by irrep, where H acts as content_rho(m) / content_rho(nk)."""
    coef, denom = wg_irrep_weights(nk, 2 * p)
    total = 0
    for c, rho, row in zip(coef, partitions(2 * p), character_table(2 * p)):
        total += c * content_polynomial(rho, m) * sum(w * x for w, x in zip(weights, row))
    return Fraction(total, denom)


def validate_exact_args(p: int, n: int, k: int, m: int):
    """Raise ValueError unless the exact sums accept every order up to p at (n, k, m)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    cap = DEFAULT_ENUMERATION_CAP // 2
    if p > cap:
        raise ValueError(f"p={p} exceeds the exact-sum cap {cap} (the sum enumerates S_2p)")
    if n * k < 2 * p:
        raise ValueError(f"need n*k >= 2p for an invertible Weingarten table, got {n * k} < {2 * p}")
    if (n * k) % m != 0:
        raise ValueError(f"m={m} must divide n*k={n * k} (integer complement dimension)")


def _check_wg(n: int, k: int, p: int, wg: WgTable | None):
    if wg is not None and (wg.n != n * k or wg.p != 2 * p):
        raise ValueError(f"Weingarten table is for (n={wg.n}, p={wg.p}), need ({n * k}, {2 * p})")


def exact_moment_conjugate(p: int, n: int, k: int, m: int | None = None, wg: WgTable | None = None) -> Fraction:
    """Exact E[tr(Z^p)] for the conjugate product channel at finite (n, k, m):

        sum_{alpha, beta in S_{2p}}
            k^{#alpha} n^{#(alpha gamma^{-1})} m^{#(beta delta) - p}
            Wg(nk, alpha beta^{-1})

    evaluated in rational arithmetic as the single sum over alpha' = alpha delta
    described in the module docstring.  A table passed as ``wg`` is checked to
    be the one for (nk, 2p) but not read: the sum takes Wg from the characters.
    """
    m = n if m is None else m
    validate_exact_args(p, n, k, m)
    _check_wg(n, k, p, wg)
    gamma, _, _ = make_gamma_delta(p)
    return _single_sum(p, _class_weights(p, _class_census(p, gamma.images), k, n), m, n * k) / Fraction(m) ** p


def exact_moment_pinched(p: int, n: int, k: int, wg: WgTable | None = None) -> Fraction:
    """Exact E[tr((QZQ)^p)] at m = n, summed over all 2^p choice functions:
    each term carries sign (-1)^{#Bell picks}, Bell normalization n^{-#Bell},
    and the permutation sum with gamma replaced by f_hat.  All 2^p censuses
    are merged once per order (`_pinched_census`), so a call forms one
    class-weight vector and takes the one single sum.  ``wg`` is checked and
    not read, as in `exact_moment_conjugate`."""
    validate_exact_args(p, n, k, n)
    _check_wg(n, k, p, wg)
    weights = _class_weights(p, _pinched_census(p), k, n)
    return _single_sum(p, weights, n, n * k) / Fraction(n) ** (2 * p)


def vanishing_cancellation_check(p: int, alpha: Permutation, max_order: int = DEFAULT_PAIR_ORDER) -> bool:
    """For alpha in V = {sigma : sigma delta has a fixed point}, test that
        sum_f (-1)^{#Bell} x^{#Bell + |alpha f_hat^{-1}|}
    vanishes identically as a polynomial in x = 1/n.  Raises for alpha
    outside V, where the sum genuinely contributes."""
    if p > max_order:
        raise ValueError(f"p={p} exceeds the cap {max_order}")
    if alpha.degree != 2 * p:
        raise ValueError(f"alpha must live in S_{2 * p}")
    _, delta, _ = make_gamma_delta(p)
    if not _in_vanishing_set(alpha, delta):
        raise ValueError("alpha is not in V (alpha delta has no fixed point)")
    coeffs: Counter[int] = Counter()
    for f in choice_functions(p):
        f_hat = choice_to_permutation(f)
        exponent = f.bell_count + (alpha * f_hat.inverse()).length()
        coeffs[exponent] += (-1) ** f.bell_count
    return all(v == 0 for v in coeffs.values())


def _in_vanishing_set(alpha: Permutation, delta: Permutation) -> bool:
    composed = alpha * delta
    return any(composed(x) == x for x in range(alpha.degree))


# ---------------------------------------------------------------------------
# exponent minimization


@dataclass(frozen=True)
class ExponentReport:
    """Result of an exhaustive exponent minimization: the problem name, the
    attained minimum, and every minimizer (permutations, pairs, or
    (choice, alpha, beta) triples depending on the problem)."""

    problem: str
    p: int
    d: Fraction
    minimum: Fraction
    minimizers: tuple

    def minimizer_set(self) -> frozenset:
        return frozenset(self.minimizers)


def _lengths(p: int, right: Permutation | None = None) -> np.ndarray:
    """|beta right| for every beta in S_{2p} (|beta| without `right`), int16."""
    g = group_table(2 * p)
    ncycles = g.ncycles if right is None else cycles_after(g, right.images)
    return (2 * p - ncycles).astype(np.int16)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=4)
def _pair_length_matrix(p: int) -> np.ndarray:
    """|alpha beta^{-1}| for all pairs, as a read-only (N, N) int16 matrix."""
    g = group_table(2 * p)
    return _frozen(_lengths(p)[index_of(g.perms[:, g.perms[g.inverse]])])


@dataclass(frozen=True)
class _Census:
    """The exponent classes of one minimization problem at one order: the
    objective is d A + B + const at every domain point, with small integers
    A and B.  `classes` lists the (A, B) that occur; the points of class j,
    as row-major flat indices into the domain, are
    ``points[start[j]:start[j + 1]]``, in increasing order."""

    classes: tuple[tuple[int, int], ...]
    points: np.ndarray
    start: np.ndarray


def _census(a: np.ndarray, b: np.ndarray) -> _Census:
    """Group a domain's points by their key (A, B), given as int16 arrays."""
    width = int(b.max()) + 1
    key = (a * width + b).ravel()
    counts = np.bincount(key)
    present = np.flatnonzero(counts)
    start = np.zeros(len(present) + 1, dtype=np.int64)
    np.cumsum(counts[present], out=start[1:])
    points = np.argsort(key, kind="stable").astype(np.int32)
    classes = tuple(divmod(int(k), width) for k in present)
    return _Census(classes, _frozen(points), _frozen(start))


def _best(census: _Census, d: Fraction, const: Fraction | int) -> tuple[Fraction, np.ndarray]:
    """The minimum of d A + B + const over the census's domain, and the
    points attaining it in increasing order: each class is scored in exact
    integers (num A + den B for d = num/den) and only the winners' points
    are read."""
    num, den = d.numerator, d.denominator
    scores = [num * a + den * b for a, b in census.classes]
    best = min(scores)
    hits = [census.points[census.start[j] : census.start[j + 1]] for j, s in enumerate(scores) if s == best]
    return Fraction(best, den) + const, np.sort(np.concatenate(hits))


def _perms_at(p: int, idxs: np.ndarray) -> list[Permutation]:
    return [Permutation(tuple(row)) for row in group_table(2 * p).perms[idxs].tolist()]


@lru_cache(maxsize=16)
def _single_census(p: int, target: Permutation) -> _Census:
    """Census of d|beta| + |beta target^{-1}| + |beta delta| over S_{2p}."""
    _, delta, _ = make_gamma_delta(p)
    return _census(_lengths(p), _lengths(p, target.inverse()) + _lengths(p, delta))


def _minimize_single(problem: str, p: int, d, target: Permutation) -> ExponentReport:
    d = as_fraction(d)
    minimum, points = _best(_single_census(p, target), d, -p)
    return ExponentReport(problem=problem, p=p, d=d, minimum=minimum, minimizers=tuple(_perms_at(p, points)))


def minimize_S2(p: int, d, max_order: int = 4) -> ExponentReport:
    """Exhaustive minimization of S2(beta) = d|beta| + |beta gtilde^{-1}|
    + |beta delta| - p over S_{2p}.

    Answered from the order's census of at most 36 classes.  On a 2-vCPU
    VM that costs about 2 ms once per order at p = 4 (S_8's table aside),
    then 25-45 us a call."""
    if p > max_order:
        raise ValueError(f"p={p} exceeds the cap {max_order}")
    _, _, gtilde = make_gamma_delta(p)
    return _minimize_single("S2", p, d, gtilde)


def minimize_S1(p: int, d, max_order: int = 4) -> ExponentReport:
    """Exhaustive minimization of S1(beta) = d|beta| + |beta gamma^{-1}|
    + |beta delta| - p over S_{2p}.

    Cost as for `minimize_S2`."""
    if p > max_order:
        raise ValueError(f"p={p} exceeds the cap {max_order}")
    gamma, _, _ = make_gamma_delta(p)
    return _minimize_single("S1", p, d, gamma)


@lru_cache(maxsize=4)
def _pair_census(p: int) -> _Census:
    """Census of S over S_{2p}^2: A = |alpha| + |alpha beta^{-1}|,
    B = |alpha gamma^{-1}| + |beta delta| + |alpha beta^{-1}|."""
    gamma, delta, _ = make_gamma_delta(p)
    pair = _pair_length_matrix(p)
    return _census(_lengths(p)[:, None] + pair, (_lengths(p, gamma.inverse())[:, None] + _lengths(p, delta)) + pair)


def minimize_S(p: int, d, max_order: int = DEFAULT_PAIR_ORDER) -> ExponentReport:
    """Exhaustive minimization over pairs of
    S(alpha, beta) = d|alpha| + |alpha gamma^{-1}| + |beta delta|
    + (d+1)|alpha beta^{-1}| - p.

    At d = 1 this is the exponent of the generalized linear model, so the
    same search answers both regimes.  Answered from the order's census of
    at most 53 classes.  On a 2-vCPU VM that costs about 25 ms once at
    p = 3 (the pair lengths over S_6^2, then one stable sort of the keys),
    then 20-80 us a call.
    """
    if p > max_order:
        raise ValueError(f"p={p} exceeds the pair-search cap {max_order}")
    d = as_fraction(d)
    minimum, points = _best(_pair_census(p), d, -p)
    alphas, betas = np.divmod(points, len(group_table(2 * p).perms))
    minimizers = tuple(zip(_perms_at(p, alphas), _perms_at(p, betas)))
    return ExponentReport(problem="S", p=p, d=d, minimum=minimum, minimizers=minimizers)


@lru_cache(maxsize=4)
def _pinched_pair_census(p: int) -> tuple[_Census, np.ndarray, np.ndarray]:
    """Census of the pinched problem over the pairs with alpha outside V,
    row alpha by row; with, per row, alpha's index in S_{2p} and the bit
    mask (bit i for the i-th of `choice_functions(p)`) of the f attaining
    min_f (#Bell(f) + |alpha f_hat^{-1}|).  That minimum does not depend on
    d, so it is taken here once and enters B."""
    _, delta, _ = make_gamma_delta(p)
    g = group_table(2 * p)
    rows = np.flatnonzero(~(g.perms[:, list(delta.images)] == np.arange(2 * p, dtype=np.uint8)).any(axis=1))
    cost = np.array([f.bell_count + _lengths(p, choice_to_permutation(f).inverse())[rows] for f in choice_functions(p)])
    least = cost.min(axis=0)
    choices = ((cost == least) << np.arange(len(cost))[:, None]).sum(axis=0)
    pair = _pair_length_matrix(p)[rows]
    census = _census(_lengths(p)[rows, None] + pair, (least[:, None] + _lengths(p, delta)) + pair)
    return census, _frozen(rows), _frozen(choices)


def minimize_S_pinched(p: int, d, max_order: int = DEFAULT_PAIR_ORDER) -> ExponentReport:
    """Exhaustive minimization of the pinched exponent
    S(alpha, beta, f) = |beta delta| + d|alpha| + (d+1)|alpha beta^{-1}|
    + #Bell + |alpha f_hat^{-1}| + const(d, p)
    over choice functions and pairs with alpha outside the cancellation set V.

    The constant is -p(2d+1) + 2d for d in (0,1) and -3p + 2 for d in (1,2);
    in both regimes the minimum is 0.  Minimizers are the (f, alpha, beta)
    with (alpha, beta) optimal for the pair problem in which #Bell +
    |alpha f_hat^{-1}| is minimized over f, and f among alpha's minimizing
    choices, listed f by f.  Answered from the order's census of at most 52
    classes.  On a 2-vCPU VM that costs about 3 ms once at p = 3 when
    `minimize_S` has built the pair lengths (15 ms more otherwise), then
    about 90 us a call.
    """
    if p > max_order:
        raise ValueError(f"p={p} exceeds the pair-search cap {max_order}")
    d = as_fraction(d)
    if not (0 < d < 1 or 1 < d < 2):
        raise ValueError("the pinched exponent is defined for d in (0,1) or (1,2)")
    census, rows, choices = _pinched_pair_census(p)
    const = 2 * d - p * (2 * d + 1) if d < 1 else Fraction(2 - 3 * p)
    minimum, points = _best(census, d, const)
    row, betas = np.divmod(points, len(group_table(2 * p).perms))
    alphas, masks = rows[row], choices[row]
    minimizers = []
    for bit, f in enumerate(choice_functions(p)):
        pick = (masks >> bit) & 1 == 1
        minimizers += [(f, a, b) for a, b in zip(_perms_at(p, alphas[pick]), _perms_at(p, betas[pick]))]
    return ExponentReport(problem="S_pinched", p=p, d=d, minimum=minimum, minimizers=tuple(minimizers))


# ---------------------------------------------------------------------------
# reference tables (the closed-form answers the searches must reproduce)


@lru_cache(maxsize=16)
def _geodesic_set(p: int, which: str) -> frozenset[Permutation]:
    """The geodesic interval between two block permutations of S_{2p},
    named by `which`, from `perm.geodesics`: one non-crossing partition per
    cycle of a^{-1} c, with no walk over S_{2p}."""
    gamma, delta, gtilde = make_gamma_delta(p)
    ends = {
        "delta->gtilde": (delta, gtilde),
        "delta->gamma": (delta, gamma),
        "id->delta": (identity(2 * p), delta),
    }[which]
    return geodesics(*ends)


def reference_S2(p: int, d) -> tuple[Fraction, frozenset[Permutation]]:
    """Closed-form solution table for the S2 problem."""
    d = as_fraction(d)
    _, delta, _ = make_gamma_delta(p)
    if d == 0:
        return Fraction(-1), _geodesic_set(p, "delta->gtilde")
    if d < 2:
        return d * p - 1, frozenset({delta})
    if d == 2:
        return Fraction(2 * p - 1), _geodesic_set(p, "id->delta")
    return Fraction(2 * p - 1), frozenset({identity(2 * p)})


def reference_S1(p: int, d) -> tuple[Fraction, frozenset[Permutation]]:
    """Closed-form solution table for the S1 problem, including the p = 2
    special rows and the interface case p = 2/(2-d)."""
    d = as_fraction(d)
    gamma, delta, _ = make_gamma_delta(p)
    ident = identity(2 * p)
    if d == 0:
        return Fraction(0), _geodesic_set(p, "delta->gamma")
    if p == 2 and 0 < d < 1:
        return 2 * d, frozenset({delta, gamma})
    if p == 2 and d == 1:
        return Fraction(2), frozenset({ident, delta, gamma})
    if p >= 3 and 0 < d <= 1:
        return d * p, frozenset({delta})
    if 1 < d < 2:
        interface = Fraction(2, 1) / (2 - d)
        if p < interface:
            return Fraction(2 * p - 2), frozenset({ident})
        if p == interface:
            return Fraction(2 * p - 2), frozenset({ident, delta})
        return d * p, frozenset({delta})
    return Fraction(2 * p - 2), frozenset({ident})


# ---------------------------------------------------------------------------
# asymptotic predictions


@dataclass(frozen=True)
class MomentPrediction:
    """Leading-order prediction for E tr(Z^p): value ~ coefficient *
    n^n_power * k^k_power.  `terms` carries the per-minimizer contributions
    of the rescaled moment when the regime resolves them."""

    p: int
    coefficient: float
    n_power: Fraction
    k_power: Fraction
    label: str
    terms: tuple[tuple[str, float], ...] | None = None

    def value(self, n: int, k: int | None = None) -> float:
        out = self.coefficient * float(n) ** float(self.n_power)
        if self.k_power != 0:
            if k is None:
                raise ValueError("prediction scales with k; pass the ancilla dimension")
            out *= float(k) ** float(self.k_power)
        return out


def asymptotic_moment_conjugate(p: int, regime: RegimeParams) -> MomentPrediction:
    """Leading-order E tr(Z^p) in the regime described by `regime`.

    d = 1 answers the generalized linear model (input ratio b allowed);
    every other d requires b = 1 and follows the five-case classification:
    d = 0 (fixed ancilla, two-level spectrum), d in (0,1), d = 1, d in (1,2)
    split at p = 2/(2-d), and d >= 2.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    d = as_fraction(regime.d)
    b = float(regime.b)
    c = float(regime.c)
    if p == 1:
        return MomentPrediction(p, 1.0, Fraction(0), Fraction(0), "1 (exact)")

    if d == 1:
        if p == 2:
            terms = (("id", c * c / (b * b)), ("delta", 1.0), ("gamma", 1.0 / (b * b)))
            coeff = (b * b + 1.0 + c * c) / (c * c)
            return MomentPrediction(p, coeff, Fraction(-2), Fraction(0), "(1 + 1/b^2 + c^2/b^2) (b/(cn))^2", terms)
        return MomentPrediction(p, (b / c) ** p, Fraction(-p), Fraction(0), "(b/(cn))^p")

    if regime.b != 1:
        raise ValueError("only the d = 1 regime supports an input ratio b != 1")

    if d == 0:
        k_fixed = int(c)
        if k_fixed != c:
            raise ValueError("the d = 0 regime needs an integer ancilla dimension c = k")
        t = regime.t if regime.t is not None else Fraction(1, k_fixed)
        top = float(t) + (1.0 - float(t)) / k_fixed**2
        low = (1.0 - float(t)) / k_fixed**2
        coeff = top**p + (k_fixed**2 - 1) * low**p
        return MomentPrediction(p, coeff, Fraction(0), Fraction(0), "two-level spectrum, constant in n")

    if d < 1:
        if p == 2:
            return MomentPrediction(p, 2.0, Fraction(0), Fraction(-2), "2 k^-2")
        return MomentPrediction(p, 1.0, Fraction(0), Fraction(-p), "k^-p")

    if d < 2:
        interface = Fraction(2, 1) / (2 - d)
        if p < interface:
            return MomentPrediction(p, 1.0, Fraction(-(2 * p - 2)), Fraction(0), "n^-(2p-2)")
        if p == interface:
            return MomentPrediction(p, 1.0 + c ** (-p), Fraction(-d * p), Fraction(0), "(1 + c^-p) n^-dp")
        return MomentPrediction(p, 1.0, Fraction(0), Fraction(-p), "k^-p")

    return MomentPrediction(p, 1.0, Fraction(-(2 * p - 2)), Fraction(0), "n^-(2p-2)")
