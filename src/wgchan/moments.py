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

H acts on the irrep rho of S_{2p} as content_rho(m) / content_rho(nk), or 0
where content_rho(nk) vanishes (then so does content_rho(m), since m <= nk);
no Weingarten table is built, and every n, k >= 1 has an exact value.  The
alpha' sum is grouped by (class, #(alpha' delta), #(alpha' delta
gamma^{-1})), an integer array (``perm.class_census``), and one product
with the character table folds it into one integer polynomial per irrep,

    P_rho(k, n) = sum_mu chi_rho(mu) sum_{a, b} census[mu, a, b] k^a n^b,

so that E tr Z^p = m^{-p} sum_rho c_rho(nk) content_rho(m) P_rho(k, n) / D(nk),
with c_rho / D = dim rho / ((2p)! content_rho(nk)) from
``weingarten.wg_irrep_weights``: an explicit rational function of (n, k, m).
The polynomials are built once per order and wiring (gamma, or the f_hat
of all 2^p choice functions added with their signs and powers of n, for
the pinched sum); a call evaluates them and takes one sum over the irreps.
The census and the minimizations count over the cached
``perm.group_table(2p)``, which stops at S_8, so p <= 4.

Every minimization objective is d A + B + const, with small integers A and B
fixed at each point of the domain.  So each problem and order has one cached,
read-only census (`_Census`), built in one pass over S_{2p} (S1, S2) or
S_{2p}^2 (S and the pinched S): the (A, B) classes that attain the minimum
at some d >= 0, the contenders (2 to 8 per problem and order, of up to 36
classes that occur for S1 and S2 at p <= 4 and 53 for the pair problems at
p <= 3), and the points of each, in row-major order.  The other classes'
points are never read, so they are not kept: at p = 3 the pair census holds
28 of the 518400 points of S_6^2.  A value d = num/den is answered from the
contenders: score each as num A + den B, take the minimum, and read the
points of the winning classes.  The pinched problem's minimum over choice
functions, min_f (#Bell(f) + |alpha f_hat^{-1}|), does not depend on d and
enters B once per alpha.
"""

from __future__ import annotations

import itertools
import math
import operator
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
    leg_wiring,
    make_gamma_delta,
    partitions,
)
from .weingarten import WgTable, check_integers, wg_irrep_weights

#: Pair searches (S and the pinched variant) enumerate S_{2p}^2.
DEFAULT_PAIR_ORDER = 3


# ---------------------------------------------------------------------------
# regime description


@dataclass(frozen=True)
class RegimeParams:
    """Growth-regime parameters: m/n -> b, ancilla k ~ c n^d, and the
    fixed-ancilla Bell fraction t.  At d = 0 the ancilla is fixed, so c = k
    must be an integer; t is accepted only there."""

    c: Fraction | float
    d: Fraction | float = Fraction(1)
    b: Fraction | float = Fraction(1)
    t: Fraction | float | None = None

    def __post_init__(self):
        # NaN compares False with everything, so it fails these checks
        if not (0 < self.b < math.inf and 0 < self.c < math.inf):
            raise ValueError("b and c must be finite and positive")
        if not 0 <= self.d < math.inf:
            raise ValueError("d must be finite and >= 0")
        if self.t is not None and not (self.d == 0 and 0 < self.t <= 1):
            raise ValueError(f"t needs d = 0 and 0 < t <= 1, got t={self.t}, d={self.d}")
        if self.d == 0 and self.c % 1 != 0:
            raise ValueError("the d = 0 regime needs an integer ancilla dimension c = k")


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
    """The permutation f_hat wiring the pinched trace: `perm.leg_wiring` of
    the picks of f.  For f identically 'I' this is gamma; otherwise its cycle
    count equals the number of Bell picks.
    """
    return leg_wiring(str(f))


# ---------------------------------------------------------------------------
# exact moments: the single sum over S_{2p}


@lru_cache(maxsize=16)
def _irrep_polynomials(p: int, pinched: bool) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """The census of alpha in S_{2p} by (class, #(alpha delta), #(alpha
    delta target^{-1})) for target gamma, or, pinched, the f_hat of every
    choice function f added with sign (-1)^e and n^{p-e} (e its Bell picks),
    folded through the characters of S_{2p}: for each irrep rho, in
    ``partitions(2p)`` order, the integer polynomial

        P_rho(k, n) = sum_mu chi_rho(mu) sum_{a, b} census[mu, a, b] k^a n^b.

    Returned as the monomials (a, b) that occur and one row of coefficients
    per irrep, aligned with them."""
    gamma, delta, _ = make_gamma_delta(p)
    if pinched:
        wirings = [((-1) ** f.bell_count, p - f.bell_count, choice_to_permutation(f)) for f in choice_functions(p)]
    else:
        wirings = [(1, 0, gamma)]
    census = np.zeros((len(partitions(2 * p)), 2 * p + 1, 3 * p + 1), dtype=np.int64)
    for sign, shift, target in wirings:
        counts = class_census(2 * p, [delta.images, (delta * target.inverse()).images])
        census[:, :, shift : shift + 2 * p + 1] += sign * counts
    poly = np.array(character_table(2 * p), dtype=np.int64) @ census.reshape(len(census), -1)
    columns = np.flatnonzero(poly.any(axis=0))
    return tuple(divmod(int(j), 3 * p + 1) for j in columns), tuple(map(tuple, poly[:, columns].tolist()))


def _single_sum(p: int, pinched: bool, n: int, k: int, m: int) -> tuple[int, int]:
    """The sum over alpha' of the module docstring as an integer fraction
    (numerator, denominator), taken irrep by irrep:

        sum_rho c_rho(nk) content_rho(m) P_rho(k, n) / D(nk),

    with P_rho from the order's cached `_irrep_polynomials` and the weights
    c_rho / D, by which H = G_{2p}(m) Wg(nk) acts on rho, from
    `wg_irrep_weights` per call.  An irrep with more than nk rows has both
    contents 0 and gets weight 0 (the pseudo-inverse Wg), so it adds nothing."""
    monomials, rows = _irrep_polynomials(p, pinched)
    coef, denom = wg_irrep_weights(n * k, 2 * p)
    values = [k**a * n**b for a, b in monomials]
    total = 0
    for c, rho, row in zip(coef, partitions(2 * p), rows):
        total += c * content_polynomial(rho, m) * sum(map(operator.mul, row, values))
    return total, denom


def validate_exact_args(p: int, n: int, k: int, m: int):
    """Raise ValueError unless the exact sums accept every order up to p at
    (n, k, m): all four integers (not bool), p within the cap, dimensions
    >= 1, and m dividing nk."""
    check_integers(p=p, n=n, k=k, m=m)
    if p < 1:
        raise ValueError("p must be >= 1")
    if min(n, k, m) < 1:
        raise ValueError(f"dimensions must be >= 1, got n={n}, k={k}, m={m}")
    cap = DEFAULT_ENUMERATION_CAP // 2
    if p > cap:
        raise ValueError(f"p={p} exceeds the exact-sum cap {cap} (the sum enumerates S_2p)")
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
    described in the module docstring: m^{-p} sum_rho c_rho(nk)
    content_rho(m) P_rho(k, n) / D(nk), with the irrep polynomials P_rho
    built once per order.  A table passed as ``wg`` is checked to be the one
    for (nk, 2p) but not read: the sum takes Wg from the characters.
    """
    m = n if m is None else m
    validate_exact_args(p, n, k, m)
    _check_wg(n, k, p, wg)
    total, denom = _single_sum(p, False, n, k, m)
    return Fraction(total, denom * m**p)


def exact_moment_pinched(p: int, n: int, k: int, wg: WgTable | None = None) -> Fraction:
    """Exact E[tr((QZQ)^p)] at m = n, summed over all 2^p choice functions:
    each term carries sign (-1)^{#Bell picks}, Bell normalization n^{-#Bell},
    and the permutation sum with gamma replaced by f_hat.  All 2^p censuses
    are added into one array once per order and folded through the
    characters into one set of irrep polynomials (`_irrep_polynomials`), so
    a call evaluates those and takes the one single sum.  ``wg`` is checked
    and not read, as in `exact_moment_conjugate`."""
    validate_exact_args(p, n, k, n)
    _check_wg(n, k, p, wg)
    total, denom = _single_sum(p, True, n, k, n)
    return Fraction(total, denom * n ** (2 * p))


def vanishing_cancellation_check(p: int, alpha: Permutation) -> bool:
    """For alpha in V = {sigma : sigma delta has a fixed point}, test that
        sum_f (-1)^{#Bell} x^{#Bell + |alpha f_hat^{-1}|}
    vanishes identically as a polynomial in x = 1/n.  Raises for alpha
    outside V, where the sum genuinely contributes."""
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


def _pair_lengths(p: int, alphas: np.ndarray | None = None) -> np.ndarray:
    """|alpha beta^{-1}| for each of `alphas` (all of S_{2p} by default,
    as indices) and every beta, as an int16 (len(alphas), N) matrix.  Only
    the censuses read it, once, so it is built a block of 64 alphas at a
    time and not kept: at p = 3 the whole-domain index scratch would run to
    about 10 MB, much of which the allocator keeps resident."""
    g = group_table(2 * p)
    alphas = np.arange(len(g.perms)) if alphas is None else alphas
    lengths, inverses = _lengths(p), np.argsort(g.perms, axis=1)
    out = np.empty((len(alphas), len(g.perms)), dtype=np.int16)
    for lo in range(0, len(alphas), 64):
        out[lo : lo + 64] = lengths[index_of(g.perms[alphas[lo : lo + 64]][:, inverses])]
    return out


@dataclass(frozen=True)
class _Census:
    """The exponent classes of one minimization problem at one order that
    can attain the minimum: the objective is d A + B + const at every domain
    point, with small integers A and B, and `classes` lists the (A, B) that
    are least at some d >= 0.  The points of class j, as row-major flat
    indices into the domain, are ``points[start[j]:start[j + 1]]``, in
    increasing order."""

    classes: tuple[tuple[int, int], ...]
    points: np.ndarray
    start: np.ndarray


def _census(a: np.ndarray, b: np.ndarray) -> _Census:
    """Group a domain's points by their key (A, B), given as int16 arrays,
    and keep the classes of `_contenders`: at p = 3 that is 28 of the
    518400 points of S_6^2."""
    width = int(b.max()) + 1
    key = (a * width + b).ravel()
    seen = np.zeros(int(key.max()) + 1, dtype=bool)
    seen[key] = True  # np.bincount would first copy the keys to intp
    present = np.flatnonzero(seen)
    keys = [int(present[j]) for j in _contenders([divmod(int(k), width) for k in present])]
    hits = [np.flatnonzero(key == k).astype(np.int32) for k in keys]
    start = np.zeros(len(hits) + 1, dtype=np.int64)
    np.cumsum([len(h) for h in hits], out=start[1:])
    return _Census(tuple(divmod(k, width) for k in keys), _frozen(np.concatenate(hits)), _frozen(start))


def _contenders(classes: list[tuple[int, int]]) -> list[int]:
    """Indices of the classes (A, B) that attain min d A + B at some d >= 0,
    in increasing order: the classes of least B (the winners at d = 0),
    then, walking d up the lower convex chain of the points (A, B), every
    class tied at each break."""
    low = min(b for _, b in classes)
    keep = {j for j, (_, b) in enumerate(classes) if b == low}
    a0, b0 = min(classes[j] for j in keep)
    while True:
        # the d at which each class of smaller A ties the current winner
        breaks = {j: Fraction(b - b0, a0 - a) for j, (a, b) in enumerate(classes) if a < a0}
        if not breaks:
            return sorted(keep)
        d = min(breaks.values())
        ties = [j for j, at in breaks.items() if at == d]
        keep.update(ties)
        a0, b0 = min(classes[j] for j in ties)


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


def _check_order(p: int, pair: bool) -> None:
    """Refuse, before anything is built, an order whose S_{2p} (single
    problems) or S_{2p}^2 (pair problems) is past the cap."""
    cap = DEFAULT_PAIR_ORDER if pair else DEFAULT_ENUMERATION_CAP // 2
    if p > cap:
        raise ValueError(f"p={p} exceeds the {'pair-search ' if pair else ''}cap {cap}")


def _exponent(d) -> Fraction:
    """d as a Fraction; ValueError for a d that is not finite, or d < 0,
    outside the regime k ~ c n^d."""
    try:
        d = Fraction(d)
    except OverflowError as exc:  # Fraction(+-inf); Fraction(nan) is a ValueError already
        raise ValueError(f"d={d} must be finite") from exc
    if d < 0:
        raise ValueError(f"d={d} must be >= 0")
    return d


def _minimize_single(problem: str, p: int, d, target: Permutation) -> ExponentReport:
    d = _exponent(d)
    minimum, points = _best(_single_census(p, target), d, -p)
    return ExponentReport(problem=problem, p=p, d=d, minimum=minimum, minimizers=tuple(_perms_at(p, points)))


def minimize_S2(p: int, d) -> ExponentReport:
    """Exhaustive minimization of S2(beta) = d|beta| + |beta gtilde^{-1}|
    + |beta delta| - p over S_{2p}.

    Answered from the order's census of at most 8 contending classes.  On
    a 2-vCPU VM that costs about 3 ms once per order at p = 4 (S_8's table
    aside), then 15-30 us a call."""
    _check_order(p, pair=False)
    _, _, gtilde = make_gamma_delta(p)
    return _minimize_single("S2", p, d, gtilde)


def minimize_S1(p: int, d) -> ExponentReport:
    """Exhaustive minimization of S1(beta) = d|beta| + |beta gamma^{-1}|
    + |beta delta| - p over S_{2p}.

    Cost as for `minimize_S2`."""
    _check_order(p, pair=False)
    gamma, _, _ = make_gamma_delta(p)
    return _minimize_single("S1", p, d, gamma)


@lru_cache(maxsize=4)
def _pair_census(p: int) -> _Census:
    """Census of S over S_{2p}^2: A = |alpha| + |alpha beta^{-1}|,
    B = |alpha gamma^{-1}| + |beta delta| + |alpha beta^{-1}|."""
    gamma, delta, _ = make_gamma_delta(p)
    pair = _pair_lengths(p)
    return _census(_lengths(p)[:, None] + pair, (_lengths(p, gamma.inverse())[:, None] + _lengths(p, delta)) + pair)


def minimize_S(p: int, d) -> ExponentReport:
    """Exhaustive minimization over pairs of
    S(alpha, beta) = d|alpha| + |alpha gamma^{-1}| + |beta delta|
    + (d+1)|alpha beta^{-1}| - p.

    At d = 1 this is the exponent of the generalized linear model, so the
    same search answers both regimes.  Answered from the order's census of
    6 contending classes at p = 3.  On a 2-vCPU VM that costs about 20 ms
    once at p = 3 (the pair lengths over S_6^2, then one pass over the keys
    per contender), then 20-90 us a call.
    """
    _check_order(p, pair=True)
    d = _exponent(d)
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
    pair = _pair_lengths(p, rows)
    census = _census(_lengths(p)[rows, None] + pair, (least[:, None] + _lengths(p, delta)) + pair)
    return census, _frozen(rows), _frozen(choices)


def minimize_S_pinched(p: int, d) -> ExponentReport:
    """Exhaustive minimization of the pinched exponent
    S(alpha, beta, f) = |beta delta| + d|alpha| + (d+1)|alpha beta^{-1}|
    + #Bell + |alpha f_hat^{-1}| + const(d, p)
    over choice functions and pairs with alpha outside the cancellation set V.

    The constant is -p(2d+1) + 2d for d in (0,1) and -3p + 2 for d in (1,2);
    in both regimes the minimum is 0.  Minimizers are the (f, alpha, beta)
    with (alpha, beta) optimal for the pair problem in which #Bell +
    |alpha f_hat^{-1}| is minimized over f, and f among alpha's minimizing
    choices, listed f by f.  Answered from the order's census of 6
    contending classes at p = 3.  On a 2-vCPU VM that costs about 7 ms once
    at p = 3 (the pair lengths of the alphas outside V included), then
    about 90 us a call.
    """
    _check_order(p, pair=True)
    d = _exponent(d)
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


def reference_S2(p: int, d) -> tuple[Fraction, frozenset[Permutation]]:
    """Closed-form solution table for the S2 problem."""
    d = _exponent(d)
    _, delta, gtilde = make_gamma_delta(p)
    if d == 0:
        return Fraction(-1), geodesics(delta, gtilde)
    if d < 2:
        return d * p - 1, frozenset({delta})
    if d == 2:
        return Fraction(2 * p - 1), geodesics(identity(2 * p), delta)
    return Fraction(2 * p - 1), frozenset({identity(2 * p)})


def reference_S1(p: int, d) -> tuple[Fraction, frozenset[Permutation]]:
    """Closed-form solution table for the S1 problem, including the p = 2
    special rows and the interface case p = 2/(2-d)."""
    d = _exponent(d)
    gamma, delta, _ = make_gamma_delta(p)
    ident = identity(2 * p)
    if d == 0:
        return Fraction(0), geodesics(delta, gamma)
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
    d = Fraction(regime.d)
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
