"""Weingarten calculus on the unitary group.

``wg_exact`` reads the exact Weingarten table off the characters of S_p
(``perm.character_table``).  The central element ``sum_sigma n^{#sigma} sigma``
acts on the irrep lam as content_lam(n) (``perm.content_polynomial``) and Wg
is its inverse, so

    Wg(n, mu) = (1/p!) sum_lam dim lam chi_lam(mu) / content_lam(n).

The tests check the convolution identity
sum_tau n^{#(sigma tau^{-1})} Wg(tau) = [sigma == id] on the whole group with
zero tolerance, an independent route to the same values.  ``haar_moment``
evaluates the full Haar-moment integration formula from such a table, with a
seeded Monte Carlo oracle (``haar_moment_mc``) to check it against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .perm import CycleType, Permutation, catalan, character_table, content_polynomial, irrep_dims, mobius, partitions

#: Largest order p for which wg_exact builds a table by default; pass
#: max_order to go higher.  A table reads S_p's character table, one row and
#: one column per partition of p: 15 at p = 7, 77 at p = 12.
DEFAULT_WG_ORDER_CAP = 7


@dataclass(frozen=True)
class WgTable:
    """Exact Weingarten values for fixed (n, p), indexed by cycle type.

    Defined only for n >= p, where ``sigma -> n^{#sigma}`` is invertible.
    """

    n: int
    p: int
    values: Mapping[CycleType, Fraction]

    def of(self, a: Permutation) -> Fraction:
        return self.values[a.cycle_type()]

    def __getitem__(self, key) -> Fraction:
        if isinstance(key, Permutation):
            return self.of(key)
        if isinstance(key, CycleType):
            return self.values[key]
        return self.values[CycleType(tuple(key))]


def wg_irrep_weights(n: int, q: int) -> tuple[list[int], int]:
    """Wg(n, .) on S_q in the character basis: integers ``c[lam]`` (in
    ``partitions(q)`` order) and one denominator ``D`` with
    ``c[lam] / D = dim lam / (q! content_lam(n))``, so that
    ``Wg(n, mu) = sum_lam c[lam] chi_lam(mu) / D``.  Needs every
    content_lam(n) nonzero, i.e. n >= q."""
    contents = [content_polynomial(lam, n) for lam in partitions(q)]
    scale = math.lcm(*contents)
    return [dim * (scale // c) for dim, c in zip(irrep_dims(q), contents)], scale * math.factorial(q)


def wg_exact(n: int, p: int, max_order: int = DEFAULT_WG_ORDER_CAP) -> WgTable:
    """Exact rational Weingarten table for S_p at dimension n, read off the
    character table by ``wg_irrep_weights``; no group element is enumerated."""
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")
    if p > max_order:
        raise ValueError(f"order p={p} exceeds the cap {max_order}; pass max_order to opt in")
    if n < p:
        raise ValueError(f"n < p ({n} < {p}): content_lam(n) vanishes for some irrep, table rejected")

    coef, denom = wg_irrep_weights(n, p)
    chi = character_table(p)
    values = {
        CycleType(mu): Fraction(sum(c * row[j] for c, row in zip(coef, chi)), denom)
        for j, mu in enumerate(partitions(p))
    }
    return WgTable(n=n, p=p, values=values)


def wg_cycle_exact(n: int, d: int) -> Fraction:
    """Closed form for a single d-cycle:
    ``(-1)^(d-1) * catalan(d-1) / prod_{-d+1 <= j <= d-1} (n - j)``."""
    if d < 1:
        raise ValueError(f"cycle length must be >= 1, got {d}")
    if n <= d - 1:
        raise ValueError(f"n={n} <= d-1={d - 1}: zero in the denominator product")
    denom = 1
    for j in range(-d + 1, d):
        denom *= n - j
    return Fraction((-1) ** (d - 1) * catalan(d - 1), denom)


def wg_asymptotic(n: int, a: Permutation) -> Fraction:
    """Leading term ``n^{-(p + |a|)} Mob(a)`` of the large-n expansion."""
    p = a.degree
    return Fraction(mobius(a), n ** (p + a.length()))


@dataclass(frozen=True)
class IndexTuple:
    """Four index lists of equal length p, entries in [1, n]."""

    i: tuple[int, ...]
    i_prime: tuple[int, ...]
    j: tuple[int, ...]
    j_prime: tuple[int, ...]

    def __post_init__(self):
        p = len(self.i)
        if not len(self.i_prime) == len(self.j) == len(self.j_prime) == p:
            raise ValueError("all four index lists must have equal length")
        if p < 1:
            raise ValueError("index lists must be non-empty")
        for row in (self.i, self.i_prime, self.j, self.j_prime):
            if any(v < 1 for v in row):
                raise ValueError("indices are 1-based and must be >= 1")

    @property
    def p(self) -> int:
        return len(self.i)

    def max_index(self) -> int:
        return max(max(self.i), max(self.i_prime), max(self.j), max(self.j_prime))


def haar_moment(n: int, tup: IndexTuple, table: WgTable) -> Fraction:
    """Exact value of
    ``int U_{i1 j1} ... U_{ip jp} conj(U_{i'1 j'1}) ... conj(U_{i'p j'p}) dU``
    as a double sum over S_p x S_p of index deltas times Wg(n, tau sigma^{-1}).
    """
    p = tup.p
    if table.n != n or table.p != p:
        raise ValueError(f"table built for (n={table.n}, p={table.p}), need (n={n}, p={p})")
    if tup.max_index() > n:
        raise ValueError(f"index {tup.max_index()} exceeds dimension {n}")

    sigmas = [s for s in itertools.permutations(range(p)) if all(tup.i[x] == tup.i_prime[s[x]] for x in range(p))]
    taus = [t for t in itertools.permutations(range(p)) if all(tup.j[x] == tup.j_prime[t[x]] for x in range(p))]
    total = Fraction(0)
    for s in sigmas:
        s_inv = Permutation(s).inverse()
        for t in taus:
            total += table.of(Permutation(t) * s_inv)
    return total


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with a scalar standard error.

    ``stderr`` combines real and imaginary fluctuations:
    sqrt((var(Re) + var(Im)) / trials).
    """

    mean: complex
    stderr: float
    trials: int

    def z_against(self, reference: complex) -> float:
        if self.stderr == 0:
            return 0.0 if self.mean == reference else float("inf")
        return abs(self.mean - reference) / self.stderr


#: Haar unitaries drawn per batch by `haar_moment_mc`; no value depends on it.
_MC_BATCH = 8192


def haar_moment_mc(n: int, tup: IndexTuple, trials: int, seed: int) -> McEstimate:
    """Monte Carlo oracle for `haar_moment`: averages the entry product over
    Haar samples.  Deterministic given the seed (one stream, sequential
    draws), so extending `trials` keeps the earlier samples unchanged."""
    from .montecarlo import haar_isometry

    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tup.max_index() > n:
        raise ValueError(f"index {tup.max_index()} exceeds dimension {n}")

    rng = np.random.default_rng(seed)
    rows_i = np.array(tup.i) - 1
    cols_j = np.array(tup.j) - 1
    rows_ip = np.array(tup.i_prime) - 1
    cols_jp = np.array(tup.j_prime) - 1

    acc = np.empty(trials, dtype=complex)
    done = 0
    while done < trials:
        size = min(_MC_BATCH, trials - done)
        u = haar_isometry(n, n, rng, size)
        vals = np.prod(u[:, rows_i, cols_j], axis=1) * np.prod(
            u[:, rows_ip, cols_jp].conj(), axis=1
        )
        acc[done : done + size] = vals
        done += size

    mean = acc.mean()
    if trials > 1:
        var = acc.real.var(ddof=1) + acc.imag.var(ddof=1)
    else:
        var = 0.0
    return McEstimate(mean=complex(mean), stderr=float(np.sqrt(var / trials)), trials=trials)
