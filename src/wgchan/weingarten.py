"""Weingarten calculus on the unitary group.

``wg_exact`` inverts the class-algebra Gram matrix of ``sigma -> n^{#sigma}``
exactly, so the convolution identity

    sum_tau n^{#(sigma tau^{-1})} Wg(tau) = [sigma == id]

holds with zero tolerance.  The Gram matrix is a polynomial in n whose integer
coefficients depend only on p; ``gram_census`` reads them off the cached group
table of S_p (``perm.class_census``) once per order, and each table evaluates
that polynomial at n in integers and solves by fraction-free (Bareiss)
elimination.  ``haar_moment`` evaluates the full Haar-moment integration
formula from such a table, with a seeded Monte Carlo oracle
(``haar_moment_mc``) to check it against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from .perm import CycleType, Permutation, catalan, class_census, mobius, partitions

#: Largest order p for which wg_exact builds a table by default.  The class
#: algebra stays tiny (15 classes at p=7); the Gram census reads S_p's group
#: table, which costs 0.02 s to build at p=7 and 0.2 s at p=8.  Orders above
#: perm.DEFAULT_ENUMERATION_CAP have no group table and raise.
DEFAULT_WG_ORDER_CAP = 7


def class_representative(parts: tuple[int, ...]) -> Permutation:
    """Canonical representative with consecutive cycles: (0 1 2)(3 4)..."""
    images = []
    start = 0
    for d in parts:
        images.extend(list(range(start + 1, start + d)) + [start])
        start += d
    return Permutation(tuple(images))


@dataclass(frozen=True)
class WgTable:
    """Exact Weingarten values for fixed (n, p), indexed by cycle type.

    Defined only for n >= p, where ``sigma -> n^{#sigma}`` is invertible.
    """

    n: int
    p: int
    values: Mapping[CycleType, Fraction]

    def of_type(self, ct: CycleType) -> Fraction:
        return self.values[ct]

    def of(self, a: Permutation) -> Fraction:
        return self.values[a.cycle_type()]

    def __getitem__(self, key) -> Fraction:
        if isinstance(key, Permutation):
            return self.of(key)
        if isinstance(key, CycleType):
            return self.values[key]
        return self.values[CycleType(tuple(key))]


@lru_cache(maxsize=None)
def gram_census(p: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Integer census ``C[lam][mu][c] = #{tau in class mu : #(sigma_lam tau^{-1}) = c}``
    over the classes of S_p in ``partitions(p)`` order, with sigma_lam the
    ``class_representative``, read off the group table of S_p.  The Gram
    matrix at dimension n is ``G[lam][mu] = sum_c C[lam][mu][c] n^c`` for
    every n."""
    # tau -> tau^{-1} keeps the class and #(sigma tau) = #(tau sigma), so row
    # lam counts #(tau sigma_lam) over tau in each class
    return tuple(
        tuple(map(tuple, class_census(p, [class_representative(parts).images]).tolist()))
        for parts in partitions(p)
    )


def gram_matrix(p: int, x: int) -> list[list[int]]:
    """The Gram matrix ``G[lam][mu] = sum_{tau in class mu} x^{#(sigma_lam tau^{-1})}``
    of S_p at the integer x, evaluated in integers (Horner) from ``gram_census(p)``."""

    def at_x(cell: tuple[int, ...]) -> int:
        value = 0
        for cnt in reversed(cell):
            value = value * x + cnt
        return value

    return [[at_x(cell) for cell in row] for row in gram_census(p)]


def _solve_integer(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve A x = b for integer A, b: fraction-free (Bareiss) elimination to
    upper-triangular form, every division exact, then rational back-substitution."""
    size = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    prev = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        head = a[col]
        for r in range(col + 1, size):
            row = a[r]
            lead = row[col]
            row[col] = 0
            for j in range(col + 1, size + 1):
                row[j] = (row[j] * head[col] - lead * head[j]) // prev
        prev = head[col]
    x: list[Fraction] = [Fraction(0)] * size
    for r in range(size - 1, -1, -1):
        rest = a[r][size] - sum(a[r][j] * x[j] for j in range(r + 1, size))
        x[r] = Fraction(rest, a[r][r])
    return x


def wg_exact(n: int, p: int, max_order: int = DEFAULT_WG_ORDER_CAP) -> WgTable:
    """Exact rational Weingarten table for S_p at dimension n.

    Solves G(n) x = e_id, where G[lam, mu] =
    sum_{tau in class mu} n^{#(sigma_lam tau^{-1})} over one representative
    sigma_lam per class.  G(n) is evaluated in integers from the cached,
    n-independent ``gram_census(p)`` and solved by fraction-free elimination,
    so after the first call at an order, a table at any n costs no census.
    Wg is a class function, so the class reduction loses nothing; tests
    validate the convolution identity on the full group.
    """
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")
    if p > max_order:
        raise ValueError(f"order p={p} exceeds the cap {max_order}; pass max_order to opt in")
    if n < p:
        raise ValueError(f"n < p ({n} < {p}): the Gram matrix is singular, table rejected")

    parts_list = partitions(p)
    rhs = [1 if parts == (1,) * p else 0 for parts in parts_list]
    solution = _solve_integer(gram_matrix(p, n), rhs)
    values = {CycleType(parts): solution[idx] for idx, parts in enumerate(parts_list)}
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
