"""Symmetric-group combinatorics: permutations in one-line notation, cycle
types, the transposition metric and its geodesics (built from non-crossing
partitions), the Moebius function, the block permutations that index the
channel-moment sums, the character table of S_q that every exact class
function is read off, and the cached array table of S_m that every exact
census counts over.

Composition convention, fixed for the whole package: ``compose(a, b)`` is the
map ``x -> a(b(x))``, i.e. ``b`` acts first.  One pinned test guards this.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

#: Largest group degree `m` that `all_permutations` enumerates by default and
#: `group_table` builds.  Only the exact moments' census and the exponent
#: minimizations read a table, that of S_2p, so they stop at p = 4.  S_8 has
#: 40320 elements.
DEFAULT_ENUMERATION_CAP = 8
#: Non-crossing partition enumeration cap; NC(12) has 208012 elements.
DEFAULT_NC_CAP = 12


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``[0, m)`` stored in one-line notation.

    ``images[x]`` is the image of ``x``.

    >>> s = Permutation((1, 0, 2))
    >>> s(0), s(1), s(2)
    (1, 0, 2)
    >>> s.cycle_type().parts
    (2, 1)
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection on [0, {len(self.images)}): {self.images!r}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest element."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    @property
    def num_cycles(self) -> int:
        return len(self.cycles())

    def cycle_type(self) -> "CycleType":
        return CycleType(tuple(sorted((len(c) for c in self.cycles()), reverse=True)))

    def length(self) -> int:
        """Minimal number of transpositions multiplying to this permutation.

        Equals ``degree - num_cycles``.
        """
        return self.degree - self.num_cycles

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"


@dataclass(frozen=True)
class CycleType:
    """Integer partition recording the cycle lengths of a conjugacy class."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts!r}")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError(f"parts must be non-increasing: {self.parts!r}")

    @property
    def degree(self) -> int:
        return sum(self.parts)

    @property
    def num_cycles(self) -> int:
        return len(self.parts)

    @property
    def length(self) -> int:
        return self.degree - self.num_cycles

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class LabeledIndex:
    """Bijection between array positions ``[0, 2p)`` and channel-leg labels.

    The label set is ``{p^B, ..., 1^B, 1^T, ..., p^T}`` laid out in that order:
    position ``j < p`` holds ``(p-j)^B`` and position ``j >= p`` holds
    ``(j-p+1)^T``.  Every module uses this one convention.
    """

    position: int
    index: int
    block: str

    @classmethod
    def from_position(cls, position: int, p: int) -> "LabeledIndex":
        if not 0 <= position < 2 * p:
            raise ValueError(f"position {position} outside [0, {2 * p})")
        if position < p:
            return cls(position, p - position, "B")
        return cls(position, position - p + 1, "T")

    @classmethod
    def from_label(cls, index: int, block: str, p: int) -> "LabeledIndex":
        if not 1 <= index <= p:
            raise ValueError(f"label index {index} outside [1, {p}]")
        if block == "B":
            return cls(p - index, index, "B")
        if block == "T":
            return cls(p + index - 1, index, "T")
        raise ValueError(f"block must be 'T' or 'B', got {block!r}")


def identity(m: int) -> Permutation:
    return Permutation(tuple(range(m)))


def transposition(m: int, i: int, j: int) -> Permutation:
    if not (0 <= i < m and 0 <= j < m and i != j):
        raise ValueError(f"bad transposition ({i} {j}) in S_{m}")
    images = list(range(m))
    images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


def from_cycles(m: int, cycles: list[tuple[int, ...]]) -> Permutation:
    """Build a permutation of [0, m) from disjoint cycles ``(a1 a2 ... ak)``,
    each mapping ``a1 -> a2 -> ... -> ak -> a1``."""
    images = list(range(m))
    for cyc in cycles:
        for pos, x in enumerate(cyc):
            images[x] = cyc[(pos + 1) % len(cyc)]
    return Permutation(tuple(images))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The composite ``x -> a(b(x))``; ``b`` acts first."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return Permutation(tuple(a.images[y] for y in b.images))


def cycle_type(a: Permutation) -> CycleType:
    return a.cycle_type()


def length(a: Permutation) -> int:
    return a.length()


def distance(a: Permutation, b: Permutation) -> int:
    """Transposition metric ``d(a, b) = |a^{-1} b|``."""
    return compose(a.inverse(), b).length()


def is_geodesic(a: Permutation, b: Permutation, c: Permutation) -> bool:
    """True iff ``b`` lies on a geodesic from ``a`` to ``c``:
    ``|a^{-1}b| + |b^{-1}c| == |a^{-1}c|``."""
    if not a.degree == b.degree == c.degree:
        raise ValueError("degree mismatch")
    return distance(a, b) + distance(b, c) == distance(a, c)


def geodesics(a: Permutation, c: Permutation) -> frozenset[Permutation]:
    """Every ``b`` on a geodesic from ``a`` to ``c``: the set
    ``{a x : x <= a^{-1} c}`` of `is_geodesic`, built directly.

    ``x <= s`` (``|x| + |x^{-1} s| = |s|``) holds exactly when every cycle
    of ``x`` lies inside one cycle of ``s``, traversed in that cycle's
    order, and the blocks inside each cycle form a non-crossing partition
    of it (Biane 1997).  So the interval is the product over the cycles of
    ``s`` of their non-crossing partition lattices, and its size is the
    product of ``catalan(len)`` over those cycles."""
    if a.degree != c.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {c.degree}")
    per_cycle = [
        [[tuple(cyc[i] for i in block) for block in nc] for nc in non_crossing_partitions(len(cyc))]
        for cyc in compose(a.inverse(), c).cycles()
    ]
    return frozenset(
        compose(a, from_cycles(a.degree, [block for part in choice for block in part]))
        for choice in itertools.product(*per_cycle)
    )


def catalan(i: int) -> int:
    """Catalan number ``(2i)! / ((i+1)! i!)``."""
    return math.comb(2 * i, i) // (i + 1)


def non_crossing_partitions(p: int, cap: int = DEFAULT_NC_CAP) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All non-crossing partitions of {0, ..., p-1}.

    Generated by choosing the block of the smallest element as a sparse
    subset and recursing on the gaps it leaves, which cannot cross it.
    """
    if p > cap:
        raise ValueError(f"p={p} exceeds the non-crossing enumeration cap {cap}")

    def rec(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for mask in range(1 << len(rest)):
            block = (first,) + tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
            segments = []
            prev = None
            for idx, x in enumerate(rest):
                if mask >> idx & 1:
                    prev = None
                    continue
                if prev is None:
                    segments.append([x])
                else:
                    segments[-1].append(x)
                prev = x
            partial: list[tuple[tuple[int, ...], ...]] = [()]
            for seg in segments:
                partial = [done + sub for done in partial for sub in rec(tuple(seg))]
            for tail in partial:
                yield (block,) + tail

    return rec(tuple(range(p)))


def mobius(a: Permutation) -> int:
    """Moebius function: product over cycles of length d of
    ``(-1)^(d-1) * catalan(d-1)``.  Depends only on the cycle type."""
    out = 1
    for cyc in a.cycles():
        d = len(cyc)
        out *= (-1) ** (d - 1) * catalan(d - 1)
    return out


def _tpos(i: int, p: int) -> int:
    return p + i - 1


def _bpos(i: int, p: int) -> int:
    return p - i


def make_gamma_delta(p: int) -> tuple[Permutation, Permutation, Permutation]:
    """The block permutations (gamma, delta, gamma_tilde) of S_{2p}.

    Under the LabeledIndex layout:

    * ``gamma`` maps ``i^T -> (i-1)^T`` and ``i^B -> (i+1)^B`` with the index
      arithmetic cyclic inside each block, so it is a product of two p-cycles.
    * ``delta`` swaps ``i^T <-> i^B``: an involution made of p transpositions.
    * ``gamma_tilde`` is the single 2p-cycle
      ``(p^T ... 2^T 1^T 1^B 2^B ... p^B)``.

    They satisfy ``gamma = compose(transposition(1^B, p^T), gamma_tilde)``,
    i.e. gamma_tilde, then the transposition; gamma and gamma_tilde are at
    distance one.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    m = 2 * p
    gamma = [0] * m
    delta = [0] * m
    gtil = [0] * m
    for i in range(1, p + 1):
        gamma[_tpos(i, p)] = _tpos(i - 1 if i > 1 else p, p)
        gamma[_bpos(i, p)] = _bpos(i + 1 if i < p else 1, p)
        delta[_tpos(i, p)] = _bpos(i, p)
        delta[_bpos(i, p)] = _tpos(i, p)
        gtil[_tpos(i, p)] = _tpos(i - 1, p) if i > 1 else _bpos(1, p)
        gtil[_bpos(i, p)] = _bpos(i + 1, p) if i < p else _tpos(p, p)
    return Permutation(tuple(gamma)), Permutation(tuple(delta)), Permutation(tuple(gtil))


def all_permutations(m: int, max_degree: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Permutation]:
    """All m! elements of S_m in lexicographic order of one-line notation.

    Guarded by ``max_degree``; raise it explicitly to enumerate larger groups.
    """
    if m > max_degree:
        raise ValueError(
            f"enumeration of S_{m} exceeds the cap {max_degree}; "
            "pass a larger max_degree to opt in"
        )
    for images in itertools.permutations(range(m)):
        yield Permutation(images)


def random_permutation(m: int, rng: np.random.Generator) -> Permutation:
    return Permutation(tuple(int(x) for x in rng.permutation(m)))


def conjugate(g: Permutation, a: Permutation) -> Permutation:
    """The conjugate ``g a g^{-1}``."""
    return compose(compose(g, a), g.inverse())


def partitions(m: int) -> list[tuple[int, ...]]:
    """Integer partitions of m, parts non-increasing, deterministic order.

    This order indexes the conjugacy classes of S_m everywhere in the package.
    """
    if m == 0:
        return [()]
    out = []

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(m, m, ())
    return out


@lru_cache(maxsize=None)
def character_table(q: int) -> tuple[tuple[int, ...], ...]:
    """Irreducible characters of S_q: ``chi[lam][mu]`` is the character of the
    irrep with Young diagram ``lam`` on the class of cycle type ``mu``, rows
    and columns both in ``partitions(q)`` order.  Built once per q by the
    Murnaghan-Nakayama rule, without touching the group's elements."""
    classes = partitions(q)
    return tuple(tuple(_mn_character(lam, mu) for mu in classes) for lam in classes)


@lru_cache(maxsize=None)
def _mn_character(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """chi_shape(cycles) by Murnaghan-Nakayama: remove a rim hook of length
    cycles[0] in every possible way, with sign (-1)^height, and recurse on the
    remaining cycles.  In beta-numbers (shape[i] + len(shape) - 1 - i) removing
    an r-hook moves one bead b to a free b - r >= 0, and its height is the
    number of beads strictly between them."""
    if not cycles:
        return 1
    r, rest = cycles[0], cycles[1:]
    top = len(shape) - 1
    beta = [part + top - i for i, part in enumerate(shape)]
    total = 0
    for b in beta:
        if b < r or b - r in beta:
            continue
        height = sum(1 for c in beta if b - r < c < b)
        moved = sorted((c - r if c == b else c for c in beta), reverse=True)
        smaller = tuple(x - top + i for i, x in enumerate(moved) if x - top + i > 0)
        total += (-1) ** height * _mn_character(smaller, rest)
    return total


def irrep_dims(q: int) -> tuple[int, ...]:
    """dim lam for every irrep of S_q in ``partitions(q)`` order: the
    character on the identity class 1^q, which ``partitions(q)`` lists last."""
    return tuple(row[-1] for row in character_table(q))


def content_polynomial(shape: tuple[int, ...], x: int) -> int:
    """``prod_{(i, j) in shape} (x + j - i)``: the scalar by which the central
    element ``sum_sigma x^{#sigma} sigma`` of S_q acts on the irrep ``shape``
    (Collins-Sniady 2006)."""
    return math.prod(x + j - i for i, part in enumerate(shape) for j in range(part))


@dataclass(frozen=True)
class GroupTable:
    """Every element of S_m as arrays, rows in lexicographic order of one-line
    notation (the order of `all_permutations`)."""

    perms: np.ndarray  # (m!, m) uint8: row i is the one-line notation of element i
    inverse: np.ndarray  # (m!,) int32: index of the inverse
    ncycles: np.ndarray  # (m!,) int64: number of cycles
    cls: np.ndarray  # (m!,) int64: conjugacy class as an index into partitions(m)


@lru_cache(maxsize=None)
def group_table(m: int) -> GroupTable:
    """The array table of S_m, built once per degree for the life of the process."""
    if m > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"group degree {m} exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP}")
    perms_list = list(itertools.permutations(range(m)))
    n_elems = len(perms_list)
    perms = np.array(perms_list, dtype=np.uint8)
    # argsort of a row of one-line images is the row of its inverse
    inverse = index_of(np.argsort(perms, axis=1))

    class_of = {parts: idx for idx, parts in enumerate(partitions(m))}
    ncycles = np.empty(n_elems, dtype=np.int64)
    cls = np.empty(n_elems, dtype=np.int64)
    for idx, images in enumerate(perms_list):
        lens = []
        seen = [False] * m
        for start in range(m):
            if seen[start]:
                continue
            d = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
                d += 1
            lens.append(d)
        ncycles[idx] = len(lens)
        cls[idx] = class_of[tuple(sorted(lens, reverse=True))]
    return GroupTable(perms, inverse, ncycles, cls)


def index_of(rows: np.ndarray) -> np.ndarray:
    """Element index in `group_table(m)` of each row of one-line notations
    (last axis of `rows`, length m), as int32.  The table lists S_m in
    lexicographic order, so the index is the row's lexicographic rank: its
    Lehmer code (per position, how many later images are smaller) read in the
    factorial base."""
    m = rows.shape[-1]
    cols = [np.ascontiguousarray(rows[..., j]) for j in range(m)]
    index = np.zeros(rows.shape[:-1], dtype=np.int32)
    for i in range(m - 1):
        smaller = np.zeros(rows.shape[:-1], dtype=np.uint8)
        for j in range(i + 1, m):
            smaller += cols[j] < cols[i]
        index += smaller * np.int32(math.factorial(m - 1 - i))
    return index


def cycles_after(table: GroupTable, right_images: tuple[int, ...]) -> np.ndarray:
    """#(beta . right) for every beta in the table, where right acts first."""
    return table.ncycles[index_of(table.perms[:, list(right_images)])]


def class_census(m: int, rights: list[tuple[int, ...]]) -> np.ndarray:
    """Census of S_m against fixed right factors r_1, ..., r_j (one-line images):
    ``counts[lam, c_1, ..., c_j] = #{alpha in class lam : #(alpha r_i) = c_i}``,
    classes in ``partitions(m)`` order, each c_i in [0, m]."""
    table = group_table(m)
    base = m + 1
    flat = table.cls
    for right in rights:
        flat = flat * base + cycles_after(table, right)
    shape = (len(partitions(m)),) + (base,) * len(rights)
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
