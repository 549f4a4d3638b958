"""Free-probability predictions: the Marchenko-Pastur (free Poisson) law,
its moments through non-crossing partitions, the x log x integral behind the
entropy asymptotics, the fixed-ancilla eigenvalue vector, the five-regime
entropy predictions, and the naive linear-algebra entropy bound.

Natural logarithm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .moments import RegimeParams
from .montecarlo import entropy_of
from .perm import DEFAULT_NC_CAP, non_crossing_partitions


@dataclass(frozen=True)
class MarchenkoPastur:
    """Free Poisson law of parameter c: an atom max(1-c, 0) at zero plus the
    density sqrt(4c - (x-1-c)^2) / (2 pi x) on [(1-sqrt c)^2, (1+sqrt c)^2]."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("parameter c must be positive")

    @property
    def support(self) -> tuple[float, float]:
        r = math.sqrt(self.c)
        return ((1 - r) ** 2, (1 + r) ** 2)

    @property
    def atom_at_zero(self) -> float:
        return max(1.0 - self.c, 0.0)

    def density(self, x: float) -> float:
        return mp_density(self.c, x)

    def moment(self, p: int) -> float:
        return float(mp_moment(self.c, p))

    def integrate(self, func, nodes: int = 400) -> float:
        """Integral of `func` against the absolutely continuous part, via the
        trigonometric substitution x = 1 + c + 2 sqrt(c) sin(phi) that removes
        both square-root edges; Gauss-Legendre in phi converges spectrally."""
        phi, weights = _gauss_legendre(nodes)
        x = 1 + self.c + 2 * math.sqrt(self.c) * np.sin(phi)
        jacobian = 2 * self.c * np.cos(phi) ** 2 / (math.pi * x)
        values = np.array([func(float(v)) for v in x])
        return float(np.sum(weights * jacobian * values))

    def expect(self, func, nodes: int = 400) -> float:
        """Integral against the full measure, atom included."""
        atom = self.atom_at_zero * func(0.0)
        return atom + self.integrate(func, nodes=nodes)


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-pi/2, pi/2], once per
    count: each costs a LAPACK eigensolve."""
    phi, weights = (a * (math.pi / 2) for a in np.polynomial.legendre.leggauss(nodes))
    phi.flags.writeable = False
    weights.flags.writeable = False
    return phi, weights


def mp_density(c: float, x: float) -> float:
    """Density of the absolutely continuous part at x; 0 outside the support.
    The atom at zero (weight max(1-c, 0)) is reported separately."""
    if c <= 0:
        raise ValueError("parameter c must be positive")
    lo = (1 - math.sqrt(c)) ** 2
    hi = (1 + math.sqrt(c)) ** 2
    if x <= 0 or x < lo or x > hi:
        return 0.0
    return math.sqrt(max(4 * c - (x - 1 - c) ** 2, 0.0)) / (2 * math.pi * x)


@lru_cache(maxsize=32)
def _nc_block_counts(p: int) -> tuple[int, ...]:
    """Number of non-crossing partitions of [p] with exactly b blocks,
    b = 0..p."""
    counts = [0] * (p + 1)
    for partition in non_crossing_partitions(p):
        counts[len(partition)] += 1
    return tuple(counts)


def mp_moment(c, p: int, cap: int = DEFAULT_NC_CAP):
    """p-th moment of the free Poisson law: sum over non-crossing partitions
    of c^{#blocks}.  Exact (Fraction) when c is exact; float otherwise."""
    if p < 0:
        raise ValueError("p must be >= 0")
    if p == 0:
        return Fraction(1) if isinstance(c, (int, Fraction)) else 1.0
    if p > cap:
        raise ValueError(f"p={p} exceeds the non-crossing enumeration cap {cap}")
    counts = _nc_block_counts(p)
    if isinstance(c, (int, Fraction)):
        return sum(Fraction(count) * Fraction(c) ** blocks for blocks, count in enumerate(counts) if count)
    return float(sum(count * c**blocks for blocks, count in enumerate(counts)))


def mp_entropy_integral(c: float) -> float:
    """Closed form of int x log x d pi_c: 1/2 + c log c for c >= 1 and
    c^2 / 2 for 0 < c < 1 (the branches agree at c = 1)."""
    if c <= 0:
        raise ValueError("parameter c must be positive")
    if c >= 1:
        return 0.5 + c * math.log(c)
    return c * c / 2.0


def gamma_t_vector(t, k: int) -> list:
    """Limit eigenvalue vector of the fixed-ancilla product output: first
    entry t + (1-t)/k^2, then (1-t)/k^2 repeated k^2 - 1 times.  Exact when
    t is exact; sums to 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    if isinstance(t, (int, Fraction)):
        t = Fraction(t)
        low = (1 - t) / Fraction(k * k)
    else:
        low = (1.0 - t) / (k * k)
    return [t + low] + [low] * (k * k - 1)


def vn_entropy(v: Sequence[float]) -> float:
    """Von Neumann entropy -sum v_i log v_i of a probability vector, by
    `montecarlo.entropy_of` (0 log 0 := 0, entries below -1e-10, NaN or
    infinite rejected); also rejects sums away from 1 beyond 1e-8."""
    vals = np.asarray([float(x) for x in v], dtype=float)
    total = float(vals.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"entries sum to {total}, not a probability vector")
    return entropy_of(vals)


def naive_bound(k: int) -> float:
    """Elementary entropy bound H(Z) <= 2 log k - (log k)/k + 1/k, following
    from the deterministic fact that the top output eigenvalue is at least
    1/k; valid for integer k >= 2 (it degenerates at k = 1)."""
    if not isinstance(k, (int, np.integer)):
        raise ValueError("k must be an integer")
    if k < 2:
        raise ValueError("the bound needs k >= 2")
    return 2 * math.log(k) - math.log(k) / k + 1.0 / k


@dataclass(frozen=True)
class EntropyPrediction:
    """Asymptotic H(Z) prediction: leading expression plus the constant
    entropy defect below 2 log(k and n) when the theory resolves it;
    `defect_known` is False where only the leading term is available."""

    regime_label: str
    leading: float
    defect: float
    defect_known: bool

    def value(self) -> float:
        return self.leading


def entropy_prediction(regime: RegimeParams, n: int, k: int) -> EntropyPrediction:
    """The five-regime entropy asymptotics for the conjugate product output.

    d = 0 evaluates the two-level spectrum entropy exactly (integer ancilla
    required); d = 1 dispatches on c vs 1 with macroscopic defect c^2/2 or
    1/(2c^2); the remaining regimes carry only their leading term.
    """
    d = Fraction(regime.d)
    c = float(regime.c)
    if d == 0:
        k_fixed = int(regime.c)
        if k_fixed != regime.c:
            raise ValueError("the d = 0 regime needs an integer ancilla dimension c = k")
        t = regime.t if regime.t is not None else Fraction(1, k_fixed)
        h = vn_entropy([float(x) for x in gamma_t_vector(t, k_fixed)])
        return EntropyPrediction("d=0 two-level", h, 2 * math.log(k_fixed) - h, True)
    if d < 1:
        return EntropyPrediction("d in (0,1)", 2 * math.log(k), 0.0, False)
    if d == 1:
        if c < 1:
            return EntropyPrediction("d=1, c<1", 2 * math.log(k) - c * c / 2, c * c / 2, True)
        return EntropyPrediction("d=1, c>=1", 2 * math.log(n) - 1 / (2 * c * c), 1 / (2 * c * c), True)
    if d < 2:
        return EntropyPrediction("d in (1,2)", 2 * math.log(n), 0.0, False)
    return EntropyPrediction("d >= 2", 2 * math.log(n), 0.0, False)
