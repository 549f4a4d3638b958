import math
from fractions import Fraction

import numpy as np
import pytest

from wgchan.freeprob import (
    MarchenkoPastur,
    entropy_prediction,
    gamma_t_vector,
    mp_density,
    mp_entropy_integral,
    mp_moment,
    naive_bound,
    vn_entropy,
)
from wgchan.moments import RegimeParams
from wgchan.perm import DEFAULT_NC_CAP, non_crossing_partitions


def catalan(i):
    return math.comb(2 * i, i) // (i + 1)


def narayana(p, b):
    return math.comb(p, b) * math.comb(p, b - 1) // p


def is_noncrossing(blocks):
    for x_block in blocks:
        for y_block in blocks:
            if x_block is y_block:
                continue
            for a in x_block:
                for b in x_block:
                    if a >= b:
                        continue
                    inside = sum(1 for c in y_block if a < c < b)
                    if inside not in (0, len(y_block)):
                        return False
    return True


# ---------------------------------------------------------------------------
# non-crossing partitions and moments


@pytest.mark.parametrize("p", range(1, 9))
def test_nc_counts_are_catalan(p):
    parts = list(non_crossing_partitions(p))
    assert len(parts) == catalan(p)
    seen = {tuple(sorted(tuple(sorted(b)) for b in part)) for part in parts}
    assert len(seen) == len(parts)


@pytest.mark.parametrize("p", range(1, 7))
def test_nc_partitions_are_noncrossing_and_partition(p):
    for blocks in non_crossing_partitions(p):
        flat = sorted(x for b in blocks for x in b)
        assert flat == list(range(p))
        assert is_noncrossing(blocks)


@pytest.mark.parametrize("p", range(1, 9))
def test_nc_block_histogram_is_narayana(p):
    counts = [0] * (p + 1)
    for blocks in non_crossing_partitions(p):
        counts[len(blocks)] += 1
    for b in range(1, p + 1):
        assert counts[b] == narayana(p, b)


def test_mp_moment_polynomials():
    c = Fraction(3, 7)
    assert mp_moment(c, 0) == 1
    assert mp_moment(c, 1) == c
    assert mp_moment(c, 2) == c + c * c
    assert mp_moment(c, 3) == c + 3 * c * c + c**3


def test_mp_moment_catalan_at_c1():
    for p in range(1, 11):
        assert mp_moment(1, p) == catalan(p)


def test_mp_moment_is_the_non_crossing_sum():
    for c in (Fraction(3, 7), 2):
        for p in range(1, 11):
            assert mp_moment(c, p) == sum(Fraction(c) ** len(blocks) for blocks in non_crossing_partitions(p))


def test_mp_moment_past_the_enumeration_cap():
    with pytest.raises(ValueError):
        non_crossing_partitions(DEFAULT_NC_CAP + 1)
    assert mp_moment(1, 20) == catalan(20)


# ---------------------------------------------------------------------------
# density and quadrature


def test_mp_density_point_values():
    assert mp_density(1.0, 1.0) == pytest.approx(math.sqrt(3) / (2 * math.pi), rel=1e-12)
    x = 0.01
    expected = math.sqrt(4 - (x - 2) ** 2) / (2 * math.pi * x)
    assert mp_density(1.0, x) == pytest.approx(expected, rel=1e-12)
    assert mp_density(1.0, 4.1) == 0.0
    assert mp_density(0.25, 0.2) == 0.0  # below the lower edge (1 - 0.5)^2


def test_mp_parameter_outside_its_domain_is_refused():
    # NaN compares False with everything, so a check written as c <= 0 would
    # let it through
    for c in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            MarchenkoPastur(c)
        with pytest.raises(ValueError, match="positive and finite"):
            mp_density(c, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            mp_entropy_integral(c)
    for c in (math.nan, math.inf, -math.inf):
        for p in (0, 3):
            with pytest.raises(ValueError, match="finite"):
                mp_moment(c, p)
    # exact c is unchanged, however large
    assert mp_moment(10**400, 1) == 10**400
    assert mp_moment(Fraction(-1, 2), 2) == Fraction(-1, 4)


def test_mp_mass_and_mean():
    for c in (0.25, 1.0, 4.0):
        law = MarchenkoPastur(c)
        mass = law.integrate(lambda x: 1.0)
        assert mass == pytest.approx(1.0 - law.atom_at_zero, abs=1e-8)
        mean = law.expect(lambda x: x)
        assert mean == pytest.approx(c, abs=1e-8)


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_mp_moments_match_quadrature(c):
    law = MarchenkoPastur(c)
    for p in range(0, 7):
        quad = law.expect(lambda x: x**p)
        assert quad == pytest.approx(float(mp_moment(c, p)), rel=1e-6)


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_entropy_integral_matches_quadrature(c):
    law = MarchenkoPastur(c)
    quad = law.integrate(lambda x: x * math.log(x))
    assert quad == pytest.approx(mp_entropy_integral(c), abs=1e-6)


def test_entropy_integral_closed_forms():
    assert mp_entropy_integral(1.0) == 0.5
    assert mp_entropy_integral(0.5) == 0.125
    assert mp_entropy_integral(math.e) == pytest.approx(0.5 + math.e, rel=1e-12)
    # continuity at c = 1
    assert mp_entropy_integral(1 - 1e-9) == pytest.approx(0.5, abs=1e-8)
    assert mp_entropy_integral(1 + 1e-9) == pytest.approx(0.5, abs=1e-8)


def test_wishart_empirical_moments():
    # eigenvalues of X X* for an n x floor(cn) Gaussian X with variance 1/n
    rng = np.random.default_rng(512)
    n = 512
    for c in (0.5, 1.0):
        cols = int(c * n)
        x = (rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))) / math.sqrt(2 * n)
        eigs = np.linalg.eigvalsh(x @ x.conj().T)
        for p in (1, 2, 3):
            emp = float(np.mean(eigs**p))
            assert emp == pytest.approx(float(mp_moment(c, p)), rel=0.05)


# ---------------------------------------------------------------------------
# eigenvalue vector, entropies, bounds


def test_gamma_t_vector_values():
    assert gamma_t_vector(0.5, 2) == [0.625, 0.125, 0.125, 0.125]
    k = 4
    vec = gamma_t_vector(Fraction(1, k), k)
    assert vec[0] == Fraction(1, k) + Fraction(1, k * k) - Fraction(1, k**3)
    assert vec[1] == Fraction(1, k * k) - Fraction(1, k**3)
    assert len(vec) == k * k
    assert sum(vec) == 1


def test_gamma_t_vector_t1():
    assert gamma_t_vector(1, 3) == [1] + [0] * 8


def test_gamma_t_vector_validation():
    with pytest.raises(ValueError):
        gamma_t_vector(0, 2)
    with pytest.raises(ValueError):
        gamma_t_vector(0.5, 0)


def test_vn_entropy_values():
    assert vn_entropy([0.25] * 4) == pytest.approx(math.log(4), rel=1e-12)
    assert vn_entropy([1.0, 0.0, 0.0]) == 0.0
    expected = 0.625 * math.log(1 / 0.625) + 0.375 * math.log(8)
    assert vn_entropy(gamma_t_vector(0.5, 2)) == pytest.approx(expected, rel=1e-12)
    assert vn_entropy(gamma_t_vector(0.5, 2)) == pytest.approx(1.0735, abs=5e-5)


def test_vn_entropy_validation():
    with pytest.raises(ValueError):
        vn_entropy([1.2, -0.2])
    with pytest.raises(ValueError):
        vn_entropy([0.4, 0.4])


def test_naive_bound_values():
    assert naive_bound(2) == pytest.approx(2 * math.log(2) - math.log(2) / 2 + 0.5, rel=1e-12)
    with pytest.raises(ValueError):
        naive_bound(1)
    with pytest.raises(ValueError):
        naive_bound(2.5)


def test_prediction_beats_naive_bound_for_large_k():
    # d = 1, c < 1: predicted entropy 2 log k - c^2/2 sits strictly below the
    # naive bound once the bound's vanishing correction drops under c^2/2
    c = 0.5
    for k in (50, 100, 1000):
        predicted = 2 * math.log(k) - c * c / 2
        assert predicted < naive_bound(k)


def test_entropy_prediction_cases():
    pred = entropy_prediction(RegimeParams(c=Fraction(1, 2), d=1), 100, 50)
    assert pred.leading == pytest.approx(2 * math.log(50) - 0.125, rel=1e-12)
    assert pred.defect == pytest.approx(0.125) and pred.defect_known

    pred = entropy_prediction(RegimeParams(c=2, d=1), 100, 200)
    assert pred.leading == pytest.approx(2 * math.log(100) - 1 / 8, rel=1e-12)
    assert pred.defect == pytest.approx(1 / 8)

    pred = entropy_prediction(RegimeParams(c=1, d=Fraction(1, 2)), 100, 10)
    assert pred.leading == pytest.approx(2 * math.log(10)) and not pred.defect_known

    pred = entropy_prediction(RegimeParams(c=1, d=3), 8, 512)
    assert pred.leading == pytest.approx(2 * math.log(8)) and not pred.defect_known

    pred = entropy_prediction(RegimeParams(c=2, d=0, t=Fraction(1, 2)), 100, 2)
    assert pred.leading == pytest.approx(vn_entropy(gamma_t_vector(0.5, 2)), rel=1e-12)
    assert pred.defect == pytest.approx(2 * math.log(2) - pred.leading)


def test_entropy_prediction_d0_requires_integer_c():
    with pytest.raises(ValueError):
        entropy_prediction(RegimeParams(c=2.5, d=0), 10, 2)


def test_entropy_asymptotics_from_mp_identity():
    # bulk pi_{c^2} at scale 1/(c^2 n^2) over n^2 - 1 eigenvalues plus one
    # outlier at 1/(cn) reproduces 2 log n - 1/(2 c^2) for c >= 1:
    # H = -(n^2-1) E[lambda log lambda] - lam1 log lam1 with
    # E[x log x] = 1/2 + c^2 log c^2 under pi_{c^2}.
    for c in (1.0, 2.0):
        n = 10**6
        scale = 1 / (c * c * n * n)
        mean_x = c * c  # first moment of pi_{c^2}
        xlogx = mp_entropy_integral(c * c)
        bulk = -(n * n - 1) * scale * (xlogx + mean_x * math.log(scale))
        lam1 = 1 / (c * n)
        h = bulk - lam1 * math.log(lam1)
        assert h - 2 * math.log(n) == pytest.approx(-1 / (2 * c * c), abs=1e-4)
