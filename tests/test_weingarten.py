import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgchan
from wgchan import perm
from wgchan.perm import CycleType, Permutation
from wgchan.weingarten import (
    IndexTuple,
    haar_moment,
    haar_moment_mc,
    partitions,
    wg_asymptotic,
    wg_cycle_exact,
    wg_exact,
    wg_irrep_weights,
)


def convolution_defect(table, n, p):
    """max over sigma of |sum_tau n^{#(sigma tau^-1)} Wg(tau) - [sigma=id]|,
    computed exactly; zero iff the table is the true convolution inverse."""
    worst = Fraction(0)
    for sigma in itertools.permutations(range(p)):
        s = Permutation(sigma)
        total = Fraction(0)
        for tau in itertools.permutations(range(p)):
            t = Permutation(tau)
            total += Fraction(n) ** perm.compose(s, t.inverse()).num_cycles * table.of(t)
        expected = Fraction(1) if s.is_identity() else Fraction(0)
        worst = max(worst, abs(total - expected))
    return worst


def test_partitions_counts():
    assert [len(partitions(p)) for p in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]


def test_wg_p1():
    for n in (1, 2, 5):
        assert wg_exact(n, 1)[CycleType((1,))] == Fraction(1, n)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_wg_p2_closed_forms(n):
    table = wg_exact(n, 2)
    assert table[CycleType((1, 1))] == Fraction(1, n * n - 1)
    assert table[CycleType((2,))] == Fraction(-1, n * (n * n - 1))


def test_wg_n4_p2_values():
    table = wg_exact(4, 2)
    assert table[CycleType((1, 1))] == Fraction(1, 15)
    assert table[CycleType((2,))] == Fraction(-1, 60)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_convolution_identity_exact(p):
    for n in (p, p + 1, 7):
        assert convolution_defect(wg_exact(n, p), n, p) == 0


def _order_and_dimension(max_p, max_n):
    return st.integers(1, max_p).flatmap(lambda p: st.tuples(st.just(p), st.integers(p, max_n)))


@settings(max_examples=20, deadline=None)
@given(_order_and_dimension(5, 40))
def test_convolution_identity_random_dimension(order_and_n):
    p, n = order_and_n
    assert convolution_defect(wg_exact(n, p), n, p) == 0


@settings(max_examples=40, deadline=None)
@given(_order_and_dimension(7, 200))
def test_cycle_closed_form_matches_table_random(order_and_n):
    p, n = order_and_n
    assert wg_cycle_exact(n, p) == wg_exact(n, p)[CycleType((p,))]


def _class_size(parts):
    size = math.factorial(sum(parts))
    for d in set(parts):
        mult = parts.count(d)
        size //= d**mult * math.factorial(mult)
    return size


def _hook_length_dim(shape):
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            arm = part - j - 1
            leg = sum(1 for below in shape[i + 1 :] if below > j)
            hooks *= arm + leg + 1
    return math.factorial(sum(shape)) // hooks


@pytest.mark.parametrize("q", range(1, 9))
def test_character_table_orthogonality(q):
    # sum_mu |mu| chi_lam(mu) chi_nu(mu) = q! [lam == nu], and each irrep's
    # character on the identity class is its dimension by the hook-length formula
    classes = partitions(q)
    chi = perm.character_table(q)
    sizes = [_class_size(mu) for mu in classes]
    for a, row_a in enumerate(chi):
        for b, row_b in enumerate(chi):
            inner = sum(size * x * y for size, x, y in zip(sizes, row_a, row_b))
            assert inner == (math.factorial(q) if a == b else 0)
    identity_class = classes.index((1,) * q)
    assert [row[identity_class] for row in chi] == [_hook_length_dim(lam) for lam in classes]
    assert list(perm.irrep_dims(q)) == [_hook_length_dim(lam) for lam in classes]


def test_wg_exact_builds_no_group_table():
    # the table is read off the character table; the group table of S_p is
    # left to the censuses that need it
    script = """
from wgchan import perm
from wgchan.weingarten import wg_exact
wg_exact(9, 7)
assert perm.group_table.cache_info().currsize == 0, perm.group_table.cache_info()
"""
    src = str(Path(wgchan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_wg_rejects_singular_regime():
    with pytest.raises(ValueError):
        wg_exact(1, 2)
    with pytest.raises(ValueError):
        wg_exact(2, 3)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_irrep_weights_below_q_give_the_pseudo_inverse(q):
    # for n < q the irreps with more than n rows have content 0 and weight 0:
    # Wg is then the Moore-Penrose inverse of G = sum_sigma n^{#sigma} sigma
    # in the group algebra, G Wg G = G and Wg G Wg = Wg, exactly
    elems = [Permutation(s) for s in itertools.permutations(range(q))]

    def conv(f, h):
        return {s: sum(f[perm.compose(s, t.inverse())] * h[t] for t in elems) for s in elems}

    for n in range(1, q):
        coef, denom = wg_irrep_weights(n, q)
        assert 0 in coef
        by_class = {
            CycleType(mu): Fraction(sum(c * row[j] for c, row in zip(coef, perm.character_table(q))), denom)
            for j, mu in enumerate(partitions(q))
        }
        g = {s: Fraction(n) ** s.num_cycles for s in elems}
        wg = {s: by_class[s.cycle_type()] for s in elems}
        assert conv(conv(g, wg), g) == g
        assert conv(conv(wg, g), wg) == wg


@pytest.mark.parametrize("args", [(9.0, 3), (9, 3.0), (True, 1), (9, True), (Fraction(9), 3)], ids=repr)
def test_wg_refuses_non_integers(args):
    with pytest.raises(ValueError, match="must be an integer"):
        wg_exact(*args)


def test_wg_order_cap():
    with pytest.raises(ValueError):
        wg_exact(10, 8)


def test_cycle_closed_form_small():
    for n in (1, 2, 10):
        assert wg_cycle_exact(n, 1) == Fraction(1, n)
    for n in (2, 3, 10):
        assert wg_cycle_exact(n, 2) == Fraction(-1, (n - 1) * n * (n + 1))
    assert wg_cycle_exact(2, 2) == Fraction(-1, 6)
    assert wg_exact(2, 2)[CycleType((2,))] == Fraction(-1, 6)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cycle_form_matches_full_table(d):
    for n in (d, d + 1, 10):
        assert wg_cycle_exact(n, d) == wg_exact(n, d)[CycleType((d,))]


def test_cycle_form_rejects_pole():
    with pytest.raises(ValueError):
        wg_cycle_exact(1, 2)
    with pytest.raises(ValueError):
        wg_cycle_exact(2, 3)


def test_wg_sign_pattern():
    # sign of Wg is (-1)^(p - #cycles), the product of the per-cycle signs
    for n, p in [(5, 3), (7, 4)]:
        table = wg_exact(n, p)
        for ct, value in table.values.items():
            assert (value > 0) == ((p - ct.num_cycles) % 2 == 0)


def test_wg_approx_multiplicative_over_cycles():
    # the full value approaches the product of single-cycle values as n grows
    ct = CycleType((2, 1))
    for n in (20, 40):
        full = wg_exact(n, 3)[ct]
        prod = wg_cycle_exact(n, 2) * wg_cycle_exact(n, 1)
        assert abs(full / prod - 1) < Fraction(8, n * n)


def test_wg_asymptotic_leading_term():
    assert wg_asymptotic(7, perm.identity(3)) == Fraction(1, 7**3)
    assert wg_asymptotic(5, perm.transposition(2, 0, 1)) == Fraction(-1, 5**3)


def test_wg_asymptotic_relative_error():
    # relative error of the leading term is O(n^-2): below 1e-2 at n=50, p=3
    table = wg_exact(50, 3)
    for images in itertools.permutations(range(3)):
        a = Permutation(images)
        exact = table.of(a)
        lead = wg_asymptotic(50, a)
        assert abs(exact / lead - 1) < Fraction(1, 100)


def test_wg_asymptotic_rate_slope():
    # log-log slope of |exact/leading - 1| vs n close to -2
    a = perm.from_cycles(3, [(0, 1)])
    errs = []
    for n in (20, 40, 80):
        err = abs(float(wg_exact(n, 3).of(a) / wg_asymptotic(n, a)) - 1.0)
        errs.append(err)
    slope1 = math.log(errs[1] / errs[0]) / math.log(2)
    slope2 = math.log(errs[2] / errs[1]) / math.log(2)
    assert -2.3 < slope1 < -1.7
    assert -2.3 < slope2 < -1.7


def test_haar_moment_p1_diagonal():
    for n in (1, 2, 5):
        tup = IndexTuple((1,), (1,), (1,), (1,))
        assert haar_moment(n, tup, wg_exact(n, 1)) == Fraction(1, n)


def test_haar_moment_p2_distinct_rows_and_columns():
    # E U11 U22 conj(U11) conj(U22): only sigma = tau = id survives the
    # deltas, giving Wg(id) alone (brute-force over S_2 x S_2 confirms)
    for n in (2, 3, 5):
        tup = IndexTuple((1, 2), (1, 2), (1, 2), (1, 2))
        assert haar_moment(n, tup, wg_exact(n, 2)) == Fraction(1, n * n - 1)


def test_haar_moment_p2_repeated_row():
    # E |U11|^2 |U12|^2: both sigma survive, tau = id only
    for n in (2, 3, 5):
        tup = IndexTuple((1, 1), (1, 1), (1, 2), (1, 2))
        expected = Fraction(1, n * n - 1) - Fraction(1, n * (n * n - 1))
        assert haar_moment(n, tup, wg_exact(n, 2)) == expected


def test_haar_moment_fourth_moment_of_entry():
    # E |U11|^4 = 2 / (n (n+1))
    for n in (2, 3, 7):
        tup = IndexTuple((1, 1), (1, 1), (1, 1), (1, 1))
        assert haar_moment(n, tup, wg_exact(n, 2)) == Fraction(2, n * (n + 1))


def test_haar_moment_mismatched_multiset_is_zero():
    tup = IndexTuple((1, 2), (1, 1), (1, 2), (1, 2))
    assert haar_moment(3, tup, wg_exact(3, 2)) == 0


def test_haar_moment_relabeling_invariance():
    # relabeling the dimension indices by any permutation leaves the value
    # unchanged (the integral only sees the delta pattern)
    n = 4
    table = wg_exact(n, 2)
    tup = IndexTuple((1, 2), (2, 1), (3, 3), (3, 3))
    base = haar_moment(n, tup, table)
    for relabel in itertools.permutations(range(1, n + 1)):
        mapped = IndexTuple(
            tuple(relabel[i - 1] for i in tup.i),
            tuple(relabel[i - 1] for i in tup.i_prime),
            tuple(relabel[j - 1] for j in tup.j),
            tuple(relabel[j - 1] for j in tup.j_prime),
        )
        assert haar_moment(n, mapped, table) == base


def test_haar_moment_table_mismatch_rejected():
    tup = IndexTuple((1,), (1,), (1,), (1,))
    with pytest.raises(ValueError):
        haar_moment(3, tup, wg_exact(2, 1))
    with pytest.raises(ValueError):
        haar_moment(2, IndexTuple((1, 1), (1, 1), (3, 1), (1, 1)), wg_exact(2, 2))


def test_index_tuple_validation():
    with pytest.raises(ValueError):
        IndexTuple((1, 2), (1,), (1, 2), (1, 2))
    with pytest.raises(ValueError):
        IndexTuple((0,), (1,), (1,), (1,))


def test_haar_moment_mc_p1():
    tup = IndexTuple((1,), (1,), (1,), (1,))
    est = haar_moment_mc(2, tup, trials=40_000, seed=5)
    assert est.z_against(0.5) < 3.5
    assert abs(est.mean.imag) < 4 * est.stderr


def test_haar_moment_mc_matches_exact_p2():
    n = 3
    tup = IndexTuple((1, 2), (1, 2), (1, 2), (1, 2))
    exact = float(haar_moment(n, tup, wg_exact(n, 2)))
    est = haar_moment_mc(n, tup, trials=60_000, seed=7)
    assert est.z_against(exact) < 4


def test_haar_moment_mc_zero_case():
    tup = IndexTuple((1, 2), (1, 1), (1, 2), (1, 2))
    est = haar_moment_mc(3, tup, trials=20_000, seed=9)
    assert est.z_against(0.0) < 4


def test_haar_moment_mc_single_trial_has_no_error_estimate():
    # one sample says nothing about its spread: a zero stderr would let any
    # z-score pass
    est = haar_moment_mc(2, IndexTuple((1,), (1,), (1,), (1,)), trials=1, seed=5)
    assert math.isnan(est.stderr)
    assert math.isnan(est.z_against(0.5))


def test_haar_moment_mc_deterministic():
    tup = IndexTuple((1,), (1,), (1,), (1,))
    a = haar_moment_mc(2, tup, trials=5_000, seed=123)
    b = haar_moment_mc(2, tup, trials=5_000, seed=123)
    assert a.mean == b.mean and a.stderr == b.stderr
