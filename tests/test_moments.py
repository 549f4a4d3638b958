import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wgchan import perm
from wgchan.moments import (
    ChoiceFunction,
    ExponentReport,
    RegimeParams,
    _class_census,
    _pair_census,
    _pair_length_matrix,
    _pinched_pair_census,
    _single_census,
    asymptotic_moment_conjugate,
    choice_functions,
    choice_to_permutation,
    exact_moment_conjugate,
    exact_moment_pinched,
    minimize_S,
    minimize_S1,
    minimize_S2,
    minimize_S_pinched,
    reference_S1,
    reference_S2,
    vanishing_cancellation_check,
)
from wgchan.perm import Permutation, all_permutations, make_gamma_delta
from wgchan.weingarten import wg_exact


def brute_moment_conjugate(p, n, k, m):
    """Independent slow evaluation of the conjugate permutation sum."""
    gamma, delta, _ = make_gamma_delta(p)
    table = wg_exact(n * k, 2 * p)
    ginv = gamma.inverse()
    total = Fraction(0)
    for a_img in itertools.permutations(range(2 * p)):
        a = Permutation(a_img)
        ka = Fraction(k) ** a.num_cycles
        na = Fraction(n) ** perm.compose(a, ginv).num_cycles
        for b_img in itertools.permutations(range(2 * p)):
            b = Permutation(b_img)
            mb = Fraction(m) ** (perm.compose(b, delta).num_cycles - p)
            total += ka * na * mb * table.of(perm.compose(a, b.inverse()))
    return total


def brute_pinched_term(f, n, k):
    """One choice-function term of the pinched sum, evaluated slowly."""
    p = f.p
    _, delta, _ = make_gamma_delta(p)
    table = wg_exact(n * k, 2 * p)
    fhat_inv = choice_to_permutation(f).inverse()
    inner = Fraction(0)
    for a_img in itertools.permutations(range(2 * p)):
        a = Permutation(a_img)
        ka = Fraction(k) ** a.num_cycles
        na = Fraction(n) ** perm.compose(a, fhat_inv).num_cycles
        for b_img in itertools.permutations(range(2 * p)):
            b = Permutation(b_img)
            nb = Fraction(n) ** (perm.compose(b, delta).num_cycles - p)
            inner += ka * na * nb * table.of(perm.compose(a, b.inverse()))
    return (-1) ** f.bell_count * inner / Fraction(n) ** f.bell_count


def brute_moment_pinched(p, n, k):
    """Independent slow evaluation of the pinched sum over choice functions."""
    return sum(brute_pinched_term(f, n, k) for f in choice_functions(p))


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (3, 2, 6), (4, 3, 6), (5, 2, 5)])
def test_trace_normalization_p1(dims):
    n, k, m = dims
    assert exact_moment_conjugate(1, n, k, m) == 1


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 3, 3), (3, 2, 6)])
def test_census_matches_bruteforce_p2(dims):
    n, k, m = dims
    assert exact_moment_conjugate(2, n, k, m) == brute_moment_conjugate(2, n, k, m)


def test_census_matches_bruteforce_p1():
    assert exact_moment_conjugate(1, 4, 3, 6) == brute_moment_conjugate(1, 4, 3, 6)


def wick_moment_conjugate(p, n, k):
    """Gaussianization oracle at m = 1, with no Weingarten table: a Haar vector
    is a Gaussian vector over its norm, so E tr Z^p is the Wick sum
    sum_sigma n^{#sigma} k^{#(gamma^{-1} sigma)} over S_2p divided by the
    rising factorial (nk)(nk+1)...(nk+2p-1)."""
    gamma, _, _ = make_gamma_delta(p)
    ginv = gamma.inverse()
    wick = sum(n**s.num_cycles * k ** perm.compose(ginv, s).num_cycles for s in all_permutations(2 * p))
    rising = 1
    for j in range(2 * p):
        rising *= n * k + j
    return Fraction(wick, rising)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6))
def test_single_sum_matches_wick_oracle(p, n, k):
    assume(n * k >= 2 * p)
    assert exact_moment_conjugate(p, n, k, 1) == wick_moment_conjugate(p, n, k)
    assert exact_moment_conjugate(p, n, k, 1) == exact_moment_conjugate(p, k, n, 1)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_class_census_totals(p):
    # every wiring counts each alpha in S_2p once, so the per-class totals
    # agree across gamma and every f_hat and sum to (2p)!
    gamma, _, _ = make_gamma_delta(p)
    wirings = [gamma] + [choice_to_permutation(f) for f in choice_functions(p)]
    totals = {tuple(sum(cnt for _, _, cnt in cells) for cells in _class_census(p, w.images)) for w in wirings}
    assert len(totals) == 1
    assert sum(totals.pop()) == math.factorial(2 * p)


def test_heavy_order_four_cross_validated():
    # p = 4, the largest order the S_2p enumeration allows: frozen value cross-checked by MC
    from wgchan.montecarlo import conjugate_spec, moment_ensemble

    value = exact_moment_conjugate(4, 4, 2, 4)
    assert value == Fraction(50735, 288288)
    ens = moment_ensemble(conjugate_spec(4, 2, 4), 4, 50_000, seed=4444)
    z = abs(ens.mean(4) - float(value)) / ens.stderr(4)
    assert z < 4


def test_exact_moment_preconditions():
    with pytest.raises(ValueError):
        exact_moment_conjugate(2, 1, 1, 1)  # nk < 2p
    with pytest.raises(ValueError):
        exact_moment_conjugate(2, 3, 3, 4)  # m does not divide nk
    with pytest.raises(ValueError):
        exact_moment_conjugate(5, 16, 16, 16)  # beyond the S_2p enumeration cap


def test_wg_table_shape_checked():
    with pytest.raises(ValueError):
        exact_moment_conjugate(2, 3, 3, 3, wg=wg_exact(9, 2))


@pytest.mark.parametrize("nk", [(2, 2), (3, 3), (4, 2), (3, 2)])
def test_pinched_p1_hand_formula(nk):
    # tr(QZQ) = 1 - E tr(E Z) with E tr(E Z) = (k^2 + k n^2 - k - 1)/(N^2-1),
    # derived by brute force over the two p = 1 choice functions
    n, k = nk
    cap = n * k
    expected = 1 - Fraction(k * k + k * n * n - k - 1, cap * cap - 1)
    assert exact_moment_pinched(1, n, k) == expected


@pytest.mark.parametrize("nk", [(2, 2), (3, 2)])
def test_pinched_matches_bruteforce_p2(nk):
    n, k = nk
    assert exact_moment_pinched(2, n, k) == brute_moment_pinched(2, n, k)


def test_pinched_identity_choice_reproduces_conjugate():
    # the f == I term of the pinched sum is exactly the conjugate sum at m = n
    for n, k, p in [(2, 2, 2), (3, 2, 2)]:
        term = brute_pinched_term(ChoiceFunction(("I",) * p), n, k)
        assert term == exact_moment_conjugate(p, n, k, n)


def test_choice_function_validation():
    with pytest.raises(ValueError):
        ChoiceFunction(())
    with pytest.raises(ValueError):
        ChoiceFunction(("I", "X"))
    f = ChoiceFunction.from_string("IEI")
    assert f.p == 3 and f.bell_count == 1 and str(f) == "IEI"


def test_choice_identity_gives_gamma():
    for p in (1, 2, 3):
        gamma, _, _ = make_gamma_delta(p)
        assert choice_to_permutation(ChoiceFunction(("I",) * p)) == gamma


def test_choice_all_bell_gives_delta():
    for p in (1, 2, 3):
        _, delta, _ = make_gamma_delta(p)
        assert choice_to_permutation(ChoiceFunction(("E",) * p)) == delta


def test_choice_cycle_counts():
    for p in (2, 3):
        for f in choice_functions(p):
            fhat = choice_to_permutation(f)
            if f.bell_count == 0:
                assert fhat.num_cycles == 2
            else:
                assert fhat.num_cycles == f.bell_count


def test_vanishing_cancellation_all_of_v():
    for p in (2, 3):
        _, delta, _ = make_gamma_delta(p)
        count = 0
        for images in itertools.permutations(range(2 * p)):
            alpha = Permutation(images)
            if any(perm.compose(alpha, delta)(x) == x for x in range(2 * p)):
                count += 1
                assert vanishing_cancellation_check(p, alpha)
        assert count > 0


def test_vanishing_check_rejects_outside_v():
    gamma, _, _ = make_gamma_delta(2)
    with pytest.raises(ValueError):
        vanishing_cancellation_check(2, gamma)


TABLE_GRID = [
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(4, 3),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", TABLE_GRID, ids=str)
def test_minimizers_match_reference_tables(p, d):
    r2 = minimize_S2(p, d)
    exp_min, exp_set = reference_S2(p, d)
    assert r2.minimum == exp_min
    assert r2.minimizer_set() == exp_set
    r1 = minimize_S1(p, d)
    exp_min, exp_set = reference_S1(p, d)
    assert r1.minimum == exp_min
    assert r1.minimizer_set() == exp_set


@pytest.mark.parametrize(
    "reference, d, ends",
    [(reference_S2, 0, "delta->gtilde"), (reference_S1, 0, "delta->gamma"), (reference_S2, 2, "id->delta")],
)
def test_reference_geodesic_rows_match_the_walk(reference, d, ends):
    # the is_geodesic walk over S_8 is the oracle for the non-crossing build
    p = 4
    gamma, delta, gtilde = make_gamma_delta(p)
    named = {"id": perm.identity(2 * p), "delta": delta, "gamma": gamma, "gtilde": gtilde}
    a, c = (named[x] for x in ends.split("->"))
    walk = frozenset(b for b in all_permutations(2 * p) if perm.is_geodesic(a, b, c))
    assert reference(p, d)[1] == walk


def test_table_examples_pinned():
    # a few rows spelled out concretely
    g2, d2, gt2 = make_gamma_delta(2)
    r = minimize_S2(2, 1)
    assert r.minimum == 1 and r.minimizer_set() == frozenset({d2})
    r = minimize_S2(2, 3)
    assert r.minimum == 3 and r.minimizer_set() == frozenset({perm.identity(4)})
    r = minimize_S2(2, 0)
    assert r.minimum == -1
    assert all(perm.is_geodesic(d2, b, gt2) for b in r.minimizers)
    r = minimize_S1(2, 1)
    assert r.minimum == 2 and r.minimizer_set() == frozenset({perm.identity(4), d2, g2})
    r = minimize_S1(3, Fraction(1, 2))
    _, d3, _ = make_gamma_delta(3)
    assert r.minimum == Fraction(3, 2) and r.minimizer_set() == frozenset({d3})
    r = minimize_S1(2, Fraction(3, 2))
    assert r.minimum == 2 and r.minimizer_set() == frozenset({perm.identity(4)})


def test_interface_case_p3():
    # d = 4/3 makes p = 3 the interface order 2/(2-d), minimizers {id, delta}
    _, d3, _ = make_gamma_delta(3)
    r = minimize_S1(3, Fraction(4, 3))
    assert r.minimum == 4
    assert r.minimizer_set() == frozenset({perm.identity(6), d3})


def test_pair_search_reduces_to_s1_for_positive_d():
    for p in (2, 3):
        for d in (Fraction(1, 2), Fraction(1), Fraction(3)):
            rs = minimize_S(p, d)
            exp_min, exp_set = reference_S1(p, d)
            assert rs.minimum == exp_min
            assert all(a == b for a, b in rs.minimizers)
            assert frozenset(a for a, _ in rs.minimizers) == exp_set


def test_linear_model_exponent_bullets():
    # the generalized linear exponent is the pair problem at d = 1
    r = minimize_S(1, 1)
    assert r.minimum == 0
    assert r.minimizer_set() == frozenset({(perm.identity(2), perm.identity(2))})
    g2, d2, _ = make_gamma_delta(2)
    r = minimize_S(2, 1)
    assert r.minimum == 2
    assert frozenset(a for a, _ in r.minimizers) == frozenset({perm.identity(4), d2, g2})
    _, d3, _ = make_gamma_delta(3)
    r = minimize_S(3, 1)
    assert r.minimum == 3
    assert r.minimizer_set() == frozenset({(d3, d3)})


def test_pinched_minimization():
    for p in (2, 3):
        gp, _, _ = make_gamma_delta(p)
        r = minimize_S_pinched(p, Fraction(1, 2))
        assert r.minimum == 0 and len(r.minimizers) == 1
        f, a, b = r.minimizers[0]
        assert f.bell_count == 0 and a == gp and b == gp
        r = minimize_S_pinched(p, Fraction(3, 2))
        assert r.minimum == 0 and len(r.minimizers) == 1
        f, a, b = r.minimizers[0]
        assert f.bell_count == 0 and a == perm.identity(2 * p) and b == perm.identity(2 * p)


def test_pinched_minimization_domain():
    with pytest.raises(ValueError):
        minimize_S_pinched(2, 1)
    with pytest.raises(ValueError):
        minimize_S_pinched(4, Fraction(1, 2))


def test_minimize_caps():
    with pytest.raises(ValueError):
        minimize_S(4, 1)
    with pytest.raises(ValueError):
        minimize_S1(5, 1)


def test_minimizers_attain_minimum():
    # recompute S1 by hand at each reported minimizer
    p, d = 3, Fraction(1, 2)
    gamma, delta, _ = make_gamma_delta(p)
    r = minimize_S1(p, d)
    for b in r.minimizers:
        value = (
            d * b.length()
            + perm.compose(b, gamma.inverse()).length()
            + perm.compose(b, delta).length()
            - p
        )
        assert value == r.minimum


@lru_cache(maxsize=None)
def _brute_points(problem, p):
    """Every domain point of a minimization with the lengths its documented
    objective reads, from `Permutation` arithmetic alone, in the documented
    minimizer order: S_2p in `all_permutations` order, pairs row-major, and
    pinched triples choice function first, alpha outside V."""
    gamma, delta, gtilde = make_gamma_delta(p)
    perms = list(all_permutations(2 * p))
    if problem in ("S1", "S2"):
        target = (gamma if problem == "S1" else gtilde).inverse()
        return [(b, (b.length(), (b * target).length(), (b * delta).length())) for b in perms]
    if problem == "S":
        ginv = gamma.inverse()
        return [
            ((a, b), (a.length(), (a * ginv).length(), (b * delta).length(), (a * b.inverse()).length()))
            for a in perms
            for b in perms
        ]
    outside_v = [a for a in perms if all((a * delta)(x) != x for x in range(2 * p))]
    return [
        (
            (f, a, b),
            ((b * delta).length(), a.length(), (a * b.inverse()).length(), f.bell_count,
             (a * choice_to_permutation(f).inverse()).length()),
        )
        for f in choice_functions(p)
        for a in outside_v
        for b in perms
    ]


def _brute_objective(problem, p, d, x):
    if problem in ("S1", "S2"):
        return d * x[0] + x[1] + x[2] - p
    if problem == "S":
        return d * x[0] + x[1] + x[2] + (d + 1) * x[3] - p
    const = -p * (2 * d + 1) + 2 * d if d < 1 else -3 * p + 2
    return x[0] + d * x[1] + (d + 1) * x[2] + x[3] + x[4] + const


_MINIMIZE = {"S1": minimize_S1, "S2": minimize_S2, "S": minimize_S, "S_pinched": minimize_S_pinched}
_ANY_D = st.fractions(min_value=-3, max_value=4, max_denominator=6)
_PINCHED_D = st.fractions(min_value=0, max_value=2, max_denominator=12).filter(lambda d: d not in (0, 1, 2))


@pytest.mark.parametrize(
    "problem, p", [("S1", 1), ("S1", 2), ("S1", 3), ("S2", 1), ("S2", 2), ("S2", 3), ("S", 1), ("S", 2),
                   ("S_pinched", 1), ("S_pinched", 2)]
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_minimizations_match_bruteforce_objectives(problem, p, data):
    # the whole report, minimizer order included, against the documented
    # objective evaluated point by point in Fractions
    d = data.draw(_PINCHED_D if problem == "S_pinched" else _ANY_D)
    values = [(point, _brute_objective(problem, p, d, x)) for point, x in _brute_points(problem, p)]
    minimum = min(v for _, v in values)
    want = ExponentReport(problem, p, d, minimum, tuple(point for point, v in values if v == minimum))
    assert _MINIMIZE[problem](p, d) == want


def _tie_probes(census):
    """0, every positive d at which two classes of `census` tie, the
    midpoints between consecutive ones, and one point past the last: the
    minimizer set is constant between tie points, so these cover all d >= 0."""
    ties = sorted(
        {Fraction(bj - bi, ai - aj) for (ai, bi), (aj, bj) in itertools.combinations(census.classes, 2) if ai != aj}
    )
    ties = [t for t in ties if t > 0]
    mids = [(x + y) / 2 for x, y in zip([Fraction(0), *ties], ties)]
    return [Fraction(0), *ties, *mids, (ties[-1] if ties else 0) + 1]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_reference_tables_hold_for_every_d(p):
    gamma, _, gtilde = make_gamma_delta(p)
    for minimize, reference, target in ((minimize_S1, reference_S1, gamma), (minimize_S2, reference_S2, gtilde)):
        for d in _tie_probes(_single_census(p, target)):
            report = minimize(p, d)
            assert (report.minimum, report.minimizer_set()) == reference(p, d), (minimize.__name__, p, d)


def test_minimization_caches_are_read_only():
    gamma, _, _ = make_gamma_delta(2)
    pinched, rows, choices = _pinched_pair_census(2)
    arrays = [_pair_length_matrix(2), rows, choices]
    for census in (_single_census(2, gamma), _pair_census(2), pinched):
        arrays += [census.points, census.start]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0


def test_rescaled_p2_moment_trend_b1():
    # (c n)^2 E tr Z^2 -> 2 + c^2 at m = n; deviations shrink with n
    c = 2
    deviations = []
    for n in (4, 6, 8):
        val = exact_moment_conjugate(2, n, c * n, n)
        deviations.append(abs(val * (c * n) ** 2 - (2 + c * c)))
    assert deviations[0] > deviations[1] > deviations[2]


def test_exact_over_asymptotic_ratio_to_one():
    regime = RegimeParams(c=1, d=1, b=1)
    pred = asymptotic_moment_conjugate(2, regime)
    devs = []
    for n in (8, 16, 32):
        exact = float(exact_moment_conjugate(2, n, n, n))
        devs.append(abs(exact / pred.value(n, n) - 1.0))
    assert devs[0] > devs[1] > devs[2]


def test_asymptotic_p1_is_exact():
    pred = asymptotic_moment_conjugate(1, RegimeParams(c=1, d=Fraction(1, 2)))
    assert pred.value(100, 10) == 1.0


def test_asymptotic_d0_matches_two_level_spectrum():
    c = 3
    pred = asymptotic_moment_conjugate(2, RegimeParams(c=c, d=0))
    top = 1 / c + 1 / c**2 - 1 / c**3
    low = 1 / c**2 - 1 / c**3
    assert pred.value(10**6) == pytest.approx(top**2 + (c * c - 1) * low**2, rel=1e-12)


def test_asymptotic_d0_general_t():
    pred = asymptotic_moment_conjugate(3, RegimeParams(c=2, d=0, t=Fraction(1, 2)))
    top, low = 0.625, 0.125
    assert pred.coefficient == pytest.approx(top**3 + 3 * low**3, rel=1e-12)


def test_asymptotic_cases_d_between_0_and_1():
    regime = RegimeParams(c=1, d=Fraction(1, 2))
    p2 = asymptotic_moment_conjugate(2, regime)
    assert p2.coefficient == 2.0 and p2.k_power == -2
    p3 = asymptotic_moment_conjugate(3, regime)
    assert p3.coefficient == 1.0 and p3.k_power == -3


def test_asymptotic_interface_case():
    # d in (1,2): split at p = 2/(2-d); at the interface the coefficient is
    # 1 + c^-p at scale n^-dp
    d = Fraction(3, 2)
    regime = RegimeParams(c=2.0, d=d)
    interface = asymptotic_moment_conjugate(4, regime)
    assert interface.coefficient == pytest.approx(1 + 2.0**-4)
    assert interface.n_power == -d * 4
    below = asymptotic_moment_conjugate(3, regime)
    assert below.n_power == -4 and below.coefficient == 1.0
    above = asymptotic_moment_conjugate(5, regime)
    assert above.k_power == -5


def test_asymptotic_d_geq_2():
    regime = RegimeParams(c=1, d=3)
    for p in (2, 3, 5):
        pred = asymptotic_moment_conjugate(p, regime)
        assert pred.coefficient == 1.0 and pred.n_power == -(2 * p - 2)


def test_asymptotic_linear_with_b():
    b, c = Fraction(2), Fraction(3)
    pred = asymptotic_moment_conjugate(2, RegimeParams(c=c, d=1, b=b))
    # rescaled contributions: id -> c^2/b^2, delta -> 1, gamma -> 1/b^2
    assert dict(pred.terms) == {
        "id": pytest.approx(9 / 4),
        "delta": pytest.approx(1.0),
        "gamma": pytest.approx(1 / 4),
    }
    # rescaled second moment (c n / b)^2 E tr Z^2 -> 1 + 1/b^2 + c^2/b^2
    assert pred.coefficient * (float(c) / float(b)) ** 2 == pytest.approx(1 + 1 / 4 + 9 / 4)
    assert asymptotic_moment_conjugate(3, RegimeParams(c=c, d=1, b=b)).coefficient == pytest.approx((2 / 3) ** 3)


def test_nonlinear_regime_rejects_b():
    with pytest.raises(ValueError):
        asymptotic_moment_conjugate(2, RegimeParams(c=1, d=2, b=2))


def test_regime_validation():
    with pytest.raises(ValueError):
        RegimeParams(c=0)
    with pytest.raises(ValueError):
        RegimeParams(c=1, d=-1)
    with pytest.raises(ValueError):
        RegimeParams(c=1, t=2)
