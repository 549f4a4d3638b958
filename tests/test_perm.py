import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgchan import perm
from wgchan.perm import (
    CycleType,
    LabeledIndex,
    Permutation,
    all_permutations,
    catalan,
    compose,
    distance,
    geodesics,
    group_table,
    identity,
    index_of,
    is_geodesic,
    make_gamma_delta,
    mobius,
    partitions,
    transposition,
)

RNG = np.random.default_rng(20240817)


def test_composition_convention_pinned():
    # (0 1) composed with (1 2) under "a(b(x))" is the 3-cycle 0->1->2->0
    a = transposition(3, 0, 1)
    b = transposition(3, 1, 2)
    c = compose(a, b)
    assert c.images == (1, 2, 0)
    assert c(0) == 1 and c(1) == 2 and c(2) == 0


def test_compose_identity_and_inverse():
    a = Permutation((2, 0, 3, 1))
    assert compose(identity(4), a) == a
    assert compose(a, identity(4)) == a
    assert compose(a, a.inverse()).is_identity()
    assert compose(a.inverse(), a).is_identity()


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))


@pytest.mark.parametrize(
    "images,parts",
    [
        ((0, 1, 2, 3), (1, 1, 1, 1)),
        ((1, 0, 2, 3), (2, 1, 1)),
        ((1, 2, 3, 0), (4,)),
    ],
)
def test_cycle_type_examples(images, parts):
    assert Permutation(images).cycle_type().parts == parts


def test_length_examples():
    assert identity(5).length() == 0
    assert transposition(5, 1, 3).length() == 1
    assert Permutation((1, 2, 3, 4, 0)).length() == 4


def test_length_plus_cycles_is_degree():
    for _ in range(50):
        m = int(RNG.integers(1, 9))
        a = perm.random_permutation(m, RNG)
        assert a.length() + a.num_cycles == m


def test_cycle_type_conjugation_invariant():
    for _ in range(30):
        m = int(RNG.integers(2, 8))
        a = perm.random_permutation(m, RNG)
        g = perm.random_permutation(m, RNG)
        assert perm.conjugate(g, a).cycle_type() == a.cycle_type()


def test_mobius_values():
    assert mobius(identity(4)) == 1
    assert mobius(transposition(4, 0, 2)) == -1
    assert mobius(perm.from_cycles(3, [(0, 1, 2)])) == 2
    # 4-cycle: -catalan(3) = -5; product over a [3,2] type: 2 * -1
    assert mobius(perm.from_cycles(4, [(0, 1, 2, 3)])) == -5
    assert mobius(perm.from_cycles(5, [(0, 1, 2), (3, 4)])) == -2


def test_mobius_is_class_function():
    base = perm.from_cycles(6, [(0, 1, 2), (3, 4)])
    val = mobius(base)
    for _ in range(20):
        g = perm.random_permutation(6, RNG)
        assert mobius(perm.conjugate(g, base)) == val


def test_metric_symmetry_and_triangle():
    for _ in range(40):
        m = int(RNG.integers(2, 8))
        a, b, c = (perm.random_permutation(m, RNG) for _ in range(3))
        assert distance(a, b) == distance(b, a)
        assert distance(a, c) <= distance(a, b) + distance(b, c)


def test_delta_involution_length_symmetry():
    # |alpha delta| == |alpha^{-1} delta| because delta is an involution
    for p in (1, 2, 3):
        _, delta, _ = make_gamma_delta(p)
        for _ in range(20):
            a = perm.random_permutation(2 * p, RNG)
            assert compose(a, delta).length() == compose(a.inverse(), delta).length()


def test_make_gamma_delta_small_p():
    g1, d1, gt1 = make_gamma_delta(1)
    assert g1.is_identity()
    assert g1.cycle_type().parts == (1, 1)
    assert d1.cycle_type().parts == (2,)
    g2, d2, gt2 = make_gamma_delta(2)
    assert d2.cycle_type().parts == (2, 2)
    assert gt2.cycle_type().parts == (4,)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_gamma_delta_structure(p):
    gamma, delta, gtilde = make_gamma_delta(p)
    assert compose(delta, delta).is_identity()
    assert gtilde.cycle_type().parts == (2 * p,)
    assert gamma.cycle_type().parts == ((p, p) if p > 1 else (1, 1))
    # gamma and gamma_tilde are at distance one: gamma applies gamma_tilde
    # first and then the transposition (1^B p^T)
    swap = transposition(2 * p, p - 1, 2 * p - 1)  # positions of 1^B and p^T
    assert compose(swap, gtilde) == gamma
    assert distance(gamma, gtilde) == 1
    # delta lies on the geodesic from the identity to gamma_tilde
    assert is_geodesic(identity(2 * p), delta, gtilde)


def test_make_gamma_delta_rejects_bad_p():
    with pytest.raises(ValueError):
        make_gamma_delta(0)


def test_is_geodesic_trivia():
    ident = identity(4)
    c = Permutation((1, 2, 3, 0))
    assert is_geodesic(ident, ident, c)
    assert is_geodesic(ident, c, c)
    x = transposition(4, 0, 1)
    assert not is_geodesic(ident, x, ident)


def test_is_geodesic_delta_between_id_and_gtilde_p2():
    _, delta, gtilde = make_gamma_delta(2)
    assert is_geodesic(identity(4), delta, gtilde)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_geodesics_match_brute_force(data):
    # the is_geodesic walk over S_m is the oracle for the non-crossing build
    m = data.draw(st.integers(1, 6))
    a, c = (Permutation(tuple(data.draw(st.permutations(range(m))))) for _ in range(2))
    got = geodesics(a, c)
    assert got == frozenset(b for b in all_permutations(m) if is_geodesic(a, b, c))
    assert len(got) == math.prod(catalan(len(cyc)) for cyc in compose(a.inverse(), c).cycles())


def test_enumerate_counts():
    assert len(list(all_permutations(1))) == 1
    elems = list(all_permutations(3))
    assert len(elems) == 6
    assert len(set(elems)) == 6
    elems4 = list(all_permutations(4))
    assert len(elems4) == 24
    assert len(set(elems4)) == 24


def test_enumerate_cap():
    with pytest.raises(ValueError):
        all_permutations(9)


def test_labeled_index_bijection():
    p = 3
    # layout: p^B ... 1^B 1^T ... p^T
    assert LabeledIndex.from_label(3, "B", p).position == 0
    assert LabeledIndex.from_label(1, "B", p).position == p - 1
    assert LabeledIndex.from_label(1, "T", p).position == p
    assert LabeledIndex.from_label(3, "T", p).position == 2 * p - 1
    for pos in range(2 * p):
        lab = LabeledIndex.from_position(pos, p)
        assert LabeledIndex.from_label(lab.index, lab.block, p).position == pos


def test_labeled_index_validation():
    with pytest.raises(ValueError):
        LabeledIndex.from_label(0, "T", 2)
    with pytest.raises(ValueError):
        LabeledIndex.from_label(1, "X", 2)
    with pytest.raises(ValueError):
        LabeledIndex.from_position(4, 2)


def test_cycle_type_validation():
    with pytest.raises(ValueError):
        CycleType((1, 2))
    with pytest.raises(ValueError):
        CycleType((2, 0))
    ct = CycleType((3, 1))
    assert ct.degree == 4 and ct.num_cycles == 2 and ct.length == 2
    assert str(ct) == "3+1"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_table_matches_permutation_objects(data):
    # Permutation objects are the independent oracle for every array field
    m = data.draw(st.integers(1, 8))
    table = group_table(m)
    i, j = (data.draw(st.integers(0, math.factorial(m) - 1)) for _ in range(2))
    a = Permutation(tuple(int(x) for x in table.perms[i]))
    b = Permutation(tuple(int(x) for x in table.perms[j]))
    assert table.ncycles[i] == a.num_cycles
    assert partitions(m)[table.cls[i]] == a.cycle_type().parts
    # the inverse rows that the pair problems' |alpha beta^{-1}| reads
    assert tuple(int(x) for x in np.argsort(table.perms[i])) == a.inverse().images
    composed = index_of(table.perms[i][table.perms[j]][None, :])[0]
    assert tuple(int(x) for x in table.perms[composed]) == compose(a, b).images


@pytest.mark.parametrize("m", range(0, 7))
def test_group_table_cycle_types_every_element(m):
    # the array orbit count against Permutation's cycle walk, element by element
    table = group_table(m)
    walked = [Permutation(tuple(int(x) for x in row)) for row in table.perms]
    assert [p.num_cycles for p in walked] == table.ncycles.tolist()
    assert [p.cycle_type().parts for p in walked] == [partitions(m)[c] for c in table.cls]
