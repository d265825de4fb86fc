import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul

import pytest

from adideals.rootsys import AffineRoot, Root, build
from adideals import affine as A
from adideals import ideals as I
from adideals import lattice_count as L
from helpers import (
    affine_inverse, affine_product, affine_simple_data_by_pairing, all_words,
    congruence_filter, d_max_contains_by_bilinear, d_min_contains_by_bilinear, full_weyl_group,
    in_weyl_group_by_columns, is_root, matrix_element_from_word, matrix_inverse,
    matrix_product, matrix_simple_reflection, peel_element_from_inversions,
    peel_reduced_word, prescribed_inversions, shi_region_contains_by_bilinear,
    solve_base_system, systems_up_to,
)


def heis(rs):
    return I.Ideal(rs, I.heisenberg_root_mask(rs))


def test_action_examples():
    rs = build("A", 2)
    e = A.element_from_word(rs, [])
    a0 = A.simple_affine_root(rs, 0)
    assert A.act_affine_root(e, a0) == a0
    s0 = A.element_from_word(rs, [0])
    assert A.act_affine_root(s0, a0) == -a0
    t = A.translation(rs, (2, 1))
    assert A.act_point(t, (0, 0)) == (Fraction(2), Fraction(1))


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G2", 2)])
def test_simple_root_images_match_closed_form(label, rank):
    # w^{-1}(alpha_i) = v^{-1}(alpha_i) + (alpha_i, v(r)) delta, and
    # w^{-1}(alpha_0) = -v^{-1}(theta) + (1 - (theta, v(r))) delta
    rs = build(label, rank)
    for word in all_words(rs, 4):
        w = A.element_from_word(rs, word)
        winv = w.inverse()
        vinv = matrix_inverse(w.v)
        vr = w.v.act(w.r)
        for i in range(1, rs.rank + 1):
            img = A.act_affine_root(winv, A.simple_affine_root(rs, i))
            alpha = rs.alpha(i - 1)
            assert img.finite == vinv.act(alpha.coords)
            assert img.level == rs.pair_root_coroot(alpha.coords, vr)
        img0 = A.act_affine_root(winv, A.simple_affine_root(rs, 0))
        assert img0.finite == tuple(-c for c in vinv.act(rs.theta_coords))
        assert img0.level == 1 - rs.pair_root_coroot(rs.theta_coords, vr)


def test_inversion_set_examples():
    rs = build("A", 2)
    assert A.inversion_set(A.element_from_word(rs, [])) == []
    s0 = A.element_from_word(rs, [0])
    assert A.inversion_set(s0) == [AffineRoot(1, (-1, -1))]


@pytest.mark.parametrize("label,rank", [("A", 2), ("C", 2), ("G2", 2)])
def test_inversion_count_is_length(label, rank):
    rs = build(label, rank)
    for word in all_words(rs, 5):
        w = A.element_from_word(rs, word)
        ell = A.length(w)
        assert ell == len(A.inversion_set(w))
        assert ell <= len(word)
        assert len(A.reduced_word(w)) == ell
        assert A.element_from_word(rs, A.reduced_word(w)) == w


def test_w_min_inversions_follow_l_values():
    rs = build("B", 3)
    for ideal in I.enumerate_ideals(rs):
        lt = I._l_table(ideal)
        w = A.w_min(ideal)
        expected = {
            (m, tuple(-c for c in rs.positive_roots[idx].coords))
            for idx in I._iter_bits(ideal.mask)
            for m in range(1, lt[idx] + 1)
        }
        assert {(b.level, b.finite) for b in A.inversion_set(w)} == expected


def test_dominance():
    rs = build("A", 2)
    assert A.is_dominant(A.element_from_word(rs, []))
    assert A.is_dominant(A.element_from_word(rs, [0]))
    assert not A.is_dominant(A.element_from_word(rs, [1]))


@pytest.mark.parametrize("label,rank", systems_up_to(3))
def test_dominant_translation_part_is_antidominant(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        w = A.w_min(ideal)
        for i in range(rs.rank):
            assert rs.bilinear(rs.alpha(i).coords, w.r) <= 0


def test_w_min_examples():
    rs = build("A", 2)
    assert A.w_min(I.Ideal(rs, 0)).is_identity()
    just_theta = I.ideal_of(I.Antichain(rs, [rs.theta]))
    assert A.w_min(just_theta) == A.element_from_word(rs, [0])
    product = (
        A.finite_element(rs, A.reflection(rs, rs.theta))
        * A.element_from_word(rs, [0])
    )
    assert A.w_min(heis(rs)) == product


def test_w_max_examples():
    rs = build("A", 2)
    assert A.w_max(I.Ideal(rs, 0)).is_identity()
    just_theta = I.ideal_of(I.Antichain(rs, [rs.theta]))
    assert A.w_max(just_theta) == A.w_min(just_theta)
    with pytest.raises(ValueError, match="strictly positive"):
        A.w_max(I.Ideal(rs, (1 << rs.num_positive) - 1))


def test_f4_w_max_length_15():
    rs = build("F4", 4)
    ideal = I.ideal_of(
        I.Antichain(rs, [Root((0, 2, 1, 1)), Root((2, 2, 1, 0))])
    )
    assert ideal.size == 12
    assert I.power(ideal, 2).size == 3
    w = A.w_max(ideal)
    assert A.length(w) == 15
    assert A.w_min(ideal) == w


def test_minimal_maximal_flags():
    rs = build("A", 2)
    e = A.element_from_word(rs, [])
    assert A.is_minimal(e) and A.is_maximal(e) and A.is_minimax_element(e)
    s0 = A.element_from_word(rs, [0])
    assert A.is_minimax_element(s0)

    rs1 = build("A", 1)
    w = A.w_min(I.Ideal(rs1, (1 << rs1.num_positive) - 1))  # the ideal {theta} = {alpha_1}
    assert A.is_minimal(w) and not A.is_maximal(w)


def test_first_layer_examples():
    rs = build("A", 2)
    assert A.first_layer_ideal(A.element_from_word(rs, [])) == I.Ideal(rs, 0)
    s0 = A.element_from_word(rs, [0])
    assert A.first_layer_ideal(s0).members() == [rs.theta]
    assert A.first_layer_ideal(A.w_min(heis(rs))) == heis(rs)
    with pytest.raises(ValueError, match="dominant"):
        A.first_layer_ideal(A.element_from_word(rs, [1]))


def test_generators_via_w_exhaustive_a3():
    rs = build("A", 3)
    for ideal in I.enumerate_ideals(rs):
        w = A.w_min(ideal)
        assert A.generators_via_w(w) == I.generators(ideal)


def test_xi_via_w_exhaustive_b3():
    rs = build("B", 3)
    for ideal in I.enumerate_ideals(rs, "strictly_positive"):
        w = A.w_max(ideal)
        assert A.xi_via_w(w) == I.xi(ideal)
    e = A.element_from_word(rs, [])
    assert A.generators_via_w(e).roots == ()
    assert A.xi_via_w(e).roots == (rs.theta,)


def test_via_w_preconditions():
    rs = build("A", 2)
    not_min = A.element_from_word(rs, [1])
    with pytest.raises(ValueError, match="minimal"):
        A.generators_via_w(not_min)
    with pytest.raises(ValueError, match="maximal"):
        A.xi_via_w(not_min)


def test_rootlet_examples():
    rs = build("A", 2)
    nu, m = A.rootlet(A.element_from_word(rs, [0]))
    assert nu == rs.theta and m == 1

    rs5 = build("A", 5)
    ideal = I.ideal_of(
        I.Antichain(rs5, [Root((1, 1, 0, 0, 0)), Root((0, 0, 1, 1, 0))])
    )
    assert I.is_minimax(ideal)
    nu, m = A.rootlet(A.w_min(ideal))
    assert nu == Root((-1, -1, -1, 0, 0))


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_rootlet_constraints(label, rank):
    rs = build(label, rank)
    minus_simples = {tuple(-c for c in a.coords) for a in rs.simple_roots()}
    simples = {a.coords for a in rs.simple_roots()}
    for ideal in I.enumerate_ideals(rs):
        w = A.w_min(ideal)
        nu, m = A.rootlet(w)
        assert rs.bilinear(nu.coords, nu.coords) == 2  # rootlets are long
        if not w.is_identity():
            assert m >= 1
            assert nu.coords not in minus_simples
        if I.is_strictly_positive(ideal):
            nu_max, m_max = A.rootlet(A.w_max(ideal))
            if not A.w_max(ideal).is_identity():
                assert m_max >= 1
            assert nu_max.coords not in simples


def _window_roots(rs, max_level):
    out = set()
    for root in rs.positive_roots:
        out.add((0, root.coords))
        for k in range(1, max_level + 1):
            out.add((k, root.coords))
            out.add((k, tuple(-c for c in root.coords)))
    return out


def _assert_biconvex(rs, inv):
    items = {(b.level, b.finite) for b in inv}
    for (k1, m1), (k2, m2) in itertools.combinations(items, 2):
        s = tuple(a + b for a, b in zip(m1, m2))
        if is_root(rs, s):
            assert (k1 + k2, s) in items, "inversion set not closed under addition"
    max_level = max((k for k, _ in items), default=0) + 1
    window = _window_roots(rs, max_level)
    comp = window - items
    for (k1, m1), (k2, m2) in itertools.combinations(comp, 2):
        s = tuple(a + b for a, b in zip(m1, m2))
        if is_root(rs, s):
            assert (k1 + k2, s) not in items, "complement not closed under addition"


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("C", 3), ("G2", 2)])
def test_biconvexity_of_min_max_inversions(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        _assert_biconvex(rs, A.inversion_set(A.w_min(ideal)))
        if I.is_strictly_positive(ideal):
            _assert_biconvex(rs, A.inversion_set(A.w_max(ideal)))


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_length_equals_sum_of_power_sizes(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        total = 0
        k = 1
        while True:
            size = I.power(ideal, k).size
            if not size:
                break
            total += size
            k += 1
        assert A.length(A.w_min(ideal)) == total


def test_lattice_image_examples():
    rs = build("A", 2)
    assert A.lattice_image(A.element_from_word(rs, [])) == (0, 0)


@pytest.mark.parametrize("label,rank", systems_up_to(3))
def test_lattice_images_land_in_polytopes(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        x = A.lattice_image(A.w_min(ideal))
        assert rs.in_coroot_lattice(x)
        assert L.d_min_contains(rs, x)
        if I.is_strictly_positive(ideal):
            xm = A.lattice_image(A.w_max(ideal))
            assert L.d_max_contains(rs, xm)
            if I.is_minimax(ideal):
                assert L.d_mm_contains(rs, x)


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_minimax_images_exhaust_d_mm_lattice_points(label, rank):
    rs = build(label, rank)
    images = set()
    for ideal in I.enumerate_ideals(rs, "minimax"):
        images.add(tuple(map(Fraction, A.lattice_image(A.w_min(ideal)))))
    points = set()
    for y in solve_base_system(rs):
        x = L.coweight_point(rs, y)
        if rs.in_coroot_lattice(x):
            points.add(x)
    assert images == points
    assert len(images) == L.count_minimax(rs).value  # the map is injective


def test_alcove_barycenter():
    rs = build("A", 2)
    b = A.alcove_barycenter(rs)
    assert all(rs.bilinear(b, a.coords) > 0 for a in rs.simple_roots())
    assert rs.bilinear(b, rs.theta_coords) < 1


def test_barycenter_lands_in_shi_region():
    rs4 = build("A", 4)
    ideal = I.ideal_of(
        I.Antichain(rs4, [Root((1, 1, 0, 0)), Root((0, 0, 1, 1))])
    )
    assert I.is_minimax(ideal)
    x = A.alcove_image_barycenter(A.w_min(ideal))
    assert I.shi_region_contains(ideal, x)

    rs = build("A", 2)
    h = heis(rs)
    x = A.alcove_image_barycenter(A.w_min(h))
    for idx, root in enumerate(rs.positive_roots):
        val = rs.bilinear(x, root.coords)
        assert (val > 1) == bool(h.mask >> idx & 1)


@pytest.mark.parametrize("label,rank", systems_up_to(5))
def test_point_tests_match_the_per_root_pairings_at_barycenters(label, rank):
    # at the barycenter of w_min(I)^{-1} A, inside the Shi region of I, and
    # for the next ideal in enumeration order, mostly outside it
    rs = build(label, rank)
    ideals = list(I.enumerate_ideals(rs))
    for ideal, other in zip(ideals, ideals[1:] + ideals[:1]):
        x = A.alcove_image_barycenter(A.w_min(ideal))
        assert I.shi_region_contains(ideal, x) and shi_region_contains_by_bilinear(ideal, x)
        assert I.shi_region_contains(other, x) == shi_region_contains_by_bilinear(other, x)
        assert L.d_min_contains(rs, x) == d_min_contains_by_bilinear(rs, x)
        assert L.d_max_contains(rs, x) == d_max_contains_by_bilinear(rs, x)
        assert L.d_mm_contains(rs, x) == (d_min_contains_by_bilinear(rs, x)
                                          and d_max_contains_by_bilinear(rs, x))


def test_element_from_inversions_rejects_non_biconvex_set():
    rs = build("A", 2)
    # delta - alpha_1 alone is not an inversion set: no simple root in it
    bad = [AffineRoot(1, (-1, 0))]
    with pytest.raises(ValueError, match="bi-convex"):
        A.element_from_inversions(rs, bad)


@pytest.mark.parametrize("roots", [
    # holds the negative root -alpha_1; the peel oracle returns the identity
    [AffineRoot(0, (1, 0)), AffineRoot(0, (-1, 0))],
    # alpha_1 + alpha_2 is missing
    [AffineRoot(0, (1, 0)), AffineRoot(0, (0, 1))],
    # alpha_0 + alpha_1 = delta - alpha_2 is missing
    [AffineRoot(1, (-1, -1)), AffineRoot(0, (1, 0))],
], ids=["negative-root", "not-closed", "not-closed-affine"])
def test_element_from_inversions_rejects_non_inversion_sets(roots):
    with pytest.raises(ValueError, match="bi-convex"):
        A.element_from_inversions(build("A", 2), roots)


def test_image_walk_rejects_a_level_table_that_is_no_inversion_set():
    rs = build("A", 2)
    # {delta - alpha_1} again, as levels
    levels = [int(mu == rs.alpha(0)) for mu in rs.positive_roots]
    with pytest.raises(ValueError, match="bi-convex"):
        A._walk(rs, A._level_set(rs, levels))


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_image_walk_ends_at_the_images_of_the_grown_inverse(label, rank):
    # w_max's k-table levels: the record route only ever walks w_min's
    rs = build(label, rank)
    weights = A._affine_simple_data(rs)[0]
    for ideal in I.enumerate_ideals(rs, "strictly_positive"):
        levels = [k - 1 for k in I._k_table(ideal)]
        w_inv = A._grow_to_levels(rs, levels).inverse()
        images = [A.act_affine_root(w_inv, A.simple_affine_root(rs, j))
                  for j in range(rank + 1)]
        assert A._walk(rs, A._level_set(rs, levels))[0] == [
            sum(map(mul, (b.level,) + b.finite, weights)) for b in images]


@pytest.mark.parametrize("label,rank", systems_up_to(6) + [("E7", 7), ("E8", 8)])
def test_d_min_walk_matches_the_dfs_and_the_image_route(label, rank):
    # one point per ideal, and every field as the image route and the
    # l-table give it, which stay the oracle; on E8 the fields of every
    # 25th ideal in walk order, which keeps the test near 2 s
    rs = build(label, rank)
    fields = A._d_min_fields(rs)
    ideals = list(I.enumerate_ideals(rs))
    assert sum(1 for _ in A._d_min_points(rs)) == len(fields) == L.count_AD(rs).value
    assert set(fields) == {ideal.mask for ideal in ideals}
    for ideal in ideals[::25 if label == "E8" else 1]:
        lt = I._l_table(ideal)
        assert fields[ideal.mask] == A._w_min_fields(ideal, lt) + (sum(filter(None, lt)),)


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_d_min_points_are_the_coroot_points_of_d_min(label, rank):
    # against a sweep of the coweight box, filtered by the polytope test and
    # by the per-type congruences
    rs = build(label, rank)
    h, marks = rs.coxeter_number, rs.theta_coords
    box = itertools.product(*(range(-1, (h + 1) // c) for c in marks))
    swept = sorted(
        y for y in box
        if L.d_min_contains(rs, L.coweight_point(rs, y))
        and congruence_filter(rs, (None,) + y))
    walked = [tuple(y) for y in A._d_min_points(rs)]
    assert sorted(walked) == swept
    assert all(rs.in_coroot_lattice(L.coweight_point(rs, y)) for y in walked)


@pytest.mark.parametrize("label,rank", systems_up_to(8, exceptional=False)
                         + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7)])
def test_d_min_walk_keeps_exactly_the_coroot_points(label, rank):
    # an oracle that reads no congruence: every kept point lies in Q^vee by
    # its root coordinates, no point repeats, and there are #AD of them, the
    # number of points of D_min cap Q^vee.  E8, whose coweight lattice is
    # Q^vee, is counted by the walk test above
    rs = build(label, rank)
    walked = [tuple(y) for y in A._d_min_points(rs)]
    assert all(rs.in_coroot_lattice(L.coweight_point(rs, y)) for y in walked)
    assert len(set(walked)) == len(walked) == L.count_AD(rs).value


@pytest.mark.parametrize("label,rank", systems_up_to(8)
                         + [("A", 20), ("B", 15), ("C", 15), ("D", 16)])
def test_affine_simple_data_matches_the_pairing_construction(label, rank):
    rs = build(label, rank)
    assert A._affine_simple_data(rs) == affine_simple_data_by_pairing(rs)
    # the neighbours of alpha_0 that the record route reads, with (alpha_i, theta)
    neighbours = [(A._SHIFT * (rank - 1 - i), c) for i, a in enumerate(rs.simple_roots())
                  if (c := rs.pair_root_coroot(a.coords, rs.theta_coords))]
    shift, got = A._image_record_data(rs)
    assert shift == A._SHIFT * rank
    assert [(s, c) for s, _, c in got] == neighbours


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_element_from_inversions_matches_peel_oracle(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        oracle = peel_element_from_inversions(rs, prescribed_inversions(ideal))
        assert A.w_min(ideal) == oracle
        if I.is_strictly_positive(ideal):
            oracle = peel_element_from_inversions(
                rs, prescribed_inversions(ideal, maximal=True))
            assert A.w_max(ideal) == oracle


def test_w_min_and_w_max_build_no_affine_roots(monkeypatch):
    rs = build("E7", 7)
    ideal = heis(rs)
    A._affine_simple_data(rs)

    def fail(*args):
        raise AssertionError("an AffineRoot was built")

    monkeypatch.setattr(A, "AffineRoot", fail)
    w = A.w_min(ideal)
    assert A.length(w) == sum(filter(None, I._l_table(ideal)))
    assert A.first_layer_ideal(w) == ideal
    strict = I.Ideal(rs, ideal.mask & ~rs.simple_mask)
    assert A.first_layer_ideal(A.w_max(strict)) == strict


def test_e6_w_min_inversion_sets_and_first_layers():
    rs = build("E6", 6)
    seen = 0
    for ideal in I.enumerate_ideals(rs):
        w = A.w_min(ideal)
        expected = {(b.level, b.finite) for b in prescribed_inversions(ideal)}
        assert {(b.level, b.finite) for b in A.inversion_set(w)} == expected
        assert A.length(w) == len(expected)
        assert A.first_layer_ideal(w) == ideal
        assert A.reduced_word(w) == peel_reduced_word(w)
        seen += 1
    assert seen == 833


@pytest.mark.parametrize("label,rank,max_len", [
    ("A", 2, 5), ("B", 2, 5), ("C", 2, 5), ("G2", 2, 5),
    ("A", 3, 4), ("B", 3, 4), ("C", 3, 4), ("D", 4, 3),
])
def test_element_from_word_matches_matrix_oracle(label, rank, max_len):
    # every word, reduced or not
    rs = build(label, rank)
    for word in all_words(rs, max_len):
        assert A.element_from_word(rs, word) == matrix_element_from_word(rs, word)


@pytest.mark.parametrize("label,rank", [
    ("A", 30), ("D", 24), ("B", 15), ("C", 15), ("E7", 7), ("E8", 8),
])
def test_element_from_word_matches_matrix_oracle_at_high_rank(label, rank):
    # r is read off the summed coweight coordinates by an exact division by
    # the coweight denominator (31 on A30), so draw words with several s_0
    rs = build(label, rank)
    rng = random.Random("%s%d" % (label, rank))
    for length in (8, 16, 24, 32, 40):
        zeros = rng.randint(2, 6)
        word = [rng.randint(1, rank) for _ in range(length - zeros)]
        for _ in range(zeros):
            word.insert(rng.randint(0, len(word)), 0)
        assert A.element_from_word(rs, word) == matrix_element_from_word(rs, word)


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_reduced_word_matches_peel_oracle(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        w = A.w_min(ideal)
        assert A.reduced_word(w) == peel_reduced_word(w)
        if I.is_strictly_positive(ideal):
            w = A.w_max(ideal)
            assert A.reduced_word(w) == peel_reduced_word(w)


def test_words_products_inverses_and_records_build_no_inversion_set(monkeypatch):
    rs = build("E6", 6)
    ideal = I.ideal_of(I.Antichain(rs, [rs.positive_roots[20]]))
    w, s0 = A.w_min(ideal), A.element_from_word(rs, [0])
    expected = (A.reduced_word(w), w.inverse(), w * s0, A.element_to_record(w))

    def no_inversion_set(*args, **kwargs):
        raise AssertionError("an inversion set was built")

    monkeypatch.setattr(A, "inversion_set", no_inversion_set)
    assert (A.reduced_word(w), w.inverse(), w * s0, A.element_to_record(w)) == expected
    assert expected[0] == peel_reduced_word(w)


def test_element_equality_is_not_word_equality():
    rs = build("A", 2)
    w1 = A.element_from_word(rs, (1, 2, 1))
    w2 = A.element_from_word(rs, (2, 1, 2))
    assert w1 == w2  # braid-equivalent words give one element


def test_element_serialization_round_trip():
    rs = build("C", 2)
    for ideal in I.enumerate_ideals(rs):
        w = A.w_min(ideal)
        rec = A.element_to_record(w)
        assert rec["length"] == len(rec["word"])
        assert A.element_from_record(rs, rec) == w


def test_mul_and_inverse():
    rs = build("B", 2)
    for word in all_words(rs, 4):
        w = A.element_from_word(rs, word)
        assert w.inverse() == affine_inverse(w)
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()


@pytest.mark.parametrize("label,rank", [("B", 2), ("G2", 2), ("A", 3)])
def test_product_matches_matrix_oracle(label, rank):
    rs = build(label, rank)
    elements = [A.element_from_word(rs, word) for word in all_words(rs, 3)]
    elements.append(A.translation(rs, tuple(-c for c in rs.theta_coords)))
    for w1 in elements:
        for w2 in elements:
            assert w1 * w2 == affine_product(w1, w2)


def test_product_across_root_systems_is_rejected():
    w1 = A.element_from_word(build("A", 2), [0])
    w2 = A.element_from_word(build("B", 2), [0])
    with pytest.raises(ValueError, match="multiply"):
        w1 * w2


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("C", 3), ("G2", 2)])
def test_alcove_image_barycenter_matches_matrix_oracle(label, rank):
    # w^{-1} * x = v^{-1}(x) - r for w = v . t_r
    rs = build(label, rank)
    b = A.alcove_barycenter(rs)
    for ideal in I.enumerate_ideals(rs):
        w = A.w_min(ideal)
        moved = matrix_inverse(w.v).act(b)
        assert A.alcove_image_barycenter(w) == tuple(x - rx for x, rx in zip(moved, w.r))


OUTSIDE_W_OR_COROOT_LATTICE = [
    # the swap maps the simple roots to roots, but is the diagram automorphism
    ("A", 2, [[0, 1], [1, 0]], (0, 0)),
    ("A", 2, [[1, 1], [0, 1]], (0, 0)),
    ("A", 2, [[-1, 0], [0, -1]], (0, 0)),
    ("D", 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], (0, 0, 0, 0)),
    ("A", 2, [[1, 0]], (0, 0)),
    ("A", 2, [[1, 0], [0]], (0, 0)),
    ("A", 2, [[1.0, 0], [0, 1]], (0, 0)),
    ("A", 2, [["1", 0], [0, 1]], (0, 0)),
    ("A", 2, [[1, 0], [0, 1]], (0, 0, 0)),
    ("A", 2, [[1, 0], [0, 1]], ("1", 0)),
    ("A", 2, [[1, 0], [0, 1]], (None, 0)),
    ("A", 2, [[1, 0], [0, 1]], (1.0, 0)),
    ("B", 2, [[1, 0], [0, 1]], (0, 1)),  # alpha_2 is short: alpha_2^vee = 2 alpha_2
    ("G2", 2, [[1, 0], [0, 1]], (1, 0)),  # alpha_1 is short: alpha_1^vee = 3 alpha_1
    # the columns (0, 2^64) and (0, 1) pack to the identity's (1, 0) and (0, 1)
    ("A", 2, [[0, 0], [2**64, 1]], (0, 0)),
]


@pytest.mark.parametrize("label,rank,matrix,r", OUTSIDE_W_OR_COROOT_LATTICE)
def test_affine_element_rejects_data_outside_w_and_coroot_lattice(label, rank, matrix, r):
    rs = build(label, rank)
    with pytest.raises(ValueError, match="Weyl group|coroot-lattice"):
        A.AffineWeylElement(rs, A.FiniteWeylElement(matrix), r)


@pytest.mark.parametrize("label,rank,matrix,r", OUTSIDE_W_OR_COROOT_LATTICE)
def test_weyl_membership_matches_column_oracle_on_rejected_data(label, rank, matrix, r):
    rs = build(label, rank)
    v = A.FiniteWeylElement(matrix)
    assert A._in_weyl_group(rs, v) == in_weyl_group_by_columns(rs, v)


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("C", 3), ("G2", 2)])
def test_weyl_membership_matches_column_oracle(label, rank):
    # v m is outside W for every v in W, since the shear m is
    rs = build(label, rank)
    shear = A.FiniteWeylElement([[int(i == j or (i, j) == (0, 1)) for j in range(rank)]
                                 for i in range(rank)])
    for v in full_weyl_group(rs):
        assert A._in_weyl_group(rs, v) and in_weyl_group_by_columns(rs, v)
        outside = matrix_product(v, shear)
        assert not A._in_weyl_group(rs, outside)
        assert not in_weyl_group_by_columns(rs, outside)


def test_weyl_membership_rejects_a_matrix_aliasing_the_identity():
    rs = build("A", 2)
    v = A.FiniteWeylElement([[0, 0], [2**64, 1]])
    low = A._affine_simple_data(rs)[0][1:]
    assert [sum(map(mul, col, low)) for col in zip(*v.matrix)] == list(low)
    assert not A._in_weyl_group(rs, v)
    with pytest.raises(ValueError, match="Weyl group"):
        A.finite_element(rs, v)


@pytest.mark.parametrize("label,rank", systems_up_to(8))
def test_simple_reflections_match_matrix_oracle(label, rank):
    rs = build(label, rank)
    for i in range(rs.rank + 1):
        assert A.element_from_word(rs, [i]) == matrix_simple_reflection(rs, i)


@pytest.mark.parametrize("i", [-1, -3, 3, True, 1.0, "1", None])
def test_simple_indices_outside_0_to_p_are_rejected(i):
    rs = build("A", 2)
    with pytest.raises(ValueError, match="0..2"):
        A.simple_affine_root(rs, i)
    with pytest.raises(ValueError, match="0..2"):
        A.element_from_word(rs, [i])


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G2", 2)])
def test_affine_element_accepts_the_whole_weyl_group(label, rank):
    rs = build(label, rank)
    steps = [int(2 / x) for x in rs.lengths]  # alpha_j^vee = steps[j] alpha_j
    for v in full_weyl_group(rs):
        w = A.AffineWeylElement(rs, v, [-s for s in steps])
        assert A.element_from_word(rs, A.reduced_word(w)) == w


def test_grown_elements_skip_the_constructor_checks(monkeypatch):
    rs = build("E6", 6)
    w = A.w_min(I.Ideal(rs, (1 << rs.num_positive) - 1))

    def fail(*args):
        raise AssertionError("_grow went through the checking constructor")

    monkeypatch.setattr(A.AffineWeylElement, "__init__", fail)
    assert A.element_from_word(rs, A.reduced_word(w)) == w
    assert A.w_min(I.Ideal(rs, (1 << rs.num_positive) - 1)) == w


@pytest.mark.parametrize("field", ["v_matrix", "r_coords"])
def test_element_from_record_rejects_mismatch(field):
    rs = build("A", 2)
    rec = A.element_to_record(A.element_from_word(rs, [0]))
    rec[field] = [[9, 9], [9, 9]] if field == "v_matrix" else [5, 5]
    with pytest.raises(ValueError, match=field):
        A.element_from_record(rs, rec)


@pytest.mark.parametrize("record", [
    {"word": [7]},
    {"word": [-1]},
    {"word": "x"},
    {"word": [0.0]},
    {"word": [True]},
    {},
    {"word": [0], "v_matrix": 5},
    {"word": [0], "v_matrix": [[1, 0]]},
    {"word": [0], "v_matrix": [[1, 0], [0, "1"]]},
    {"word": [0], "r_coords": 5},
    {"word": [0], "r_coords": [1, 1, 1]},
    {"word": [0], "r_coords": [1.0, 1]},
])
def test_element_from_record_rejects_malformed(record):
    rs = build("A", 2)
    with pytest.raises(ValueError):
        A.element_from_record(rs, record)
    if "word" in record and len(record) == 1:
        with pytest.raises(ValueError, match="word"):
            A.element_from_word(rs, record["word"])


def test_element_from_record_validates_under_optimize():
    # `python -O` strips asserts; the checks must still raise
    code = "\n".join([
        "from adideals.rootsys import AffineRoot, Root, build",
        "from adideals import affine as A",
        "from adideals import heisenberg as H",
        "from adideals import ideals as I",
        "assert False, 'asserts are on'",
        "rec = {'word': [0], 'v_matrix': [[9, 9], [9, 9]], 'r_coords': [5, 5]}",
        "alias = A.FiniteWeylElement([[0, 0], [2**64, 1]])",
        "calls = [lambda: A.element_from_record(build('A', 2), rec),",
        "         lambda: A.length(A.translation(build('G2', 2), (1, 0))),",
        "         lambda: A.finite_element(build('A', 2), A.FiniteWeylElement([[0, 1], [1, 0]])),",
        "         lambda: A.element_from_inversions(build('A', 2), [AffineRoot(1, (-1, 0))]),",
        "         lambda: A.finite_element(build('A', 2), alias),",
        "         lambda: A.y_coordinates(build('A', 2), (1,)),",
        "         lambda: build('A', 2).pairing(build('A', 2).theta, Root((0, 0))),",
        "         lambda: build('A', 3).pairing((1, 0, 0), build('A', 3).theta),",
        "         lambda: build('A', 3).pairing(build('A', 3).theta, (1, 0, 0)),",
        "         lambda: A.reflection(build('A', 3), (1, 0, 0)),",
        "         lambda: A.act_affine_root(A.element_from_word(build('A', 3), []),",
        "                                   (0, (1, 0, 0))),",
        "         lambda: A.translation(build('A', 3), None),",
        "         lambda: A.element_from_inversions(build('A', 3), [(1, 0, 0)]),",
        "         lambda: A.element_from_record(build('A', 3), (1, 0, 0)),",
        "         lambda: H.heisenberg_element(build('A', 3), (1, 0, 0)),",
        "         lambda: H.heisenberg_ideal_formula(build('A', 3), (1, 0, 0)),",
        "         lambda: I.ideal_from_roots(build('A', 3), None)]",
        "for n, call in enumerate(calls):",
        "    try:",
        "        call()",
        "    except ValueError:",
        "        continue",
        "    raise SystemExit(10 + n)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(A.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
