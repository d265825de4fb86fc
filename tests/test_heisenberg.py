from fractions import Fraction

import pytest

from adideals.rootsys import Root, build
from adideals import affine as A
from adideals import heisenberg as H
from adideals import ideals as I
from helpers import (
    affine_product, all_words, brute_pairing, full_weyl_group,
    heisenberg_type_by_product, matrix_inverse, matrix_product, norm2, root_order_leq,
    systems_up_to, w_nu_word_by_ascent, w_nu_word_by_bfs,
)


def long_positive(rs):
    return rs.long_positive_roots()


def rho_pairing(rs, nu):
    # (rho, nu^vee), an integer for any root nu; rho is half the sum of Delta^+
    rho = [Fraction(sum(c), 2) for c in zip(*(r.coords for r in rs.positive_roots))]
    val = 2 * rs.bilinear(rho, nu.coords) / rs.bilinear(nu.coords, nu.coords)
    assert val.denominator == 1
    return int(val)


def test_heisenberg_ideal_examples():
    rs = build("A", 2)
    assert set(H.heisenberg_ideal(rs).members()) == {
        rs.alpha(0), rs.alpha(1), rs.theta
    }
    rs1 = build("A", 1)
    assert H.heisenberg_ideal(rs1).members() == [rs1.theta]


@pytest.mark.parametrize("label,rank", systems_up_to(5))
def test_heisenberg_square_is_theta(label, rank):
    rs = build(label, rank)
    h = H.heisenberg_ideal(rs)
    assert rs.theta in h
    if rank == 1:  # theta is simple, so it is not a sum of two members
        assert I.power(h, 2).size == 0
    else:
        assert I.power(h, 2).members() == [rs.theta]
    assert I.power(h, 3).size == 0


def test_w_nu_theta_is_identity():
    rs = build("B", 3)
    assert H.w_nu(rs, rs.theta).is_identity()


def test_w_nu_rejects_bad_input():
    rs = build("C", 2)
    short = next(r for r in rs.positive_roots if norm2(rs, r) != 2)
    with pytest.raises(ValueError, match="long"):
        H.w_nu(rs, short)
    with pytest.raises(ValueError, match="not a positive root"):
        H.w_nu(rs, -rs.theta)


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_w_nu_length_and_inversions(label, rank):
    # the unique shortest element with w(theta) = nu has
    # N(w^{-1}) = {gamma > 0 : (gamma, nu^vee) = -1} and
    # length (rho, theta^vee - nu^vee)
    rs = build(label, rank)
    for nu in long_positive(rs):
        v = H.w_nu(rs, nu)
        assert v.act(rs.theta_coords) == nu.coords
        expected_len = rho_pairing(rs, rs.theta) - rho_pairing(rs, nu)
        assert A.finite_length(rs, v) == expected_len
        inv = {r.coords for r in A.finite_inversions(rs, matrix_inverse(v))}
        charac = {r.coords for r in rs.positive_roots if rs.pairing(r, nu) == -1}
        assert inv == charac


@pytest.mark.parametrize("label,rank", systems_up_to(8))
def test_w_nu_ascent_matches_bfs_oracle(label, rank):
    rs = build(label, rank)
    for nu in long_positive(rs):
        word = H._w_nu_word(rs, nu)
        w = A.element_from_word(rs, word)
        assert w == A.element_from_word(rs, w_nu_word_by_bfs(rs, nu))
        assert len(word) == A.length(w)


@pytest.mark.parametrize("label,rank", [
    ("A", 30), ("D", 24), ("B", 15), ("C", 10), ("E8", 8), ("F4", 4), ("G2", 2),
])
def test_w_nu_word_matches_ascent_oracle(label, rank):
    rs = build(label, rank)
    for nu in long_positive(rs):
        assert H._w_nu_word(rs, nu) == w_nu_word_by_ascent(rs, nu)


def test_a2_w_nu_length_one():
    rs = build("A", 2)
    assert A.finite_length(rs, H.w_nu(rs, rs.alpha(0))) == 1


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_s_nu_length_formula(label, rank):
    rs = build(label, rank)
    for nu in long_positive(rs):
        s = H.s_nu(rs, nu)
        assert A.finite_length(rs, s) == 2 * rho_pairing(rs, nu) - 1
        inv = {r.coords for r in A.finite_inversions(rs, s)}
        zero_part = {r.coords for r in H.n_s_nu_zero(rs, nu)}
        assert inv == zero_part | {nu.coords}
        # s_nu w_nu is a reduced product
        both = matrix_product(s, H.w_nu(rs, nu))
        assert A.finite_length(rs, both) == (
            rho_pairing(rs, rs.theta) + rho_pairing(rs, nu) - 1
        )


def test_s_nu_simple():
    rs = build("A", 3)
    for a in rs.simple_roots():
        assert A.finite_length(rs, H.s_nu(rs, a)) == 1
        assert H.n_s_nu_zero(rs, a) == []


def test_s_theta_length():
    # 2 (rho, theta^vee) - 1 in general; (rho, theta^vee) = h - 1 holds in
    # the simply laced types, where this becomes 2h - 3
    for label, rank in systems_up_to(4):
        rs = build(label, rank)
        got = A.finite_length(rs, H.s_nu(rs, rs.theta))
        assert got == 2 * rho_pairing(rs, rs.theta) - 1
        if label in ("A", "D", "E6", "E7", "E8"):
            assert got == 2 * rs.coxeter_number - 3


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_n_s_nu_zero_empty_iff_simple(label, rank):
    rs = build(label, rank)
    for nu in long_positive(rs):
        empty = not H.n_s_nu_zero(rs, nu)
        assert empty == (rs.index_of(nu) in rs.simple_indices)


@pytest.mark.parametrize("label,rank", systems_up_to(5))
def test_n_s_nu_zero_matches_pairing_oracle(label, rank):
    rs = build(label, rank)
    for nu in rs.positive_roots:
        expected = [g for g in rs.positive_roots if g != nu
                    and brute_pairing(rs, g, nu) == 1 and root_order_leq(g, nu)]
        assert H.n_s_nu_zero(rs, nu) == expected


def test_heisenberg_element_theta_plus_is_s0():
    rs = build("A", 2)
    d = H.HeisenbergElementDescriptor(rs.theta, 1)
    assert H.heisenberg_element(rs, d) == A.affine_simple_reflection(rs, 0)
    assert A.first_layer_ideal(H.heisenberg_element(rs, d)).members() == [rs.theta]


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_heisenberg_element_classification(label, rank):
    rs = build(label, rank)
    s0 = A.affine_simple_reflection(rs, 0)
    for nu in long_positive(rs):
        nu_simple = rs.index_of(nu) in rs.simple_indices
        plus = H.heisenberg_element(rs, H.HeisenbergElementDescriptor(nu, 1))
        minus = H.heisenberg_element(rs, H.HeisenbergElementDescriptor(nu, -1))
        # w_nu s_0 and s_nu w_nu s_0 as matrix products
        v = H.w_nu(rs, nu)
        assert plus == affine_product(A.finite_element(rs, v), s0)
        assert minus == affine_product(
            A.finite_element(rs, matrix_product(H.s_nu(rs, nu), v)), s0)

        assert A.is_dominant(plus) and A.is_dominant(minus)
        assert A.rootlet(plus) == (nu, 1)
        assert A.rootlet(minus) == (-nu, 1)

        assert A.is_minimal(plus)
        assert A.is_maximal(plus) == (not nu_simple)
        assert A.is_minimal(minus) == (not nu_simple)
        assert A.is_maximal(minus) == (rs.bilinear(rs.theta_coords, nu.coords) == 0)

        ideal_plus = A.first_layer_ideal(plus)
        assert I.is_abelian(ideal_plus)
        ideal_minus = A.first_layer_ideal(minus)
        if nu_simple:
            assert ideal_minus == ideal_plus
        else:
            assert not I.is_abelian(ideal_minus)
            assert rs.theta in I.power(ideal_minus, 2)


@pytest.mark.parametrize("label,rank", systems_up_to(5))
def test_formula_matches_first_layer(label, rank):
    rs = build(label, rank)
    theta_pair = rho_pairing(rs, rs.theta)
    for nu in long_positive(rs):
        nu_simple = rs.index_of(nu) in rs.simple_indices
        plus = H.HeisenbergElementDescriptor(nu, 1)
        got = H.heisenberg_ideal_formula(rs, plus)
        assert got == A.first_layer_ideal(H.heisenberg_element(rs, plus))
        assert got.size == theta_pair - rho_pairing(rs, nu) + 1
        if not nu_simple:
            minus = H.HeisenbergElementDescriptor(nu, -1)
            got = H.heisenberg_ideal_formula(rs, minus)
            assert got == A.first_layer_ideal(H.heisenberg_element(rs, minus))
            assert got.size == theta_pair + rho_pairing(rs, nu) - 1


@pytest.mark.parametrize("label,rank", [("E6", 6), ("E7", 7)])
def test_formula_builds_no_checked_element(monkeypatch, label, rank):
    rs = build(label, rank)
    descriptors = [H.HeisenbergElementDescriptor(nu, sign) for nu in long_positive(rs)
                   for sign in (1, -1)
                   if sign == 1 or rs.index_of(nu) not in rs.simple_indices]

    def fail(*args):
        raise AssertionError("the formula built a checked element")

    with monkeypatch.context() as patch:
        patch.setattr(A.AffineWeylElement, "__init__", fail)
        got = [H.heisenberg_ideal_formula(rs, d) for d in descriptors]
    assert got == [A.first_layer_ideal(H.heisenberg_element(rs, d)) for d in descriptors]


def test_formula_builds_no_affine_root(monkeypatch):
    # theta - N(w_nu) is read off the shifts of w_nu, not off its inversion set
    rs = build("E7", 7)
    descriptors = [H.HeisenbergElementDescriptor(nu, sign) for nu in long_positive(rs)
                   for sign in (1, -1)
                   if sign == 1 or rs.index_of(nu) not in rs.simple_indices]

    def fail(*args):
        raise AssertionError("the formula built an AffineRoot")

    with monkeypatch.context() as patch:
        patch.setattr(A, "AffineRoot", fail)
        got = [H.heisenberg_ideal_formula(rs, d) for d in descriptors]
    assert got == [A.first_layer_ideal(H.heisenberg_element(rs, d)) for d in descriptors]


def test_formula_rejects_simple_minus():
    rs = build("A", 2)
    with pytest.raises(ValueError, match="non-simple"):
        H.heisenberg_ideal_formula(rs, H.HeisenbergElementDescriptor(rs.alpha(0), -1))


def test_formula_theta_plus_is_just_theta():
    for label, rank in systems_up_to(3):
        rs = build(label, rank)
        d = H.HeisenbergElementDescriptor(rs.theta, 1)
        assert H.heisenberg_ideal_formula(rs, d).members() == [rs.theta]


def test_a2_ideals_inside_h():
    rs = build("A", 2)
    nontrivial = [i for i in I.enumerate_ideals(rs, "heisenberg_contained") if i.mask]
    assert len(nontrivial) == 4
    sizes = sorted(i.size for i in nontrivial)
    assert sizes == [1, 2, 2, 3]


@pytest.mark.parametrize("label,rank", systems_up_to(5))
def test_count_and_rootlet_injectivity(label, rank):
    rs = build(label, rank)
    nontrivial = [i for i in I.enumerate_ideals(rs, "heisenberg_contained") if i.mask]
    n_long = rs.long_mask.bit_count()
    n_long_simple = sum(1 for i in rs.simple_indices if rs.long_mask >> i & 1)
    assert len(nontrivial) == 2 * n_long - n_long_simple
    rootlets = {A.rootlet(A.w_min(i)) for i in nontrivial}
    assert len(rootlets) == len(nontrivial)


def test_is_heisenberg_type_examples():
    rs = build("A", 2)
    assert H.is_heisenberg_type(A.affine_simple_reflection(rs, 0))
    assert not H.is_heisenberg_type(A.identity_element(rs))


@pytest.mark.parametrize("label,rank,max_len", [
    ("A", 2, 7), ("B", 2, 7), ("G2", 2, 8), ("A", 3, 5), ("B", 3, 5), ("C", 3, 5),
])
def test_is_heisenberg_type_matches_product_route(label, rank, max_len):
    rs = build(label, rank)
    elements = {A.element_from_word(rs, word) for word in all_words(rs, max_len)}
    elements.update(A.w_min(ideal) for ideal in I.enumerate_ideals(rs))
    elements.update(A.w_max(ideal) for ideal in I.enumerate_ideals(rs, "strictly_positive"))
    for w in elements:
        assert H.is_heisenberg_type(w) == heisenberg_type_by_product(w), w


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_minimal_elements_of_h_ideals_are_heisenberg_type(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs, "heisenberg_contained"):
        if ideal.mask:
            assert H.is_heisenberg_type(A.w_min(ideal))


@pytest.mark.parametrize("label,rank", systems_up_to(3))
def test_dominance_criterion_full_weyl_sweep(label, rank):
    # v s_0 is dominant iff v(alpha) > 0 for every simple alpha with
    # (alpha, theta) = 0
    rs = build(label, rank)
    s0 = A.affine_simple_reflection(rs, 0)
    ortho = [
        a for a in rs.simple_roots() if rs.bilinear(a.coords, rs.theta_coords) == 0
    ]
    for v in full_weyl_group(rs):
        w = A.finite_element(rs, v) * s0
        criterion = all(
            not any(c < 0 for c in v.act(a.coords)) for a in ortho
        )
        assert A.is_dominant(w) == criterion


@pytest.mark.parametrize("label,rank", systems_up_to(3))
def test_every_dominant_vs0_comes_from_a_long_root(label, rank):
    rs = build(label, rank)
    s0 = A.affine_simple_reflection(rs, 0)
    for v in full_weyl_group(rs):
        w = A.finite_element(rs, v) * s0
        if not A.is_dominant(w):
            continue
        image = v.act(rs.theta_coords)
        if any(c < 0 for c in image):
            nu = Root(tuple(-c for c in image))
            assert v == matrix_product(H.s_nu(rs, nu), H.w_nu(rs, nu))
        else:
            nu = Root(image)
            assert v == H.w_nu(rs, nu)


@pytest.mark.parametrize("label,rank", [("B", 3), ("C", 3), ("D", 4), ("G2", 2),
                                        ("F4", 4)])
def test_w_max_can_leave_heisenberg_type(label, rank):
    # when theta is a fundamental coweight multiple-free, the unique simple
    # nu with (theta, nu) > 0 produces an ideal whose maximal element is
    # s_0 s_nu w_nu s_0, which is not of the form v s_0
    rs = build(label, rank)
    pairings = [rs.pairing(rs.theta, a) for a in rs.simple_roots()]
    if sorted(pairings) != [0] * (rank - 1) + [1]:
        pytest.skip("theta is not a fundamental weight here")
    nu = rs.simple_roots()[pairings.index(1)]
    assert norm2(rs, nu) == 2
    minus = H.heisenberg_element(rs, H.HeisenbergElementDescriptor(nu, -1))
    assert A.is_dominant(minus)
    assert not A.is_minimal(minus) and not A.is_maximal(minus)
    ideal = A.first_layer_ideal(minus)
    plus = H.heisenberg_element(rs, H.HeisenbergElementDescriptor(nu, 1))
    assert A.w_min(ideal) == plus
    s0 = A.affine_simple_reflection(rs, 0)
    assert A.w_max(ideal) == s0 * minus
    assert not H.is_heisenberg_type(A.w_max(ideal))


def test_descriptor_serialization():
    rs = build("A", 3)
    d = H.HeisenbergElementDescriptor(rs.theta, -1)
    rec = H.descriptor_to_record(d)
    assert rec == {"nu": [1, 1, 1], "sign": -1}
    assert H.descriptor_from_record(rec) == d


@pytest.mark.parametrize("record", [
    {},
    {"sign": 1},
    {"nu": [1, 1]},
    {"nu": 5, "sign": 1},
    {"nu": "11", "sign": 1},
    {"nu": [1.0, 1], "sign": 1},
    {"nu": [1, 1], "sign": 3},
    {"nu": [1, 1], "sign": 0},
    {"nu": [1, 1], "sign": True},
    {"nu": [1, 1], "sign": "1"},
    [1, 1],
])
def test_descriptor_from_record_rejects_malformed(record):
    with pytest.raises(ValueError):
        H.descriptor_from_record(record)


@pytest.mark.parametrize("sign", [True, 1.0, 0])
def test_every_reader_of_a_sign_rejects_non_int_signs(sign):
    # True and 1.0 compare equal to 1, so the check is on the type too
    rs = build("A", 3)
    d = H.HeisenbergElementDescriptor(rs.theta, sign)
    with pytest.raises(ValueError, match="sign must be 1 or -1"):
        H.heisenberg_element(rs, d)
    with pytest.raises(ValueError, match="sign must be 1 or -1"):
        H.heisenberg_ideal_formula(rs, d)
    with pytest.raises(ValueError, match="sign must be 1 or -1"):
        H.descriptor_from_record({"nu": [1, 1, 1], "sign": sign})
