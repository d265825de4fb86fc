import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from adideals.rootsys import AffineRoot, Root, build
from adideals import affine as A
from adideals import ideals as I
from adideals import lattice_count as L
from helpers import coroot_points_in_dilated_alcove, laurent_coefficient_by_dp, systems_up_to


def test_membership_examples():
    rs = build("F4", 4)
    zero = (Fraction(0),) * 4
    assert L.d_min_contains(rs, zero)
    assert L.d_max_contains(rs, zero)
    assert L.d_mm_contains(rs, zero)
    table_point = L.coweight_point(rs, (1, -1, 0, 1))
    assert L.d_mm_contains(rs, table_point)
    # any point with (theta, x) = 3 is out
    theta_norm = rs.bilinear(rs.theta_coords, rs.theta_coords)
    x = tuple(3 * Fraction(c) / theta_norm for c in rs.theta_coords)
    assert rs.bilinear(x, rs.theta_coords) == 3
    assert not L.d_mm_contains(rs, x)


@pytest.mark.parametrize("label,rank", [("A", 20), ("B", 15), ("C", 15), ("D", 16), ("E8", 8)])
def test_coweight_point_pairs_with_the_simple_roots_to_its_coordinates(label, rank):
    # (varpi_i^vee, alpha_j) = delta_ij, paired by the Gram matrix
    rs = build(label, rank)
    rng = random.Random(rank)
    for _ in range(4):
        y = [rng.randint(-9, 9) for _ in range(rank)]
        x = L.coweight_point(rs, y)
        assert [rs.bilinear(x, rs.alpha(j).coords) for j in range(rank)] == y


@pytest.mark.parametrize("y", [(0, 0, 0, 1), (0, 0), (), (0, 1.0, 0), (0, True, 0),
                               (0, "1", 0), 3])
def test_coweight_point_rejects_malformed_coordinates(y):
    with pytest.raises(ValueError, match=r"a coweight point in .* needs 3 int or Fraction"):
        L.coweight_point(build("A", 3), y)


@pytest.mark.parametrize("use,call", [
    ("an affine action", lambda rs, x: A.act_point(A.identity_element(rs), x)),
    ("an inner product", lambda rs, x: rs.bilinear(x, rs.theta_coords)),
    ("an inner product", lambda rs, x: rs.bilinear(rs.theta_coords, x)),
    ("a D_min test", L.d_min_contains),
    ("a D_max test", L.d_max_contains),
    ("a D_mm test", L.d_mm_contains),
    ("a Shi region test", lambda rs, x: I.shi_region_contains(I.empty_ideal(rs), x)),
    ("a coweight expansion", A.y_coordinates),
    ("a root-coroot pairing", lambda rs, x: rs.pair_root_coroot(x, rs.theta_coords)),
    ("a root-coroot pairing", lambda rs, x: rs.pair_root_coroot(rs.theta_coords, x)),
    ("a pairing", lambda rs, x: rs.pairing(Root(x), rs.theta)),
    ("a pairing", lambda rs, x: rs.pairing(rs.theta, Root(x))),
    ("a root-coroot pairing",
     lambda rs, x: A.act_affine_root(A.element_from_word(rs, [0]), AffineRoot(0, x))),
    ("a root-coroot pairing",
     lambda rs, x: A.act_affine_root(A.identity_element(rs), AffineRoot(0, x))),
], ids=["act_point", "bilinear-x", "bilinear-y", "d_min", "d_max", "d_mm", "shi",
        "y_coordinates", "pair_root_coroot-mu", "pair_root_coroot-r", "pairing-gamma",
        "pairing-nu", "act_affine_root", "act_affine_root-identity"])
@pytest.mark.parametrize("x", [(1,), (1, 2, 3, 4), (), ("a", "b", "c"), (0, 1.5, 0),
                               (0, True, 0), 3],
                         ids=["short", "long", "empty", "str", "float", "bool", "int"])
def test_points_of_the_wrong_length_or_type_are_rejected(use, call, x):
    # no point is zero-padded, cut short or read past its end
    with pytest.raises(ValueError, match=r"%s in .* needs 3 int or Fraction" % use):
        call(build("A", 3), x)


@pytest.mark.parametrize("use,call", [
    ("a pairing in .* needs two roots", lambda rs, zero: rs.pairing(rs.alpha(0), zero)),
    ("a reflection in .* needs a root", A.reflection),
    # a coordinate tuple is no root either, even with a root's coordinates
    ("a pairing in .* needs two roots", lambda rs, _: rs.pairing((1, 0, 0), rs.theta)),
    ("a pairing in .* needs two roots", lambda rs, _: rs.pairing(rs.theta, (1, 0, 0))),
    ("a reflection in .* needs a root", lambda rs, _: A.reflection(rs, (1, 0, 0))),
], ids=["pairing", "reflection", "pairing-tuple-gamma", "pairing-tuple-nu",
        "reflection-tuple"])
def test_a_zero_root_is_rejected(use, call):
    with pytest.raises(ValueError, match=use):
        call(build("A", 3), Root((0, 0, 0)))


def test_base_system_examples():
    assert len(L.solve_base_system(build("G2", 2))) == 3
    assert len(L.solve_base_system(build("F4", 4))) == 17
    assert L.solve_base_system(build("A", 1)) == [(0,), (1,)]


def test_extended_system_examples():
    for n in range(1, 7):
        assert len(L.solve_extended_system(build("A", n))) == L.trinomial(1, n + 1)
    assert len(L.solve_extended_system(build("G2", 2))) == 3


@pytest.mark.parametrize("label,rank", systems_up_to(6))
def test_extended_solutions_biject_with_base(label, rank):
    rs = build(label, rank)
    base = L.solve_base_system(rs)
    ext = L.solve_extended_system(rs)
    assert len(base) == len(ext)
    derived = sorted(y[1:] for y in ext)
    assert derived == sorted(base)
    for y in ext:
        assert y[0] == 1 - sum(c * v for c, v in zip(rs.theta_coords, y[1:]))


def test_laurent_examples():
    assert L.laurent_coefficient((1, 1, 1), 1) == 6
    assert L.laurent_coefficient((1,), 0) == 1
    assert L.laurent_coefficient((1, 2, 3, 4, 5, 6, 4, 2, 3), 1) == 834
    # the x^1 terms of (x^-1 + 1 + x)^2 are y = (1, 0) and (0, 1); a form
    # (weights, modulus) keeps those with sum w_i y_i = 0 mod the modulus
    assert L.laurent_coefficient((1, 1), 1, [((1, 0), 2)]) == 1
    assert L.laurent_coefficient((1, 1), 1, [((1, 1), 3)]) == 0


@pytest.mark.parametrize("label,rank", systems_up_to(8))
def test_laurent_matches_extended_system(label, rank):
    rs = build(label, rank)
    cs = (rs.c0,) + rs.theta_coords
    assert L.laurent_coefficient(cs, 1) == len(L.solve_extended_system(rs))


@pytest.mark.parametrize("label,rank", systems_up_to(12))
def test_laurent_matches_dp_oracle_on_both_count_minimax_routes(label, rank):
    rs = build(label, rank)
    cs = (rs.c0,) + rs.theta_coords
    forms = [((0,) + w, m) for w, m in L.CONGRUENCES[label](rank)]
    assert L.laurent_coefficient(cs, 1) == laurent_coefficient_by_dp(cs, 1)
    assert L.laurent_coefficient(cs, 1, forms) == laurent_coefficient_by_dp(cs, 1, forms)


@pytest.mark.parametrize("cs,k,forms", [
    ((1, 1.0), 1, ()),
    ((1, Fraction(1)), 1, ()),
    ((1, 1), 1.0, ()),
    ((1, 1), "1", ()),
    ((1, 1), 1, [((1, 0), 0)]),
    ((1, 1), 1, [((1, 0), -2)]),
    ((1, 1), 1, [((1, 0), 2.0)]),
    ((1, 1), 1, [((1,), 2)]),
    ((1, 1), 1, [((1, 0, 1), 2)]),
    ((1, 1), 1, [((1, 0.5), 2)]),
])
def test_laurent_rejects_malformed_input(cs, k, forms):
    with pytest.raises(ValueError):
        L.laurent_coefficient(cs, k, forms)


def test_trinomial_values():
    assert L.trinomial(0, 2) == 3
    assert L.trinomial(1, 2) == 2
    assert L.trinomial(5, 4) == 0
    assert L.trinomial(-1, 5) == L.trinomial(1, 5)
    with pytest.raises(ValueError):
        L.trinomial(0, -1)


def test_trinomial_recurrence_matches_closed_form():
    for n in range(0, 30):
        for k in range(0, n + 2):
            assert L.trinomial(k, n + 1) == (
                L.trinomial(k - 1, n) + L.trinomial(k, n) + L.trinomial(k + 1, n)
            )
    for n in range(0, 15):
        assert L.laurent_coefficient((1,) * n, 0) == L.trinomial(0, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_type_a_cyclic_orbits(n):
    # the cyclic shift acts freely on the extended solutions with orbits
    # of size n+1, and each orbit holds exactly one coroot-lattice point
    rs = build("A", n)
    solutions = set(L.solve_extended_system(rs))
    seen = set()
    for y in sorted(solutions):
        if y in seen:
            continue
        orbit = set()
        cur = y
        while cur not in orbit:
            orbit.add(cur)
            cur = cur[1:] + cur[:1]
        assert orbit <= solutions
        assert len(orbit) == n + 1
        assert sum(1 for z in orbit if L.congruence_filter(rs, z)) == 1
        seen |= orbit
    assert seen == solutions


@pytest.mark.parametrize("label,rank", systems_up_to(8))
def test_congruence_matches_coroot_lattice_membership(label, rank):
    # the per-type congruence must agree with exact lattice membership of
    # the coweight point determined by y_1..y_p
    rs = build(label, rank)
    for y in L.solve_extended_system(rs):
        point = L.coweight_point(rs, y[1:])
        assert L.congruence_filter(rs, y) == rs.in_coroot_lattice(point)


@pytest.mark.parametrize("label,rank", systems_up_to(8))
def test_count_minimax_never_sweeps(label, rank, monkeypatch):
    # the value the sweep oracle gives, then the count with the sweep barred
    rs = build(label, rank)
    oracle = sum(1 for y in L.solve_extended_system(rs) if L.congruence_filter(rs, y))

    def no_sweep(*args, **kwargs):
        raise AssertionError("count_minimax swept the lattice")

    monkeypatch.setattr(L, "solve_extended_system", no_sweep)
    monkeypatch.setattr(L.itertools, "product", no_sweep)
    assert L.count_minimax(rs).value == oracle


@pytest.mark.parametrize("n", [*range(12, 26), 40, 100])
def test_count_minimax_high_ranks_match_closed_forms(n):
    assert L.count_minimax(build("A", n)).value == L.motzkin(n)
    assert L.count_minimax(build("B", n)).value == L.directed_animals(n)
    assert L.count_minimax(build("C", n)).value == L.directed_animals(n)
    assert L.count_minimax(build("D", n)).value == L.minimax_count_D(n)


@pytest.mark.parametrize("label,rank,wrong", [
    ("A", 4, []),
    ("E6", 6, [((1, 0, 0, 0, 0, 0), 3)]),
    ("D", 6, [((0, 0, 0, 0, 1, 1), 2)]),
])
def test_count_minimax_catches_a_wrong_congruence(label, rank, wrong, monkeypatch):
    # route (b) reads the congruence table and route (a) does not
    monkeypatch.setitem(L.CONGRUENCES, label, lambda p: wrong)
    with pytest.raises(ArithmeticError, match="congruence count"):
        L.count_minimax(build(label, rank))


def test_count_minimax_smoke():
    report = L.count_minimax(build("A", 2))
    assert report.value == 2
    assert report.method == "lattice" and report.congruence_applied
    assert L.count_minimax_by_enumeration(build("A", 2)).value == 2


def test_count_AD_examples():
    assert L.count_AD(build("A", 2)).value == 5
    assert L.count_AD0(build("A", 2)).value == 2
    assert L.count_AD(build("A", 1)).value == 2
    assert L.count_AD0(build("A", 1)).value == 1
    assert L.count_AD(build("E8", 8)).value == 25080
    report = L.count_AD(build("B", 3))
    assert report.method == "closed_form" and not report.congruence_applied
    assert report.csv_row() == ["B", 3, "AD", 20, "closed_form", False]


def test_integer_product_raises_on_a_remainder():
    assert L._integer_product([(6, 2), (5, 3)]) == 5
    assert L._integer_product([]) == 1
    with pytest.raises(ArithmeticError, match="not an integer"):
        L._integer_product([(3, 2), (5, 3)])


def test_lattice_checks_raise_under_optimize():
    # the checks are raises, not asserts, so `python -O` keeps them
    code = "\n".join([
        "from adideals import lattice_count as L",
        "assert False, 'asserts are on'",
        "calls = [(lambda: L._integer_product([(3, 2)]), ArithmeticError),",
        "         (lambda: L.laurent_coefficient((1, 1), 1, [((1, 0), 0)]), ValueError),",
        "         (lambda: L.laurent_coefficient((1, 1), 1, [((1,), 2)]), ValueError)]",
        "for n, (call, error) in enumerate(calls):",
        "    try:",
        "        call()",
        "    except error:",
        "        continue",
        "    raise SystemExit(10 + n)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(L.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_haiman_examples():
    for label, rank in systems_up_to(4):
        assert L.haiman_count(build(label, rank), 1) == 1
    a2 = build("A", 2)
    assert L.haiman_count(a2, 4) == 5
    assert L.haiman_count(a2, 2) == 2
    with pytest.raises(ValueError, match="Coxeter"):
        L.haiman_count(build("B", 2), 2)


@pytest.mark.parametrize("label,rank", systems_up_to(3))
def test_haiman_against_brute_force(label, rank):
    import math

    rs = build(label, rank)
    for t in range(1, 8):
        if math.gcd(t, rs.coxeter_number) != 1:
            continue
        assert L.haiman_count(rs, t) == coroot_points_in_dilated_alcove(rs, t)


@pytest.mark.parametrize("t", [2.5, 3.0, True, "5", None])
def test_haiman_rejects_dilations_that_are_no_int(t):
    with pytest.raises(ValueError, match="is not a positive dilation"):
        L.haiman_count(build("A", 2), t)


@pytest.mark.parametrize("label,rank,t", [("A", 4, -6), ("E8", 8, -31), ("A", 2, -4)])
def test_haiman_rejects_negative_dilations(label, rank, t):
    # the t-dilated alcove of a negative t holds no point, while the
    # product formula gives 1 on these examples
    rs = build(label, rank)
    assert coroot_points_in_dilated_alcove(rs, t) == 0
    with pytest.raises(ValueError, match="positive dilation"):
        L.haiman_count(rs, t)


def test_haiman_specialisations_match_ideal_counts():
    # h+1 and h-1 are always coprime to h, so both dilations count; count_AD
    # and count_AD0 are these specialisations, so the alcove points are also
    # counted by brute force
    for label, rank in systems_up_to(4):
        rs = build(label, rank)
        h = rs.coxeter_number
        assert (L.haiman_count(rs, h + 1) == L.count_AD(rs).value
                == coroot_points_in_dilated_alcove(rs, h + 1))
        assert (L.haiman_count(rs, h - 1) == L.count_AD0(rs).value
                == coroot_points_in_dilated_alcove(rs, h - 1))


def test_motzkin_and_dir_values():
    assert [L.motzkin(n) for n in range(1, 9)] == [1, 2, 4, 9, 21, 51, 127, 323]
    assert [L.directed_animals(n) for n in range(1, 9)] == [
        1, 2, 5, 13, 35, 96, 267, 750,
    ]
    assert L.minimax_count_D(4) == 9
    with pytest.raises(ValueError):
        L.minimax_count_D(3)
    with pytest.raises(ValueError):
        L.directed_animals(0)


def test_sequence_identities():
    # dir_n = X_0(n-1) + X_1(n-1)
    for n in range(1, 21):
        assert L.directed_animals(n) == L.trinomial(0, n - 1) + L.trinomial(1, n - 1)
    # dir_n = 3 dir_{n-1} - M_{n-2}
    for n in range(3, 21):
        assert L.directed_animals(n) == 3 * L.directed_animals(n - 1) - L.motzkin(n - 2)
    # the D count rewritten via the remark identity
    for n in range(4, 21):
        assert L.minimax_count_D(n) == 5 * L.directed_animals(n - 2) - L.motzkin(n - 3)
    # and via the quarter of the four-term trinomial sum
    for n in range(4, 21):
        quarter_sum = (
            4 * L.trinomial(-1, n - 3) + 16 * L.trinomial(0, n - 3)
            + 16 * L.trinomial(1, n - 3) + 4 * L.trinomial(2, n - 3)
        )
        assert quarter_sum % 4 == 0
        assert L.minimax_count_D(n) == quarter_sum // 4
