import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import adideals
from adideals.rootsys import Root, RootSystem, build
from adideals.ideals import enumerate_ideals, heisenberg_root_mask, is_abelian
from helpers import (
    ROOT_SYSTEM_TABLES, _invert, brute_bilinear, brute_pairing, cartan_data_by_cases,
    decompositions_by_pairs, describe, fraction_gram, heisenberg_mask_by_pairing,
    is_positive_root, norm2, order_masks_by_coordinates, root_order_leq,
    systems_up_to, tuple_root_system,
)

# standard exponent tables, kept as an oracle against the computed values
EXPONENTS = {
    ("A", 5): (1, 2, 3, 4, 5),
    ("B", 4): (1, 3, 5, 7),
    ("C", 5): (1, 3, 5, 7, 9),
    ("D", 4): (1, 3, 3, 5),
    ("D", 6): (1, 3, 5, 5, 7, 9),
    ("G2", 2): (1, 5),
    ("F4", 4): (1, 5, 7, 11),
    ("E6", 6): (1, 4, 5, 7, 8, 11),
    ("E7", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E8", 8): (1, 7, 11, 13, 17, 19, 23, 29),
}

INDEX_OF_CONNECTION = {"A": None, "B": 2, "C": 2, "D": 4,
                       "E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1}


@pytest.mark.parametrize("label,rank", systems_up_to(8))
def test_structural_invariants(label, rank):
    rs = build(label, rank)
    h = rs.coxeter_number
    assert 2 * rs.num_positive == rank * h
    assert sum(rs.theta_coords) == h - 1
    assert sum(rs.exponents) == rs.num_positive
    assert max(rs.exponents) == h - 1
    expected_f = rank + 1 if label == "A" else INDEX_OF_CONNECTION[label]
    assert rs.index_of_connection == expected_f
    assert rs.index_of_connection == 1 + sum(1 for c in rs.theta_coords if c == 1)


@pytest.mark.parametrize("key", sorted(EXPONENTS))
def test_exponents_match_tables(key):
    label, rank = key
    assert build(label, rank).exponents == EXPONENTS[key]


def test_a2_build():
    rs = build("A", 2)
    assert rs.num_positive == 3
    assert rs.theta == rs.alpha(0) + rs.alpha(1)
    assert rs.coxeter_number == 3
    assert rs.exponents == (1, 2)


def test_g2_build():
    rs = build("G2", 2)
    assert rs.num_positive == 6
    assert sorted(rs.theta_coords) == [2, 3]
    assert rs.index_of_connection == 1


def test_e8_build():
    rs = build("E8", 8)
    assert rs.num_positive == 120
    assert rs.coxeter_number == 30
    assert rs.index_of_connection == 1
    assert sum(rs.theta_coords) == 29


REJECTED_RANKS = {
    ("D", 3): "type D requires rank >= 4 (got 3)",
    ("D", 2): "type D requires rank >= 4 (got 2)",
    ("B", 1): "type B requires rank >= 2 (got 1)",
    ("C", 1): "type C requires rank >= 2 (got 1)",
    ("E6", 5): "type E6 requires rank = 6 (got 5)",
    ("E8", 7): "type E8 requires rank = 8 (got 7)",
    ("F4", 3): "type F4 requires rank = 4 (got 3)",
    ("G2", 3): "type G2 requires rank = 2 (got 3)",
}


@pytest.mark.parametrize("label,rank", [("D", 3), ("D", 2), ("B", 1), ("C", 1),
                                        ("E6", 5), ("E8", 7), ("F4", 3), ("G2", 3)])
def test_invalid_rank_rejected(label, rank):
    with pytest.raises(ValueError, match="rank") as info:
        build(label, rank)
    assert str(info.value) == REJECTED_RANKS[label, rank]


def test_unknown_type_rejected():
    with pytest.raises(ValueError, match="valid types") as info:
        build("H3", 3)
    assert str(info.value) == (
        "unknown type 'H3'; valid types: A (rank>=1), B (rank>=2), C (rank>=2), "
        "D (rank>=4), E6, E7, E8, F4, G2")


@pytest.mark.parametrize("label,rank", systems_up_to(40))
def test_type_data_matches_case_by_case_oracle(label, rank):
    rs = build(label, rank)
    cartan, lengths, num, den, moduli = cartan_data_by_cases(label, rank)
    assert rs.cartan == cartan
    assert rs.lengths == lengths
    assert [type(x) for x in rs.lengths] == [Fraction] * rank
    assert (rs._gram_num, rs._gram_den, rs._coroot_moduli) == (num, den, moduli)


# (type, rank, marks of theta, indices of the short simple roots), as the
# README's "Simple-root numbering" lists them; `CONGRUENCES` is stated in it
NUMBERING = [
    ("B", 5, (1, 2, 2, 2, 2), [4]),
    ("C", 5, (2, 2, 2, 2, 1), [0, 1, 2, 3]),
    ("G2", 2, (3, 2), [0]),
    ("F4", 4, (2, 4, 3, 2), [0, 1]),
    ("E6", 6, (1, 2, 3, 2, 1, 2), []),
    ("E7", 7, (1, 2, 3, 4, 3, 2, 2), []),
    ("E8", 8, (2, 3, 4, 5, 6, 4, 2, 3), []),
]


@pytest.mark.parametrize("label,rank,theta,short", NUMBERING)
def test_simple_root_numbering_matches_readme(label, rank, theta, short):
    rs = build(label, rank)
    assert rs.theta_coords == theta
    short_simple = rs.simple_mask & ~rs.long_mask
    assert [i for i in range(rank) if short_simple >> rs.simple_indices[i] & 1] == short


@pytest.mark.parametrize("rank", ["3", 2.0, True])
def test_non_int_rank_rejected(rank):
    # True would otherwise find the cached A1
    with pytest.raises(ValueError, match="rank must be an int"):
        build("A", rank)


def test_unhashable_type_rejected():
    with pytest.raises(ValueError, match="type must be a str"):
        build(["A"], 3)


# every (type, rank) that `adideals --type/--rank` accepts, wide of each
# type's valid ranks
CLI_PAIRS = ([(label, rank) for label in "ABCD" for rank in range(-2, 13)]
             + [(label, rank) for label in ("E6", "E7", "E8", "F4", "G2")
                for rank in range(5, 10)])


def _build_outcome(label, rank):
    try:
        build(label, rank)
    except ValueError:
        return "ValueError"
    return "built"


def test_no_cli_reachable_system_trips_an_assert():
    # an AssertionError would escape _build_outcome and fail the test
    outcomes = {pair: _build_outcome(*pair) for pair in CLI_PAIRS}
    assert outcomes[("A", 12)] == outcomes[("D", 4)] == outcomes[("E7", 7)] == "built"
    assert outcomes[("A", 0)] == outcomes[("D", 3)] == outcomes[("F4", 5)] == "ValueError"
    # `python -O` strips asserts; the rejected pairs must still be rejected
    rejected = sorted(pair for pair, outcome in outcomes.items() if outcome == "ValueError")
    code = "\n".join([
        "import json, sys",
        "from adideals.rootsys import build",
        "assert False, 'asserts are on'",
        "for label, rank in json.loads(sys.argv[1]):",
        "    try:",
        "        build(label, rank)",
        "    except ValueError:",
        "        continue",
        "    raise SystemExit('%s%d was built' % (label, rank))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(adideals.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, json.dumps(rejected)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_low_rank_coincidences_are_distinct_labels():
    b2, c2 = build("B", 2), build("C", 2)
    assert b2.theta_coords == (1, 2)
    assert c2.theta_coords == (2, 1)


def test_root_order_examples():
    rs = build("A", 2)
    a1, a2 = rs.alpha(0), rs.alpha(1)
    assert root_order_leq(a1, rs.theta)
    assert not root_order_leq(a1, a2)
    assert not root_order_leq(a1 + a2, a1)


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_root_order_is_partial_order(label, rank):
    rs = build(label, rank)
    roots = rs.positive_roots
    for a in roots:
        assert root_order_leq(a, a)
    for a, b in itertools.permutations(roots, 2):
        if root_order_leq(a, b) and root_order_leq(b, a):
            raise AssertionError("antisymmetry fails")
    for a, b, c in itertools.product(roots, repeat=3):
        if root_order_leq(a, b) and root_order_leq(b, c):
            assert root_order_leq(a, c)


@pytest.mark.parametrize("label,rank", systems_up_to(5))
def test_theta_is_unique_maximum(label, rank):
    rs = build(label, rank)
    assert all(root_order_leq(r, rs.theta) for r in rs.positive_roots)


@pytest.mark.parametrize("label,rank", systems_up_to(5))
def test_every_nonsimple_root_descends(label, rank):
    rs = build(label, rank)
    for r in rs.positive_roots:
        if r.height == 1:
            continue
        assert any(
            is_positive_root(rs, (r - rs.alpha(i)).coords) for i in range(rank)
        )


@pytest.mark.parametrize("label,rank", systems_up_to(8))
def test_order_masks_match_coordinate_oracle(label, rank):
    rs = build(label, rank)
    up, strict_down = order_masks_by_coordinates(rs)
    assert rs.up_masks == tuple(up)
    assert rs.strict_down_masks == tuple(strict_down)


@pytest.mark.parametrize("label,rank", systems_up_to(30))
def test_heisenberg_mask_matches_pairing_oracle(label, rank):
    rs = build(label, rank)
    assert heisenberg_root_mask(rs) == heisenberg_mask_by_pairing(rs)


@pytest.mark.parametrize("label,rank", systems_up_to(8))
def test_decompositions_match_pair_addition_oracle(label, rank):
    rs = build(label, rank)
    assert rs.decompositions == tuple(decompositions_by_pairs(rs))
    # `affine._d_min_data` reads a simple root off the last split
    for splits in rs.decompositions[rs.rank:]:
        assert rs.simple_mask >> splits[-1][0] & 1


@pytest.mark.parametrize("label,rank", systems_up_to(30))
def test_packed_build_matches_tuple_oracle(label, rank):
    # every `verify` system is of rank <= 8, so all of them are among these
    rs = build(label, rank)
    oracle = tuple_root_system(label, rank)
    for name in ROOT_SYSTEM_TABLES:
        assert getattr(rs, name) == getattr(oracle, name), name
    if rank <= 12 or label in ("A", "D"):
        assert rs.decompositions == tuple(decompositions_by_pairs(oracle))


@pytest.mark.parametrize("label,rank", [("A", 5), ("D", 6), ("G2", 2), ("F4", 4), ("E8", 8)])
def test_fresh_build_holds_only_the_listed_tables(label, rank):
    # a new eager table needs an oracle in `tuple_root_system`; the lazy
    # properties, `lengths` among them, are not stored before their first read
    rs = RootSystem(label, rank)
    fresh = (set(ROOT_SYSTEM_TABLES) - {"lengths"}
             | {"rank", "type_label", "_keys", "_coroot_moduli"})
    assert set(vars(rs)) == fresh
    # the abelian test reads the decompositions and no table of its own
    for ideal in enumerate_ideals(rs):
        is_abelian(ideal)
    assert set(vars(rs)) == fresh | {"decompositions"}
    assert rs.lengths == tuple_root_system(label, rank).lengths
    assert set(vars(rs)) == fresh | {"decompositions", "lengths"}


def test_rank_100_builds_in_seconds():
    # the tuple-based build took about 11 s on A100, the packed one under 1 s
    start = time.perf_counter()
    rs = RootSystem("A", 100)
    assert time.perf_counter() - start < 5.0
    assert rs.num_positive == 5050 and rs.exponents == tuple(range(1, 101))


def test_build_memory_stays_sparse():
    # the dense N x N addition table alone peaked at about 12.8 MB on A40
    tracemalloc.start()
    try:
        RootSystem("A", 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("label,rank", systems_up_to(8))
def test_inner_products_match_fraction_gram_oracle(label, rank):
    rs = build(label, rank)
    points = [r.coords for r in rs.positive_roots[::7]] + [
        tuple(Fraction(i - j, 1 + i + j) for j in range(rank)) for i in range(3)
    ]
    for x, y in itertools.product(points, repeat=2):
        assert rs.bilinear(x, y) == brute_bilinear(rs, x, y)
    for gamma, nu in itertools.product(rs.positive_roots[::5], repeat=2):
        assert rs.pairing(gamma, nu) == brute_pairing(rs, gamma, nu)
    for i, r in enumerate(rs.positive_roots):
        length2 = brute_bilinear(rs, r.coords, r.coords)
        assert norm2(rs, r) == length2
        assert (rs.long_mask >> i & 1) == (length2 == 2)
    inv = _invert(fraction_gram(rs))
    assert rs.coweight_basis == tuple(
        tuple(inv[j][i] for j in range(rank)) for i in range(rank))


@pytest.mark.parametrize("label,rank", systems_up_to(8))
def test_coroot_lattice_membership_matches_fraction_oracle(label, rank):
    rs = build(label, rank)
    # x_j alpha_j is in the coroot lattice iff x_j |alpha_j|^2 / 2 is an integer
    steps = [Fraction(c, 6) for c in range(-7, 8)] + list(range(-7, 8))
    for j in range(rank):
        for c in steps:
            x = [0] * rank
            x[j] = c
            expected = (Fraction(c) * rs.lengths[j] / 2).denominator == 1
            assert rs.in_coroot_lattice(x) == expected
    # a long root is its own coroot; a short simple root is a proper fraction of it
    for i, r in enumerate(rs.positive_roots):
        if rs.long_mask >> i & 1:
            assert rs.in_coroot_lattice(r.coords)
        elif r.height == 1:
            assert not rs.in_coroot_lattice(r.coords)


@pytest.mark.parametrize("x", [(0,), ("1", 0), (0, 0, 0), (None, 0), (True, 0), (1.0, 0), 5])
def test_coroot_lattice_test_rejects_malformed_points(x):
    with pytest.raises(ValueError, match="2 int or Fraction coordinates"):
        build("A", 2).in_coroot_lattice(x)


def test_coweight_basis_is_computed_on_first_use():
    rs = RootSystem("B", 3)  # a fresh build, not the cached one
    assert "coweight_basis" not in rs.__dict__
    basis = rs.coweight_basis
    assert rs.__dict__["coweight_basis"] is basis


# the dual Coxeter numbers of the literature (Kac, Infinite-dimensional Lie
# algebras, Table Aff), an oracle for the h^vee of `_coweights`
DUAL_COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1, "C": lambda n: n + 1,
                "D": lambda n: 2 * n - 2, "E6": lambda n: 12, "E7": lambda n: 18,
                "E8": lambda n: 30, "F4": lambda n: 9, "G2": lambda n: 4}


@pytest.mark.parametrize("label,rank", systems_up_to(30))
def test_coweight_table_holds_the_dual_coxeter_number_and_is_symmetric(label, rank):
    dual, table = build(label, rank)._coweights
    assert dual == DUAL_COXETER[label](rank)
    assert table == tuple(zip(*table))


def test_pairing_examples():
    a2 = build("A", 2)
    assert a2.pairing(a2.theta, a2.theta) == 2
    assert a2.pairing(a2.alpha(0), a2.alpha(1)) == -1
    g2 = build("G2", 2)
    assert g2.pairing(g2.alpha(0), g2.alpha(1)) == g2.cartan[0][1]
    assert g2.pairing(g2.alpha(1), g2.alpha(0)) == g2.cartan[1][0]


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_pairings_are_integers(label, rank):
    rs = build(label, rank)
    for a, b in itertools.product(rs.positive_roots, repeat=2):
        assert isinstance(rs.pairing(a, b), int)


def test_long_roots():
    a2 = build("A", 2)
    assert len(a2.long_positive_roots()) == 3
    c3 = build("C", 3)
    longs = set(c3.long_positive_roots())
    for r in c3.positive_roots:
        if r in longs:
            assert norm2(c3, r) == 2
        else:
            assert 2 * norm2(c3, r) == 2
    for label, rank in systems_up_to(5):
        rs = build(label, rank)
        assert rs.theta in rs.long_positive_roots()


def test_simple_roots_and_cartan():
    rs = build("B", 3)
    simples = rs.simple_roots()
    assert [s.height for s in simples] == [1, 1, 1]
    for i in range(3):
        for j in range(3):
            assert rs.pairing(simples[i], simples[j]) == rs.cartan[i][j]


def test_describe_dump():
    text = describe(build("A", 2))
    assert "3 positive roots" in text
    assert "[1,1]" in text and "height=2" in text


def test_root_arithmetic():
    r = Root((1, 0)) + Root((0, 1))
    assert r == Root((1, 1)) and r.height == 2
    assert (-r).coords == (-1, -1)
    assert not (-r).is_positive()
