from functools import lru_cache

import pytest

from adideals.rootsys import Root, build
from adideals import ideals as I
from adideals.lattice_count import count_AD, count_AD0
from helpers import (
    brute_is_abelian, brute_k, brute_l, brute_power_mask, brute_xi,
    one_pass_minimax_failure, systems_up_to, two_table_is_minimax,
)


def heis(rs):
    return I.Ideal(rs, I.heisenberg_root_mask(rs))


def test_generators_examples():
    rs = build("A", 2)
    assert set(I.generators(I.full_ideal(rs))) == set(rs.simple_roots())
    assert I.generators(I.empty_ideal(rs)).roots == ()
    assert set(I.generators(heis(rs))) == {rs.alpha(0), rs.alpha(1)}


def test_ideal_of_examples():
    rs = build("A", 2)
    just_theta = I.ideal_of(I.Antichain(rs, [rs.theta]))
    assert just_theta.members() == [rs.theta]
    assert I.ideal_of(I.Antichain(rs, rs.simple_roots())) == I.full_ideal(rs)

    rs4 = build("A", 4)
    gamma = I.Antichain(rs4, [Root((1, 1, 0, 0)), Root((0, 0, 1, 1))])
    ideal = I.ideal_of(gamma)
    assert I.generators(ideal) == gamma
    assert {r.coords for r in ideal.members()} == {
        (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 1, 1)
    }


def test_antichain_rejects_comparable_pair():
    rs = build("A", 2)
    with pytest.raises(ValueError, match="comparable"):
        I.Antichain(rs, [rs.alpha(0), rs.theta])


def test_ideal_constructor_rejects_non_ideal():
    rs = build("A", 2)
    with pytest.raises(ValueError, match="not an ideal"):
        I.Ideal(rs, 1 << rs.simple_indices[0])


@pytest.mark.parametrize("mask", [-1, 1 << 3, 1 << 40, 2.0, True])
def test_ideal_constructor_rejects_malformed_mask(mask):
    # A2 has three positive roots, so its masks are the ints 0 .. 7
    with pytest.raises(ValueError, match="not an int mask below 2\\*\\*3"):
        I.Ideal(build("A", 2), mask)


@pytest.mark.parametrize("root", [(1, 0), Root([0, 1]), None])
def test_roots_without_hashable_coords_rejected(root):
    rs = build("A", 2)
    with pytest.raises(ValueError, match="is not a positive root of"):
        I.Antichain(rs, [root])
    with pytest.raises(ValueError, match="is not a positive root of"):
        I.ideal_from_roots(rs, [root])
    with pytest.raises(ValueError, match="is not a positive root of"):
        I.l_value(root, I.full_ideal(rs))


@pytest.mark.parametrize("root", [(1, 0), None, Root([0, 1]), Root((9, 9))])
def test_membership_of_non_roots_is_false(root):
    assert root not in I.full_ideal(build("A", 2))


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_generator_round_trip(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        gamma = I.generators(ideal)
        assert I.ideal_of(gamma) == ideal
        assert I.generators(I.ideal_of(gamma)) == gamma
        # generators skips the constructor's checks; they must pass, in order
        assert I.Antichain(rs, reversed(gamma.roots)) == gamma


def test_strictly_positive_and_abelian():
    rs = build("A", 2)
    empty = I.empty_ideal(rs)
    assert I.is_strictly_positive(empty) and I.is_abelian(empty)
    full = I.full_ideal(rs)
    assert not I.is_strictly_positive(full) and not I.is_abelian(full)
    just_theta = I.ideal_of(I.Antichain(rs, [rs.theta]))
    assert I.is_strictly_positive(just_theta) and I.is_abelian(just_theta)


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_heisenberg_powers(label, rank):
    rs = build(label, rank)
    h = heis(rs)
    if rank == 1:  # theta is simple, so it is not a sum of two members
        assert I.power(h, 2).size == 0
    else:
        assert I.power(h, 2).members() == [rs.theta]
    assert I.power(h, 3).size == 0


def test_power_of_full_ideal_dies_at_coxeter_number():
    for label, rank in systems_up_to(4):
        rs = build(label, rank)
        full = I.full_ideal(rs)
        h = rs.coxeter_number
        assert I.power(full, h - 1).members() == [rs.theta]
        assert I.power(full, h).size == 0


def test_abelian_ideals_square_to_zero():
    rs = build("B", 3)
    for ideal in I.enumerate_ideals(rs, "abelian"):
        assert I.power(ideal, 2).size == 0


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_powers_track_l_values(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        lt = I._l_table(ideal)
        prev = ideal
        for k in range(1, rs.coxeter_number + 1):
            pk = I.power(ideal, k)
            assert pk.mask & ~prev.mask == 0  # I^{k+1} subset I^k
            expected = 0
            for m in I._iter_bits(ideal.mask):
                if lt[m] >= k:
                    expected |= 1 << m
            assert pk.mask == expected
            prev = pk
            if not pk.mask:
                break


@pytest.mark.parametrize("label,rank", systems_up_to(5))  # includes G2 and F4
def test_abelian_and_powers_match_member_pairs(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        assert I.is_abelian(ideal) == brute_is_abelian(ideal)
        for k in (1, 2, 3, 4):
            assert I.power(ideal, k).mask == brute_power_mask(ideal, k)


@pytest.mark.parametrize("label,rank", systems_up_to(6) + [("E7", 7)])  # E6 included
def test_abelian_iff_square_is_empty(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        assert I.is_abelian(ideal) == (not I.power(ideal, 2).mask)


@pytest.mark.parametrize("k", [0, 2.5, "2"])
def test_power_rejects_k_that_is_no_positive_int(k):
    with pytest.raises(ValueError, match="k >= 1"):
        I.power(I.full_ideal(build("A", 3)), k)


@pytest.mark.parametrize("label,rank", systems_up_to(5) + [("E6", 6)])  # G2, F4 included
def test_xi_matches_coordinate_maxima(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        assert [r.coords for r in I.xi(ideal)] == brute_xi(ideal)


def test_xi_examples():
    rs = build("A", 2)
    assert I.xi(I.empty_ideal(rs)).roots == (rs.theta,)
    assert I.xi(I.full_ideal(rs)).roots == ()
    mask = (1 << rs.num_positive) - 1 & ~rs.simple_mask
    assert set(I.xi(I.Ideal(rs, mask))) == set(rs.simple_roots())

    rs4 = build("A", 4)
    ideal = I.ideal_of(I.Antichain(rs4, [Root((1, 1, 0, 0)), Root((0, 0, 1, 1))]))
    assert set(r.coords for r in I.xi(ideal)) == {
        (1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)
    }


def test_l_value_examples():
    rs = build("A", 2)
    just_theta = I.ideal_of(I.Antichain(rs, [rs.theta]))
    assert I.l_value(rs.theta, just_theta) == 1
    assert I.l_value(rs.theta, heis(rs)) == 2
    for label, rank in systems_up_to(3):
        system = build(label, rank)
        assert I.l_value(system.theta, I.full_ideal(system)) == system.coxeter_number - 1
    with pytest.raises(ValueError, match="requires gamma"):
        I.l_value(rs.alpha(0), just_theta)


def test_k_value_examples():
    rs = build("A", 2)
    just_theta = I.ideal_of(I.Antichain(rs, [rs.theta]))
    assert I.k_value(rs.theta, just_theta) == 2
    assert I.k_value(rs.alpha(0), just_theta) == 1
    with pytest.raises(ValueError, match="strictly positive"):
        I.k_value(rs.theta, I.full_ideal(rs))


@pytest.mark.parametrize("label,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                        ("C", 3), ("G2", 2)])
def test_lk_dp_against_multiset_oracle(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        lt = I._l_table(ideal)
        for m in I._iter_bits(ideal.mask):
            assert lt[m] == brute_l(ideal, rs.positive_roots[m])
        if I.is_strictly_positive(ideal):
            kt = I._k_table(ideal)
            for m in range(rs.num_positive):
                assert kt[m] == brute_k(ideal, rs.positive_roots[m])


@pytest.mark.parametrize("label,rank", systems_up_to(5))
def test_l_at_most_k_minus_one(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs, "strictly_positive"):
        lt, kt = I._l_table(ideal), I._k_table(ideal)
        for m in I._iter_bits(ideal.mask):
            assert lt[m] <= kt[m] - 1


@pytest.mark.parametrize("label,rank", systems_up_to(6))
def test_is_minimax_matches_two_table_oracle(label, rank):
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs):
        assert I.is_minimax(ideal) == two_table_is_minimax(ideal)


@pytest.mark.parametrize("label,rank", systems_up_to(5))
def test_first_minimax_failure_is_lowest_two_table_mismatch(label, rank):
    # the pruning of the minimax walk rests on the scan stopping exactly at
    # the lowest member where the full tables disagree
    rs = build(label, rank)
    for ideal in I.enumerate_ideals(rs, "strictly_positive"):
        lt, kt = I._l_table(ideal), I._k_table(ideal)
        lowest = next((m for m in I._iter_bits(ideal.mask) if kt[m] - 1 != lt[m]), -1)
        scan = I._first_minimax_failure(rs.decompositions, [1] * rs.num_positive, ideal.mask)
        assert scan == lowest


@pytest.mark.parametrize("label,rank", systems_up_to(6) + [("E7", 7), ("E8", 8)])
def test_first_minimax_failure_matches_the_one_pass_scan(label, rank):
    # the two early-exit passes against the full pass they replaced: the
    # same failure and the same k on the members passed; on E8 every 25th
    # strictly positive ideal in walk order
    rs = build(label, rank)
    ideals = list(I.enumerate_ideals(rs, "strictly_positive"))
    for ideal in ideals[::25 if label == "E8" else 1]:
        fast, slow = [1] * rs.num_positive, [1] * rs.num_positive
        assert (I._first_minimax_failure(rs.decompositions, fast, ideal.mask)
                == one_pass_minimax_failure(rs.decompositions, slow, ideal.mask))
        assert fast == slow


def test_e8_minimax_enumeration_matches_two_table_filter():
    rs = build("E8", 8)
    fast = [ideal.mask for ideal in I.enumerate_ideals(rs, "minimax")]
    slow = [ideal.mask for ideal in I.enumerate_ideals(rs) if two_table_is_minimax(ideal)]
    assert len(fast) == 834
    assert fast == slow


# the oracle of each class: the two-table minimax test, else the class's own
# predicate on an ideal of the unpruned walk
ORACLES = {
    "minimax": two_table_is_minimax,
    "abelian": I.is_abelian,
    "non_abelian": lambda ideal: not I.is_abelian(ideal),
    "strictly_positive": I.is_strictly_positive,
    "heisenberg_contained": I.is_heisenberg_contained,
    "nontrivial": lambda ideal: ideal.mask != 0,
}
PRUNED_CLASSES = [
    ("minimax",), ("abelian",), ("strictly_positive",), ("heisenberg_contained",),
    ("minimax", "non_abelian"), ("minimax", "abelian"),
    ("heisenberg_contained", "nontrivial"), ("abelian", "heisenberg_contained"),
    ("nontrivial",), ("non_abelian",), ("nontrivial", "non_abelian"),
    ("minimax", "heisenberg_contained"), ("minimax", "nontrivial"),
    ("minimax", "strictly_positive"),
]


@lru_cache(maxsize=None)
def unpruned_ideals(label, rank):
    return list(I.enumerate_ideals(build(label, rank)))


@pytest.mark.parametrize("classes", PRUNED_CLASSES, ids=",".join)
@pytest.mark.parametrize("label,rank", systems_up_to(6) + [("E7", 7)])
def test_pruned_walk_matches_filtered_unpruned_walk(label, rank, classes):
    assert_pruned_walk_matches_filtered(label, rank, classes)


@pytest.mark.parametrize("label,rank", [("B", 7), ("C", 7), ("D", 7)])
def test_pruned_minimax_walk_matches_filtered_unpruned_walk_at_rank_7(label, rank):
    assert_pruned_walk_matches_filtered(label, rank, ("minimax",))


def assert_pruned_walk_matches_filtered(label, rank, classes):
    pruned = [ideal.mask for ideal in I.enumerate_ideals(build(label, rank), classes)]
    filtered = [ideal.mask for ideal in unpruned_ideals(label, rank)
                if all(ORACLES[name](ideal) for name in classes)]
    assert pruned == filtered


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_enumeration_counts_match_formulas(label, rank):
    rs = build(label, rank)
    assert sum(1 for _ in I.enumerate_ideals(rs)) == count_AD(rs).value
    assert (
        sum(1 for _ in I.enumerate_ideals(rs, "strictly_positive"))
        == count_AD0(rs).value
    )


def test_enumeration_examples():
    rs = build("A", 2)
    assert sum(1 for _ in I.enumerate_ideals(rs)) == 5
    sp = list(I.enumerate_ideals(rs, "strictly_positive"))
    assert {i.size for i in sp} == {0, 1}
    with pytest.raises(ValueError, match="unknown filter"):
        list(I.enumerate_ideals(rs, "bogus"))


def test_enumeration_is_deterministic():
    rs = build("B", 3)
    first = [i.mask for i in I.enumerate_ideals(rs)]
    second = [i.mask for i in I.enumerate_ideals(rs)]
    assert first == second
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("label,rank", systems_up_to(4))
def test_generator_xi_bound(label, rank):
    rs = build(label, rank)
    full_minus_simple = (1 << rs.num_positive) - 1 & ~rs.simple_mask
    for ideal in I.enumerate_ideals(rs):
        total = len(I.generators(ideal)) + len(I.xi(ideal))
        assert total <= 2 * rank - 1
        if total == 2 * rank - 1 and rank > 1:
            assert ideal.mask == full_minus_simple


def test_shi_inequalities():
    rs = build("A", 2)
    empty = I.empty_ideal(rs)
    cons = I.shi_inequalities(empty)
    assert len(cons) == rs.rank + rs.num_positive
    from fractions import Fraction

    x = (Fraction(1, 4), Fraction(1, 4))
    assert I.shi_region_contains(empty, x)
    # violating (x, alpha_1) > 0 excludes the point from every region
    bad = (Fraction(-1), Fraction(0))
    for ideal in I.enumerate_ideals(rs):
        assert not I.shi_region_contains(ideal, bad)


def test_serialization_round_trip():
    rs = build("C", 3)
    for ideal in I.enumerate_ideals(rs):
        rec = I.ideal_to_record(ideal)
        assert rec["type"] == "C" and rec["rank"] == 3
        assert I.ideal_from_record(rec) == ideal
        assert I.ideal_from_record(rec, rs) == ideal


@pytest.mark.parametrize("record", [
    {},
    {"type": "C", "rank": 3},
    {"type": "C", "generators": []},
    {"rank": 3, "generators": []},
    {"type": "C", "rank": 3, "generators": 5},
    {"type": "C", "rank": 3, "generators": [5]},
    {"type": "C", "rank": 3, "generators": [[1.0, 0, 0]]},
    {"type": "C", "rank": 3, "generators": [[[1], 0, 0]]},
    {"type": "C", "rank": "3", "generators": []},
    {"type": "Z", "rank": 3, "generators": []},
    [["C", 3]],
])
def test_ideal_from_record_rejects_malformed(record):
    with pytest.raises(ValueError):
        I.ideal_from_record(record)
    if isinstance(record, dict) and "generators" not in record:
        with pytest.raises(ValueError, match="generators"):
            I.ideal_from_record(record, build("C", 3))
