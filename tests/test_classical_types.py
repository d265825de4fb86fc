import itertools
import re

import pytest

from adideals.rootsys import Root, build
from adideals import classical_types as C
from adideals import ideals as I
from adideals.lattice_count import directed_animals, motzkin
from helpers import (
    a_pair_by_support, ballot_count, sp_pair_coords, sp_restriction_by_support,
    sp_root_to_pair_by_search, symmetrize_by_search,
)


def antichain_of(rs, coord_lists):
    return I.Antichain(rs, [Root(tuple(c)) for c in coord_lists])


def test_to_pairs_examples():
    rs = build("A", 4)
    pa = C.to_pairs(antichain_of(rs, [(1, 1, 0, 0)]))
    assert pa.pairs == ((1, 3),)
    rs2 = build("A", 2)
    assert C.to_pairs(antichain_of(rs2, [(1, 0), (0, 1)])).pairs == ((1, 2), (2, 3))


def test_from_pairs_round_trip_a4():
    rs = build("A", 4)
    for ideal in I.enumerate_ideals(rs):
        gamma = I.generators(ideal)
        assert C.from_pairs(C.to_pairs(gamma), rs) == gamma
    pa = C.PairAntichain(4, [(1, 3), (3, 5)])
    assert C.to_pairs(C.from_pairs(pa)) == pa


def test_to_pairs_rejects_other_types():
    rs = build("B", 2)
    with pytest.raises(ValueError, match="type A"):
        C.to_pairs(I.generators(I.full_ideal(rs)))


def test_pair_antichain_validation():
    with pytest.raises(ValueError, match="out of range"):
        C.PairAntichain(3, [(1, 5)])
    with pytest.raises(ValueError, match="increasing"):
        C.PairAntichain(4, [(1, 4), (2, 3)])


@pytest.mark.parametrize("entry", [(1.0, 3.0), (True, 3), (1, False), "13", ("1", "3"),
                                   (1,), (1, 2, 3), 1, None],
                         ids=["float", "bool", "bool-b", "str", "str-pair", "1-tuple",
                              "3-tuple", "int", "none"])
def test_pair_antichain_rejects_malformed_pairs(entry):
    # a float, bool or str pair is no pair of A_n, and no entry is unpacked
    with pytest.raises(ValueError, match=r"a pair is two ints, not %s$" % re.escape(repr(entry))):
        C.PairAntichain(3, [(1, 2), entry])


def test_non_meeting_examples():
    assert C.has_non_meeting_generators(C.PairAntichain(4, [(1, 3), (3, 5)]))
    assert not C.has_non_meeting_generators(C.PairAntichain(4, [(1, 2)]))
    assert not C.has_non_meeting_generators(C.PairAntichain(3, [(1, 3), (2, 4)]))


def test_count_non_meeting():
    assert [C.count_non_meeting(4, k) for k in range(3)] == [1, 6, 2]
    assert sum(C.count_non_meeting(4, k) for k in range(3)) == 9
    assert C.count_non_meeting(7, 0) == 1
    assert sum(C.count_non_meeting(8, k) for k in range(5)) == 323


@pytest.mark.parametrize("n", range(1, 8))
def test_non_meeting_agrees_with_minimax_type_a(n):
    rs = build("A", n)
    for ideal in I.enumerate_ideals(rs):
        nm = C.has_non_meeting_generators(C.to_pairs(I.generators(ideal)))
        assert nm == I.is_minimax(ideal)


def test_sp_pair_encoding():
    rs = build("C", 3)
    assert C.sp_pair_to_root(rs, (1, 6)) == rs.theta
    assert C.sp_root_to_pair(rs, rs.theta) == (1, 6)
    for r in rs.positive_roots:
        assert C.sp_pair_to_root(rs, C.sp_root_to_pair(rs, r)) == r
    pairs = {C.sp_root_to_pair(rs, r) for r in rs.positive_roots}
    assert pairs == {
        (i, j) for i in range(1, 7) for j in range(i + 1, 8 - i)
    }
    with pytest.raises(ValueError, match="not a positive-root pair"):
        C.sp_pair_to_root(rs, (3, 6))


@pytest.mark.parametrize("n", range(1, 13))
def test_pair_table_matches_support_scan_type_a(n):
    rs = build("A", n)
    pairs, index = C._pair_table(rs)
    assert pairs == tuple(a_pair_by_support(r) for r in rs.positive_roots)
    assert index == {pair: idx for idx, pair in enumerate(pairs)}


@pytest.mark.parametrize("n", range(2, 13))
def test_pair_table_matches_search_type_c(n):
    rs = build("C", n)
    pairs, index = C._pair_table(rs)
    assert pairs == tuple(sp_root_to_pair_by_search(rs, r) for r in rs.positive_roots)
    assert index == {pair: idx for idx, pair in enumerate(pairs)}
    for pair in pairs:
        assert C.sp_pair_to_root(rs, pair).coords == sp_pair_coords(n, *pair)


def test_pair_lookups_keep_their_checks():
    rs_a, rs_c = build("A", 3), build("C", 3)
    with pytest.raises(ValueError, match="type C"):
        C.sp_root_to_pair(rs_a, rs_a.theta)
    with pytest.raises(ValueError, match="type C"):
        C.sp_pair_to_root(rs_a, (1, 2))
    with pytest.raises(ValueError, match="not a positive root"):
        C.sp_root_to_pair(rs_c, Root((1, 0, 1)))
    for pair in [(0, 2), (2, 2), (3, 5)]:
        with pytest.raises(ValueError, match="not a positive-root pair"):
            C.sp_pair_to_root(rs_c, pair)
    for pair in [(1.5, 2), (1.0, 2.0), (True, 2), 1, (1, 2, 3)]:
        with pytest.raises(ValueError, match="two ints"):
            C.sp_pair_to_root(rs_c, pair)
    for pair in [(1.5, 2), (1.0, 2.0)]:
        with pytest.raises(ValueError, match="two ints"):
            C.from_pairs(C.PairAntichain(3, [pair]))
    with pytest.raises(ValueError, match="type A"):
        C.from_pairs(C.PairAntichain(3, [(1, 2)]), rs_c)
    with pytest.raises(ValueError, match="rank mismatch"):
        C.from_pairs(C.PairAntichain(2, [(1, 2)]), rs_a)


def test_fold_pair():
    assert C.fold_pair(2, 1, 3) == (1, 3)
    assert C.fold_pair(2, 2, 4) == (1, 3)
    assert C.fold_pair(2, 3, 4) == (1, 2)


def test_symmetrize_examples():
    rs = build("C", 3)
    empty = I.empty_ideal(rs)
    assert C.symmetrize(empty).size == 0
    assert C.is_self_conjugate(C.symmetrize(empty))

    theta_ideal = I.ideal_of(I.Antichain(rs, [rs.theta]))
    bar = C.symmetrize(theta_ideal)
    pairs = C.to_pairs(I.generators(bar)).pairs
    assert pairs == ((1, 6),)


@pytest.mark.parametrize("n", range(2, 7))
def test_symmetrize_and_restriction_match_oracles(n):
    rs = build("C", n)
    for ideal in I.enumerate_ideals(rs):
        bar = C.symmetrize(ideal)
        assert bar == symmetrize_by_search(ideal)
        assert C.sp_restriction(bar) == sp_restriction_by_support(bar)


@pytest.mark.parametrize("n", range(2, 7))
def test_symmetrize_round_trip(n):
    rs = build("C", n)
    for ideal in I.enumerate_ideals(rs):
        bar = C.symmetrize(ideal)
        assert C.is_self_conjugate(bar)
        assert C.sp_restriction(bar) == ideal


def test_symmetrize_generator_prefix():
    # the C_n generators are the first ceil(k/2) generator pairs of the
    # symmetrisation
    rs = build("C", 3)
    for ideal in I.enumerate_ideals(rs):
        bar_pairs = C.to_pairs(I.generators(C.symmetrize(ideal))).pairs
        k = len(bar_pairs)
        expected = bar_pairs[: (k + 1) // 2]
        got = tuple(
            sorted(C.sp_root_to_pair(rs, r) for r in I.generators(ideal).roots)
        )
        assert got == expected


def test_symmetrize_commutes_with_powers():
    rs = build("C", 3)
    for ideal in I.enumerate_ideals(rs):
        bar = C.symmetrize(ideal)
        for k in (2, 3):
            assert C.symmetrize(I.power(ideal, k)) == I.power(bar, k)


@pytest.mark.parametrize("n", range(2, 8))
def test_sp_minimax_agrees_with_generic(n):
    rs = build("C", n)
    for ideal in I.enumerate_ideals(rs):
        assert C.sp_is_minimax(ideal) == I.is_minimax(ideal)


def test_one_generator_minimax_count_and_excluded_roots():
    for n in range(2, 9):
        rs = build("C", n)
        good = set()
        for r in rs.positive_roots:
            if C.sp_is_minimax(I.ideal_of(I.Antichain(rs, [r]))):
                good.add(r.coords)
        assert len(good) == (n - 1) ** 2
        # the tails alpha_i + ... + alpha_n for i = 1..n-1
        tails = {
            tuple(1 if j >= i - 1 else 0 for j in range(n)) for i in range(1, n)
        }
        excluded = {a.coords for a in rs.simple_roots()} | tails
        assert good == {r.coords for r in rs.positive_roots} - excluded


def test_count_sp_minimax_values():
    for n in range(2, 9):
        assert C.count_sp_minimax(n, 1) == (n - 1) ** 2
        assert C.count_sp_minimax(n, 0) == 1
    assert sum(C.count_sp_minimax(4, q) for q in range(3)) == 13
    with pytest.raises(ValueError):
        C.count_sp_minimax(1, 0)


def test_ballot_count_against_enumeration():
    for k in range(0, 11):
        direct = sum(
            1
            for seq in itertools.product((1, -1), repeat=k)
            if all(sum(seq[: m + 1]) >= 0 for m in range(k))
        )
        assert ballot_count(k) == direct


def test_generating_function_examples():
    assert C.generating_function_Fmm("A", 4) == [1, 6, 2]
    assert C.generating_function_Fmm("C", 2) == [1, 1]
    assert C.generating_function_Fmm("A", 1) == [1]
    with pytest.raises(ValueError, match="only A and C"):
        C.generating_function_Fmm("B", 3)


def test_generating_function_totals():
    for n in range(1, 21):
        assert sum(C.generating_function_Fmm("A", n)) == motzkin(n)
    for n in range(2, 21):
        assert sum(C.generating_function_Fmm("C", n)) == directed_animals(n)


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                        ("A", 5), ("A", 6),
                                        ("C", 2), ("C", 3), ("C", 4)])
def test_generating_function_matches_enumeration(label, rank):
    rs = build(label, rank)
    assert C.minimax_generator_distribution(rs) == C.generating_function_Fmm(
        label, rank
    )


def test_b_and_c_distributions_reported():
    # reported, not asserted: whether the generator statistic agrees
    # between B_n and C_n is open beyond small ranks
    for n in range(2, 5):
        b = C.minimax_generator_distribution(build("B", n))
        c = C.minimax_generator_distribution(build("C", n))
        assert sum(b) == sum(c) == directed_animals(n)
        print("F_mm distribution n=%d: B=%s C=%s match=%s" % (n, b, c, b == c))
