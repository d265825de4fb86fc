"""Property tests over random ideals of every type of rank <= 6, of rank
<= 7 for the growth of w_min and w_max, of E7 and E8 for the minimax
and abelian tests, and of C_n, n <= 8, for the type C pair coordinates;
over random affine Weyl elements of every type of rank <= 4 (G2 and F4
included) for their inversion data; over random roots of every type of
rank <= 30 for the packed root-system build; over random regular
vectors of every type of rank <= 8 for the chamber sort; over random
rational points of every type of rank <= 6 for the Shi and polytope
tests; over random Laurent products, with congruence forms, for the
packed lattice count; and over random nested JSON values for the CLI's
JSON writer.

Derandomised, so every run draws the same examples.
"""

import json
from operator import ge, le, mul

from hypothesis import assume, example, given, settings, strategies as st

from adideals import affine as A
from adideals import cli
from adideals import classical_types as C
from adideals import heisenberg as H
from adideals import ideals as I
from adideals import lattice_count as L
from adideals.rootsys import Root, RootSystem, build
from helpers import (
    affine_inverse, affine_product, brute_bilinear, brute_is_abelian,
    d_max_contains_by_bilinear, d_min_contains_by_bilinear, inverse_simple_levels,
    laurent_coefficient_by_dp, level_scan_inversions, most_negative_first_sort,
    peel_element_from_inversions, peel_reduced_word, prescribed_inversions,
    shi_region_contains_by_bilinear,
    sp_restriction_by_support, sp_root_to_pair_by_search, symmetrize_by_search,
    systems_up_to, tuple_root_system, two_table_is_minimax,
)

SYSTEMS = systems_up_to(6)
RANK_7_SYSTEMS = systems_up_to(7)  # A1 first; G2, F4, E6 and E7 included
LARGE_SYSTEMS = [("E7", 7), ("E8", 8)]
TYPE_C_SYSTEMS = [("C", n) for n in range(2, 9)]


@st.composite
def ideals(draw, systems=SYSTEMS, strictly_positive=False):
    """An ideal of a drawn system, generated by a drawn antichain (of
    non-simple roots if `strictly_positive`)."""
    rs = build(*draw(st.sampled_from(systems)))
    # roots are sorted by height, so the simple roots come first
    lowest = rs.rank if strictly_positive else 0
    picks = draw(st.lists(st.integers(lowest, rs.num_positive - 1), max_size=rs.rank))
    kept = 0
    for idx in picks:  # keep a root only if it is incomparable to all kept
        if not kept & (rs.up_masks[idx] | rs.strict_down_masks[idx]):
            kept |= 1 << idx
    roots = [r for i, r in enumerate(rs.positive_roots) if kept >> i & 1]
    return I.ideal_of(I.Antichain(rs, roots))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(ideals())
def test_w_min_properties(ideal):
    rs = ideal.rs
    w = A.w_min(ideal)
    assert A.first_layer_ideal(w) == ideal
    lt = I._l_table(ideal)
    assert A.length(w) == sum(lt[idx] for idx in I._iter_bits(ideal.mask))
    assert A.element_from_word(rs, A.reduced_word(w)) == w
    assert w == peel_element_from_inversions(rs, prescribed_inversions(ideal))
    winv = w.inverse()
    assert winv == affine_inverse(w)
    assert (w * winv).is_identity()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.one_of(ideals(RANK_7_SYSTEMS), ideals(RANK_7_SYSTEMS[1:], strictly_positive=True)))
def test_level_growth_matches_inversion_set_growth(ideal):
    # w_min and w_max test each candidate root against the l- or k-table;
    # element_from_inversions tests it against the prescribed set
    rs = ideal.rs
    assert A.w_min(ideal) == A.element_from_inversions(rs, prescribed_inversions(ideal))
    if I.is_strictly_positive(ideal):
        assert A.w_max(ideal) == A.element_from_inversions(
            rs, prescribed_inversions(ideal, maximal=True))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(ideals())
def test_ideal_round_trips(ideal):
    assert I.ideal_of(I.generators(ideal)) == ideal
    record = json.loads(json.dumps(I.ideal_to_record(ideal)))
    assert I.ideal_from_record(record) == ideal


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(ideals())
def test_element_record_round_trip(ideal):
    w = A.w_min(ideal)
    record = json.loads(json.dumps(A.element_to_record(w)))
    assert A.element_from_record(ideal.rs, record) == w


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.one_of(ideals(LARGE_SYSTEMS), ideals(LARGE_SYSTEMS, strictly_positive=True)))
def test_is_minimax_matches_two_table_oracle_on_e7_e8(ideal):
    assert I.is_minimax(ideal) == two_table_is_minimax(ideal)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.one_of(ideals(LARGE_SYSTEMS), ideals(LARGE_SYSTEMS, strictly_positive=True)))
def test_is_abelian_matches_member_pairs_on_e7_e8(ideal):
    assert I.is_abelian(ideal) == brute_is_abelian(ideal)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(ideals(TYPE_C_SYSTEMS))
def test_type_c_pair_lookups_match_search_oracles(ideal):
    rs = ideal.rs
    gens = I.generators(ideal).roots
    assert [C.sp_root_to_pair(rs, r) for r in gens] == [
        sp_root_to_pair_by_search(rs, r) for r in gens]
    bar = C.symmetrize(ideal)
    assert bar == symmetrize_by_search(ideal)
    assert C.sp_restriction(bar) == sp_restriction_by_support(bar) == ideal
    assert C.is_self_conjugate(bar)
    assert C.sp_is_minimax(ideal) == I.is_minimax(ideal)


def _elements_of(rs):
    """Elements of drawn words, coroot translations, sign -1 Heisenberg
    elements, and products of two of these."""
    words = st.lists(st.integers(0, rs.rank), max_size=12).map(
        lambda word: A.element_from_word(rs, word))
    # alpha_j^vee = (2 / |alpha_j|^2) alpha_j in root coordinates
    steps = [int(2 / x) for x in rs.lengths]
    translations = st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank).map(
        lambda n: A.translation(rs, [a * b for a, b in zip(steps, n)]))
    heisenberg = st.sampled_from(rs.long_positive_roots()).map(
        lambda nu: H.heisenberg_element(rs, H.HeisenbergElementDescriptor(nu, -1)))
    single = st.one_of(words, translations, heisenberg)
    return st.one_of(single, st.tuples(single, single).map(lambda pair: pair[0] * pair[1]))


@st.composite
def elements(draw, systems=systems_up_to(4)):
    return draw(_elements_of(build(*draw(st.sampled_from(systems)))))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(elements())
def test_inversion_data_matches_level_scan(w):
    rs = w.rs
    scan = level_scan_inversions(w)
    assert A.inversion_set(w) == scan
    assert A.length(w) == len(scan)
    simples = [A.simple_affine_root(rs, i) for i in range(rs.rank + 1)]
    dominant = all(A.act_affine_root(w, a).is_positive() for a in simples[1:])
    assert A.is_dominant(w) == dominant
    if dominant:
        # mu is in the first layer iff delta - mu is an inversion
        first = sum(1 << rs.index_of(-Root(b.finite)) for b in scan
                    if b.level == 1 and not Root(b.finite).is_positive())
        assert A.first_layer_ideal(w).mask == first
    winv = affine_inverse(w)
    assert inverse_simple_levels(w) == [A.act_affine_root(winv, a).level for a in simples]
    assert A.reduced_word(w) == peel_reduced_word(w)
    assert w.inverse() == winv


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(elements())
def test_element_predicates_match_the_level_rule(w):
    # the D_min/D_max/D_mm tests of the lattice image against the levels of
    # w^{-1}(alpha_i), i = 0..p, that the predicates read before
    levels = inverse_simple_levels(w)
    dominant = A.is_dominant(w)
    assert A.is_minimal(w) == (dominant and min(levels) >= -1)
    assert A.is_maximal(w) == (dominant and max(levels) <= 1)
    assert A.is_minimax_element(w) == (dominant and all(-1 <= k <= 1 for k in levels))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.data())
def test_products_of_drawn_elements_match_matrix_product(data):
    rs = build(*data.draw(st.sampled_from(systems_up_to(4))))
    w1, w2 = data.draw(_elements_of(rs)), data.draw(_elements_of(rs))
    assert w1 * w2 == affine_product(w1, w2)


@st.composite
def roots_of_systems(draw, systems=systems_up_to(30)):
    """(label, rank, k) for a drawn system and a drawn positive-root index k."""
    label, rank = draw(st.sampled_from(systems))
    return label, rank, draw(st.integers(0, build(label, rank).num_positive - 1))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(roots_of_systems())
def test_packed_build_matches_oracles_root_by_root(drawn):
    label, rank, k = drawn
    rs = RootSystem(label, rank)  # a fresh build, not the cached one
    roots = rs.positive_roots
    assert roots == tuple_root_system(label, rank).positive_roots
    c = roots[k].coords
    assert rs._index[c] == k
    above = sum(1 << j for j, r in enumerate(roots) if all(map(le, c, r.coords)))
    below = sum(1 << j for j, r in enumerate(roots) if all(map(ge, c, r.coords)))
    assert rs.up_masks[k] == above
    assert rs.strict_down_masks[k] == below ^ 1 << k
    assert (rs.long_mask >> k & 1) == (brute_bilinear(rs, c, c) == 2)


@st.composite
def regular_vectors(draw, systems=systems_up_to(8)):
    """(rs, z) for a drawn system and an integer vector z, the coweight
    coordinates of a point x with (x, gamma) = sum_k gamma_k z_k nonzero
    for every positive root gamma."""
    rs = build(*draw(st.sampled_from(systems)))
    z = draw(st.lists(st.integers(-40, 40), min_size=rs.rank, max_size=rs.rank))
    assume(all(sum(map(mul, g.coords, z)) for g in rs.positive_roots))
    return rs, z


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(regular_vectors())
def test_chamber_sort_of_a_regular_vector(drawn):
    # _peel on the finite columns ends in the dominant chamber after one
    # step per positive root x pairs negatively with, at the vector the
    # most-negative-first rule reaches
    rs, z = drawn
    columns = A._affine_simple_data(rs)[2][1]
    negative = sum(sum(map(mul, g.coords, z)) < 0 for g in rs.positive_roots)
    sorted_z = list(z)
    word = A._peel(columns, sorted_z)
    assert all(c > 0 for c in sorted_z)
    assert len(word) == negative
    assert (sorted_z, len(word)) == most_negative_first_sort(columns, z)
    if negative:
        assert A._peel(columns, list(z), negative - 1) is None


@st.composite
def laurent_inputs(draw):
    """Marks (negative and zero ones included), an exponent up to 3 beyond
    the reach of the product, and up to two forms with moduli 1..6."""
    cs = draw(st.lists(st.integers(-4, 4), max_size=8))
    reach = sum(abs(c) for c in cs)
    k = draw(st.integers(-reach - 3, reach + 3))
    weights = st.lists(st.integers(-7, 7), min_size=len(cs), max_size=len(cs))
    forms = draw(st.lists(st.tuples(weights, st.integers(1, 6)), max_size=2))
    return cs, k, forms


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(laurent_inputs())
def test_packed_laurent_matches_dp_oracle(case):
    cs, k, forms = case
    assert L.laurent_coefficient(cs, k, forms) == laurent_coefficient_by_dp(cs, k, forms)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(ideals(), st.data())
def test_point_tests_match_the_per_root_pairings(ideal, data):
    # small integers land on the walls (x, gamma) = 0, 1, 2, where a strict
    # and a weak inequality differ; the barycenter of w_min(I)^{-1} A moved by
    # a small Fraction lands inside the Shi region of I or just outside it
    rs = ideal.rs
    small = st.fractions(-1, 1, max_denominator=4)
    if data.draw(st.booleans()):
        x = data.draw(st.lists(st.integers(-2, 2) | small, min_size=rs.rank,
                               max_size=rs.rank))
    else:
        base = A.alcove_image_barycenter(A.w_min(ideal))
        x = [b + data.draw(small) / 4 for b in base]
    assert I.shi_region_contains(ideal, x) == shi_region_contains_by_bilinear(ideal, x)
    assert L.d_min_contains(rs, x) == d_min_contains_by_bilinear(rs, x)
    assert L.d_max_contains(rs, x) == d_max_contains_by_bilinear(rs, x)
    assert L.d_mm_contains(rs, x) == (d_min_contains_by_bilinear(rs, x)
                                      and d_max_contains_by_bilinear(rs, x))


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.integers(min_value=-2 ** 200, max_value=2 ** 200) | st.text())
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(st.integers(), max_size=5)
                   | st.dictionaries(st.text(), inner, max_size=5)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=20)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_JSON_VALUES)
@example({})
@example([])
@example({"": [], "a": {}, "b": [[]], "c": [{}]})
@example([1, True, -2 ** 100, 2 ** 100, None, 0.5])
@example({"\u00e9\n\x00\t\u2028\U0001f600": "\x1f\"\\\u00ff\ud800"})
def test_json_writer_equals_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=1, sort_keys=True)
