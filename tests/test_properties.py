"""Property tests over random ideals of every type of rank <= 6, and of
E7 and E8 for the minimax test.

Derandomised, so every run draws the same examples.
"""

import json

from hypothesis import given, settings, strategies as st

from adideals import affine as A
from adideals import ideals as I
from adideals.rootsys import build
from helpers import (
    affine_inverse, peel_element_from_inversions, prescribed_inversions, systems_up_to,
    two_table_is_minimax,
)

SYSTEMS = systems_up_to(6)
LARGE_SYSTEMS = [("E7", 7), ("E8", 8)]


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
        if not kept & ~rs.incomparability_masks[idx]:
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
