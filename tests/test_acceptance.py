"""Acceptance suite: every published count and table, at exact tolerance.

Each test prints one pass line; a failure surfaces as a plain assert
with the offending rows.  Runtime budgets are asserted where the
criterion carries one.
"""

import math
import time

import pytest

from adideals.rootsys import build
from adideals import classical_types as C
from adideals import ideals as I
from adideals import lattice_count as L
from adideals import verify as V
from helpers import congruence_filter, coroot_points_in_dilated_alcove, systems_up_to


def run_rows(suite_name):
    rows = V.run_suite(suite_name)
    bad = [
        "%s: expected=%r computed=%r" % (r.name, r.expected, r.computed)
        for r in rows
        if not r.ok
    ]
    assert not bad, "\n".join(bad)
    return rows


def report(criterion, text):
    print("ACCEPTANCE %s: PASS (%s)" % (criterion, text))


def test_criterion_1_motzkin():
    start = time.monotonic()
    rows = run_rows("motzkin")
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(1, "A_n minimax = 1,2,4,9,21,51,127,323; %d checks in %.1fs"
           % (len(rows), elapsed))


def test_criterion_2_directed_animals():
    rows = run_rows("animals")
    report(2, "B_n/C_n minimax = 2,5,13,35,96,267,750; %d checks" % len(rows))


def test_criterion_3_type_D():
    # frozen from the formula 2 dir_{n-2} + dir_{n-1} for n = 4..8;
    # the reversed combination 2 dir_{n-1} + dir_{n-2} does not match
    # the lattice counts, so the ordering above is the right one
    frozen = {4: 9, 5: 23, 6: 61, 7: 166, 8: 459}
    for n, value in frozen.items():
        assert L.minimax_count_D(n) == value
        assert L.count_minimax(build("D", n)).value == value
        reversed_form = 2 * L.directed_animals(n - 1) + L.directed_animals(n - 2)
        assert reversed_form != value
    run_rows("soD")
    report(3, "D_n minimax = 9,23,61,166,459 with enumeration at n=4..8")


def test_criterion_4_exceptional():
    start = time.monotonic()
    rows = run_rows("exceptional")
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(4, "G2=3 F4=17 E6=67 E7=217 E8=834; E8 has 25080 ideals; %.1fs"
           % elapsed)


def test_criterion_5_f4_table():
    rows = run_rows("f4table")
    report(5, "4 non-Abelian + 12 Abelian + 1 trivial = 17 minimax ideals; "
              "all columns byte-checked")


def test_criterion_6_product_formulas():
    rows = run_rows("formulas")
    report(6, "#AD and #AD0 product formulas match enumeration, rank <= 6 "
              "(%d checks)" % len(rows))


def test_criterion_7_heisenberg():
    start = time.monotonic()
    rows = run_rows("heisenberg")
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(7, "Heisenberg ideal counts, closed forms and rootlet injectivity "
              "at rank <= 5; %.1fs" % elapsed)


def test_criterion_8_minimax_property_suite():
    rows = run_rows("bijections")
    report(8, "exhaustive rank <= 5: l <= k-1, minimax equivalences, "
              "Abelian rootlet criterion, generator bound, Shi membership")


def test_criterion_9_classical_characterizations():
    for n in range(1, 8):
        rs = build("A", n)
        for ideal in I.enumerate_ideals(rs):
            nm = C.has_non_meeting_generators(C.to_pairs(I.generators(ideal)))
            assert nm == I.is_minimax(ideal)
    for n in range(2, 6):
        rs = build("C", n)
        for ideal in I.enumerate_ideals(rs):
            assert C.sp_is_minimax(ideal) == I.is_minimax(ideal)
    for n in range(2, 9):
        rs = build("C", n)
        single = sum(
            1
            for r in rs.positive_roots
            if C.sp_is_minimax(I.ideal_of(I.Antichain(rs, [r])))
        )
        assert single == (n - 1) ** 2
    for n in range(1, 7):
        assert C.generating_function_Fmm("A", n) == C.minimax_generator_distribution(
            build("A", n)
        )
    for n in range(2, 5):
        assert C.generating_function_Fmm("C", n) == C.minimax_generator_distribution(
            build("C", n)
        )
    report(9, "non-meeting test == minimax for A_n (n<=7) and C_n (n<=5); "
              "one-generator counts; F_mm coefficients")


@pytest.mark.parametrize("label,rank", systems_up_to(8))
def test_criterion_10_index_divides_solution_count(label, rank):
    rs = build(label, rank)
    ext = L.solve_extended_system(rs)
    f = rs.index_of_connection
    assert len(ext) % f == 0
    filtered = sum(1 for y in ext if congruence_filter(rs, y))
    assert filtered == len(ext) // f
    assert L.count_minimax(rs).value == filtered
    if (label, rank) == ("E8", 8):
        report(10, "f divides the solution count and the quotient equals the "
                   "congruence-filtered count, every type, rank <= 8")


def test_criterion_11_haiman_brute_force():
    checked = 0
    for label, rank in systems_up_to(3):
        rs = build(label, rank)
        for t in range(1, 8):
            if math.gcd(t, rs.coxeter_number) != 1:
                continue
            assert L.haiman_count(rs, t) == coroot_points_in_dilated_alcove(rs, t)
            checked += 1
    report(11, "alcove dilation formula equals brute-force lattice count "
               "(%d cases, rank <= 3, t <= 7)" % checked)
