"""Verification suites: every published count and table, by two routes.

Each suite returns a list of CheckResult rows comparing a frozen
expected value against one or more computed routes (lattice count,
exhaustive enumeration, closed formula, element construction).  The CLI
`verify` subcommand renders these rows and exits nonzero on the first
mismatch; the acceptance tests run the same suites.  The count suites
motzkin, animals, soD and exceptional are entries of one table, read by
one loop.
"""

from collections import namedtuple
from functools import partial

from .rootsys import TYPES, build
from . import ideals as I
from . import affine as A
from . import heisenberg as H
from . import lattice_count as L

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "minimax_table_rows",
           "format_rootlet_action", "format_y"]

# n = 1..8
MOTZKIN = (1, 2, 4, 9, 21, 51, 127, 323)
# n = 1..8
DIRECTED_ANIMALS = (1, 2, 5, 13, 35, 96, 267, 750)
EXCEPTIONAL_MINIMAX = {"G2": 3, "F4": 17, "E6": 67, "E7": 217, "E8": 834}
# the types of one rank, by rank
_EXCEPTIONAL = tuple(sorted(((t, lo) for t, (lo, hi, _) in TYPES.items() if hi is not None),
                            key=lambda pair: pair[1]))
E8_IDEAL_COUNT = 25080

# The non-Abelian minimax ideals of F4 and their attached data
# (generators, #I, #I^2, w(alpha_0), lattice point in coweight coordinates).
# Each row satisfies the forced relation (nu, v(r)) = m + 1, where
# w(alpha_0) = -m*delta + nu; that relation pins the y column to its row.
F4_NONABELIAN_ROWS = (
    {"generators": ((1, 2, 1, 1),), "size": 9, "size2": 1,
     "w_alpha0": "-delta-[0,2,1,0]", "y": "(1,-1,0,1)"},
    {"generators": ((1, 1, 1, 1),), "size": 10, "size2": 1,
     "w_alpha0": "-delta-[2,2,1,0]", "y": "(-1,0,0,1)"},
    {"generators": ((0, 2, 2, 1), (2, 2, 1, 0)), "size": 10, "size2": 2,
     "w_alpha0": "-2delta+[2,4,2,1]", "y": "(0,1,0,-1)"},
    {"generators": ((0, 2, 1, 1), (2, 2, 1, 0)), "size": 12, "size2": 3,
     "w_alpha0": "-2delta+[2,2,1,0]", "y": "(1,1,-1,-1)"},
)
F4_ABELIAN_NONTRIVIAL_MINIMAX = 12


class CheckResult(namedtuple("CheckResult", "suite name expected computed")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


def system_name(label: str, rank: int) -> str:
    """Display name: rank is appended only for the classical families."""
    return label if len(label) > 1 else "%s%d" % (label, rank)


def _types_up_to(max_rank):
    out = [(t, n) for t, (lo, hi, _) in TYPES.items() if hi is None
           for n in range(lo, max_rank + 1)]
    return out + [(label, rank) for label, rank in _EXCEPTIONAL if rank <= max_rank]


def format_rootlet_action(w) -> str:
    """Render w(alpha_0) = -m*delta + nu as e.g. '-2delta+[2,4,2,1]'."""
    nu, m = A.rootlet(w)
    if abs(m) == 1:
        head = "-delta" if m == 1 else "+delta"
    else:
        head = "%+ddelta" % (-m)
    if nu.is_positive():
        tail = "+[%s]" % ",".join(map(str, nu.coords))
    else:
        tail = "-[%s]" % ",".join(str(-c) for c in nu.coords)
    return head + tail


def format_y(w) -> str:
    """The coweight coordinates of v(r): y_i = (v(r), alpha_i)."""
    return "(%s)" % ",".join(map(str, A.y_coordinates(w.rs, A.lattice_image(w))))


def minimax_table_rows(rs):
    """The non-Abelian nontrivial minimax ideals with their report columns."""
    rows = []
    for ideal in I.enumerate_ideals(rs, "minimax"):
        if not ideal.mask or I.is_abelian(ideal):
            continue
        w = A.w_min(ideal)
        rows.append(
            {
                "generators": tuple(r.coords for r in I.generators(ideal).roots),
                "size": ideal.size,
                "size2": I.power(ideal, 2).size,
                "length": A.length(w),
                "w_alpha0": format_rootlet_action(w),
                "y": format_y(w),
            }
        )
    rows.sort(key=lambda row: (row["size"], row["generators"]))
    return rows


# -- suites -------------------------------------------------------------------


def _quarter_sum(rs):
    """The quarter-sum form of the type D minimax count."""
    n = rs.rank
    return (L.trinomial(-1, n - 3) + 4 * L.trinomial(0, n - 3)
            + 4 * L.trinomial(1, n - 3) + L.trinomial(2, n - 3))


_LATTICE = ("lattice", lambda rs: L.count_minimax(rs).value)
_ENUMERATION = ("enumeration", lambda rs: L.count_minimax_by_enumeration(rs).value)

# (suite, systems, expected(rs), routes): one row per system and route
# (name, count(rs)), named after the system and the route, in table order
_COUNT_TABLE = (
    ("motzkin", [("A", n) for n in range(1, 9)], lambda rs: MOTZKIN[rs.rank - 1],
     (_LATTICE, ("closed form", lambda rs: L.motzkin(rs.rank)), _ENUMERATION)),
    ("animals", [(label, n) for label in "BC" for n in range(2, 9)],
     lambda rs: DIRECTED_ANIMALS[rs.rank - 1],
     (_LATTICE, ("closed form", lambda rs: L.directed_animals(rs.rank)), _ENUMERATION)),
    ("soD", [("D", n) for n in range(4, 9)], lambda rs: L.minimax_count_D(rs.rank),
     (_LATTICE, ("quarter-sum", _quarter_sum), _ENUMERATION)),
    ("exceptional", _EXCEPTIONAL, lambda rs: EXCEPTIONAL_MINIMAX[rs.type_label],
     (_LATTICE, _ENUMERATION)),
    ("exceptional", [("E8", 8)], lambda rs: E8_IDEAL_COUNT,
     (("ideal count, product formula", lambda rs: L.count_AD(rs).value),
      ("ideal count, enumeration", lambda rs: sum(1 for _ in I.enumerate_ideals(rs))))),
)


def _count_rows(suite):
    rows = []
    for name, systems, expected, routes in _COUNT_TABLE:
        if name != suite:
            continue
        for label, rank in systems:
            rs = build(label, rank)
            head, want = system_name(label, rank), expected(rs)
            rows += [CheckResult(suite, "%s %s" % (head, route), want, count(rs))
                     for route, count in routes]
    return rows


def suite_f4table():
    rs = build("F4", 4)
    computed = minimax_table_rows(rs)
    rows = [CheckResult("f4table", "number of non-Abelian minimax ideals", 4,
                        len(computed))]
    by_gens = {row["generators"]: row for row in computed}
    for expected in F4_NONABELIAN_ROWS:
        key = expected["generators"]
        name = "row %s" % (list(map(list, key)),)
        got = by_gens.get(key)
        if got is None:
            rows.append(CheckResult("f4table", name, expected, None))
            continue
        for field in ("size", "size2", "w_alpha0", "y"):
            rows.append(CheckResult("f4table", "%s %s" % (name, field),
                                    expected[field], got[field]))
        rows.append(CheckResult("f4table", "%s length = size + size2" % name,
                                got["size"] + got["size2"], got["length"]))
    abelian = sum(
        1 for ideal in I.enumerate_ideals(rs, "minimax")
        if ideal.mask and I.is_abelian(ideal)
    )
    rows.append(CheckResult("f4table", "nontrivial Abelian minimax ideals",
                            F4_ABELIAN_NONTRIVIAL_MINIMAX, abelian))
    rows.append(CheckResult("f4table", "12 + 4 + 1 = total minimax", 17,
                            abelian + len(computed) + 1))
    return rows


def suite_formulas():
    rows = []
    for label, rank in _types_up_to(6):
        rs = build(label, rank)
        name = system_name(label, rank)
        rows.append(CheckResult("formulas", name + " #AD", L.count_AD(rs).value,
                                sum(1 for _ in I.enumerate_ideals(rs))))
        rows.append(CheckResult("formulas", name + " #AD0", L.count_AD0(rs).value,
                                sum(1 for _ in I.enumerate_ideals(rs, "strictly_positive"))))
    return rows


def suite_heisenberg():
    rows = []
    for label, rank in _types_up_to(5):
        rs = build(label, rank)
        name = system_name(label, rank)
        nontrivial = list(I.enumerate_ideals(rs, ("heisenberg_contained", "nontrivial")))
        rows.append(CheckResult("heisenberg", name + " #nontrivial ideals in h",
                                L.count_heisenberg_nontrivial(rs).value, len(nontrivial)))

        formulas_ok = True
        for nu in rs.long_positive_roots():
            nu_simple = rs.index_of(nu) in rs.simple_indices
            for sign in (1, -1):
                d = H.HeisenbergElementDescriptor(nu, sign)
                w = H.heisenberg_element(rs, d)
                formula_d = H.HeisenbergElementDescriptor(nu, 1) if (
                    sign == -1 and nu_simple) else d
                if A.first_layer_ideal(w) != H.heisenberg_ideal_formula(rs, formula_d):
                    formulas_ok = False
        rows.append(CheckResult("heisenberg", name + " closed-form ideals", True,
                                formulas_ok))

        rootlets = {A.rootlet(A.w_min(idl)) for idl in nontrivial}
        rows.append(CheckResult("heisenberg", name + " rootlet injectivity",
                                len(nontrivial), len(rootlets)))
    return rows


def suite_bijections():
    """The minimax property suite, exhaustive at rank <= 5."""
    rows = []
    for label, rank in _types_up_to(5):
        rs = build(label, rank)
        name = system_name(label, rank)
        p = rs.rank
        h = rs.coxeter_number

        l_le_k, equiv_ok, bound_ok, shi_ok, abel_ok = True, True, True, True, True
        layers_ok = True
        equality_seen = False
        for ideal in I.enumerate_ideals(rs):
            lt = I._l_table(ideal)
            wmin = A.w_min(ideal, lt)
            if A.first_layer_ideal(wmin) != ideal or not A.is_minimal(wmin):
                layers_ok = False
            mm = I.is_minimax(ideal)
            if I.is_strictly_positive(ideal):
                kt = I._k_table(ideal)
                members = list(I._iter_bits(ideal.mask))
                if any(lt[m] > kt[m] - 1 for m in members):
                    l_le_k = False
                pointwise = all(kt[m] - 1 == lt[m] for m in members)
                wmax = A.w_max(ideal)
                if A.first_layer_ideal(wmax) != ideal or not A.is_maximal(wmax):
                    layers_ok = False
                if not (mm == (wmin == wmax) == pointwise):
                    equiv_ok = False
                if mm:
                    s = len(I.generators(ideal)) + len(I.xi(ideal))
                    if s > p + 1:
                        bound_ok = False
                    if s == p + 1:
                        equality_seen = True
                        if h % 2 == 0:
                            bound_ok = False
                    if not I.shi_region_contains(
                        ideal, A.alcove_image_barycenter(wmin)
                    ):
                        shi_ok = False
            if I.is_abelian(ideal):
                nu, _ = A.rootlet(wmin)
                nu_simple = nu.is_positive() and rs.index_of(nu) in rs.simple_indices
                if mm != (not nu_simple):
                    abel_ok = False

        rows.append(CheckResult("bijections", name + " first layers round-trip",
                                True, layers_ok))
        rows.append(CheckResult("bijections", name + " l <= k-1", True, l_le_k))
        rows.append(CheckResult("bijections",
                                name + " minimax <=> w_min=w_max <=> k-1=l",
                                True, equiv_ok))
        rows.append(CheckResult("bijections", name + " Abelian minimax <=> rootlet not simple",
                                True, abel_ok))
        rows.append(CheckResult("bijections", name + " #Gamma+#Xi <= p+1 (= only for odd h)",
                                True, bound_ok))
        if label == "A" and rank % 2 == 0:
            rows.append(CheckResult("bijections", name + " bound attained", True,
                                    equality_seen))
        rows.append(CheckResult("bijections", name + " barycenter solves Shi system",
                                True, shi_ok))
        rows.append(CheckResult("bijections", name + " #minimax two routes",
                                L.count_minimax(rs).value,
                                L.count_minimax_by_enumeration(rs).value))
    return rows


_SUITES = {
    **{name: partial(_count_rows, name)
       for name in ("motzkin", "animals", "soD", "exceptional")},
    "f4table": suite_f4table,
    "formulas": suite_formulas,
    "bijections": suite_bijections,
    "heisenberg": suite_heisenberg,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str):
    if name not in _SUITES:
        raise ValueError("unknown suite %r; expected one of %s" % (name, SUITE_NAMES))
    return _SUITES[name]()
