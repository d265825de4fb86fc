"""Counting minimal/maximal/minimax elements by lattice points.

The minimax elements correspond to the coroot-lattice points of the
polytope D_mm = {x : -1 <= (x, alpha) <= 1 for simple alpha,
0 <= (x, theta) <= 2}.  Over the coweight lattice the count is the
number of {-1,0,1}-solutions of 0 <= sum c_i y_i <= 2 (c_i the marks of
theta), equivalently of the extended system sum_{i=0}^p c_i y_i = 1
with c_0 = 1, whose solution count is the coefficient of x in
prod_i (x^-c_i + 1 + x^c_i).  Dividing by the index of connection f, or
keeping only the solutions passing the per-type congruence that cuts
the coroot lattice out of the coweight lattice, gives the minimax
count; the two routes are computed independently and must agree.  Both
read that coefficient off one product of polynomials packed into big
integers (Kronecker substitution), the second with one packed
polynomial per congruence residue class.
`CONGRUENCES` states the coroot lattice in coweight coordinates once, and
one stepper through its residue classes, `_residue_steps`, serves both the
count here and the walk of D_min in `affine._d_min_points`.

All arithmetic here is exact: packed integer polynomial products, and
products of integer fractions divided once, with a remainder raising.
"""

import itertools
import math
from collections import namedtuple
from operator import mul

from .rootsys import RootSystem
from .ideals import enumerate_ideals

__all__ = [
    "CountReport", "d_min_contains", "d_max_contains", "d_mm_contains",
    "coweight_point", "solve_base_system",
    "solve_extended_system", "laurent_coefficient", "trinomial",
    "CONGRUENCES", "congruence_filter", "count_minimax",
    "count_minimax_by_enumeration",
    "count_AD", "count_AD0", "count_heisenberg_nontrivial", "haiman_count",
    "catalan", "motzkin", "directed_animals", "minimax_count_D",
]


class CountReport(namedtuple("CountReport", "type_label rank quantity value method "
                                             "congruence_applied", defaults=(False,))):
    """One counted quantity with its method provenance; `method` is one of
    enumeration, lattice and closed_form."""

    __slots__ = ()

    def csv_row(self):
        return list(self)


# -- polytope membership ----------------------------------------------------


def d_min_contains(rs: RootSystem, x) -> bool:
    """(x, alpha) >= -1 for simple alpha and (x, theta) <= 2; x holds rank
    many int or Fraction coordinates (ValueError otherwise)."""
    scale, pairs = rs._scaled_pairings(x, "a D_min test")
    return min(pairs) >= -scale and sum(map(mul, rs.theta_coords, pairs)) <= 2 * scale


def d_max_contains(rs: RootSystem, x) -> bool:
    """(x, alpha) <= 1 for simple alpha and (x, theta) >= 0; x holds rank
    many int or Fraction coordinates (ValueError otherwise)."""
    scale, pairs = rs._scaled_pairings(x, "a D_max test")
    return max(pairs) <= scale and sum(map(mul, rs.theta_coords, pairs)) >= 0


def d_mm_contains(rs: RootSystem, x) -> bool:
    """D_min cap D_max: |(x, alpha)| <= 1 for simple alpha and
    0 <= (x, theta) <= 2; x holds rank many int or Fraction coordinates
    (ValueError otherwise)."""
    scale, pairs = rs._scaled_pairings(x, "a D_mm test")
    return (-scale <= min(pairs) and max(pairs) <= scale
            and 0 <= sum(map(mul, rs.theta_coords, pairs)) <= 2 * scale)


def coweight_point(rs: RootSystem, y):
    """sum y_i varpi_i^vee as a Fraction vector over the simple roots; y must
    hold rank many int or Fraction coordinates (ValueError otherwise)."""
    from fractions import Fraction
    y = rs._rational_coords(y, "a coweight point")
    dual, table = rs._coweights
    return tuple(Fraction(sum(map(mul, y, col)), dual) for col in table)


# -- the {-1,0,1} systems ---------------------------------------------------


def solve_base_system(rs: RootSystem):
    """All y in {-1,0,1}^p with 0 <= sum c_i y_i <= 2; these are D_mm cap P^vee."""
    c = rs.theta_coords
    out = []
    for y in itertools.product((-1, 0, 1), repeat=rs.rank):
        s = sum(ci * yi for ci, yi in zip(c, y))
        if 0 <= s <= 2:
            out.append(y)
    return out


def solve_extended_system(rs: RootSystem):
    """All y in {-1,0,1}^(p+1) with y_0 + sum c_i y_i = 1 (marks of theta)."""
    c = (rs.c0,) + rs.theta_coords
    out = []
    for y in itertools.product((-1, 0, 1), repeat=rs.rank + 1):
        if sum(ci * yi for ci, yi in zip(c, y)) == 1:
            out.append(y)
    return out


def _residue_steps(forms, n):
    """The residue classes of the (weights, modulus) forms on n coordinates
    y, in mixed radix over the moduli (0: every form vanishes): the class of
    y = (-1, ..., -1), and per i the table of the step y_i -> y_i + 1."""
    start, stride = 0, 1
    tables = [[0]] * n
    for weights, m in forms:
        start += -sum(weights) % m * stride
        tables = [[(x + w) % m * stride + r for x in range(m) for r in moved]
                  for w, moved in zip(weights, tables)]
        stride *= m
    return start, tables


def laurent_coefficient(cs, k: int, forms=()) -> int:
    """Coefficient of x^k in prod_i (x^-c_i + 1 + x^c_i).

    Given forms, (weights, modulus) pairs with one weight per factor, count
    only the terms x^(sum c_i y_i) with every sum w_i y_i = 0 mod modulus.

    Each factor is shifted by x^|c_i| to 1 + x^|c_i| + x^(2|c_i|), so the
    answer is the coefficient at k + sum |c_i| of a polynomial with
    nonnegative exponents, packed into one int (Kronecker substitution):
    coefficient e in bits [e*s, (e+1)*s).  No coefficient exceeds 3^n, the
    number of terms, so a slot of s = bitlength(3^n) bits never carries
    into the next, and multiplying by a factor is two shifts and two
    additions.  With forms there is one packed int per residue class,
    indexed in mixed radix over the moduli.
    """
    if type(k) is not int or any(type(c) is not int for c in cs):
        raise ValueError("marks and exponent must be ints, not %r and %r" % (cs, k))
    for weights, m in forms:
        if type(m) is not int or m < 1:
            raise ValueError("modulus must be an int >= 1, not %r" % (m,))
        if len(weights) != len(cs) or any(type(w) is not int for w in weights):
            raise ValueError("a form needs %d int weights, not %r" % (len(cs), weights))
    shifts = [abs(c) for c in cs]
    target = k + sum(shifts)
    if not 0 <= target <= 2 * sum(shifts):
        return 0
    s = (3 ** len(cs)).bit_length()
    # y_i = -1, 0, 1 sits at shift 0, |c_i|, 2|c_i| (reversed, so the weight
    # is negated, if c_i < 0): a shift by |c_i| is a step y_i -> y_i + 1
    start, tables = _residue_steps(
        [([-w if c < 0 else w for w, c in zip(weights, cs)], m) for weights, m in forms],
        len(cs))
    polys = [0] * math.prod(m for _, m in forms)
    polys[start] = 1
    for a, moved in zip(shifts, tables):
        one, two = a * s, 2 * a * s
        nxt = polys[:]
        for r, p in enumerate(polys):
            if p:
                r1 = moved[r]
                nxt[r1] += p << one
                nxt[moved[r1]] += p << two
        polys = nxt
    return polys[0] >> (target * s) & ((1 << s) - 1)


def trinomial(k: int, n: int) -> int:
    """X_k(n), the coefficient of x^k in (x^-1 + 1 + x)^n."""
    if n < 0:
        raise ValueError("trinomial needs n >= 0")
    k = abs(k)
    if k > n:
        return 0
    total = 0
    fact = math.factorial
    for l in range(0, (n - k) // 2 + 1):
        total += fact(n) // (fact(l) * fact(k + l) * fact(n - 2 * l - k))
    return total


# -- the coroot-lattice congruences, per type -------------------------------


# the congruences that cut the coroot lattice out of the coweight lattice,
# per type and rank, in the Vinberg-Onishchik numbering of the simple
# roots: each (weights, modulus) form over y_1..y_p must vanish modulo its
# modulus.  E8, F4 and G2 have none: there the two lattices coincide.
CONGRUENCES = {
    "A": lambda p: [(tuple(range(p, 0, -1)), p + 1)],
    "B": lambda p: [(tuple((i + 1) % 2 for i in range(p)), 2)],
    "C": lambda p: [((0,) * (p - 1) + (1,), 2)],
    "D": lambda p: (
        [((0,) * (p - 2) + (1, 1), 2), (tuple((i + 1) % 2 for i in range(p)), 2)]
        if p % 2 == 0
        else [(tuple(2 * ((i + 1) % 2) for i in range(p - 2)) + (1, -1), 4)]),
    "E6": lambda p: [((1, -1, 0, 1, -1, 0), 3)],
    "E7": lambda p: [((1, 0, 1, 0, 0, 0, 1), 2)],
    **dict.fromkeys(("E8", "F4", "G2"), lambda p: []),
}


def congruence_filter(rs: RootSystem, y) -> bool:
    """Whether the coweight point of an extended solution lies in Q^vee.

    y is an extended solution (y_0, y_1, .., y_p); only y_1..y_p enter,
    since y_0 is the auxiliary variable.
    """
    return all(sum(w * v for w, v in zip(weights, y[1:])) % m == 0
               for weights, m in CONGRUENCES[rs.type_label](rs.rank))


# -- counting ----------------------------------------------------------------


def count_minimax(rs: RootSystem) -> CountReport:
    """Minimax count by the lattice route, computed two ways.

    (a) the extended-system solution count divided by the index of
    connection (divisibility is checked, not assumed); (b) the number
    of solutions passing the coroot-lattice congruence.  The two must
    agree or the implementation is broken.  Both are read off
    `laurent_coefficient`'s packed product of the p + 1 factors, (b)
    with the congruence forms (y_0 weighs 0), which keeps one packed
    polynomial per residue class.  Neither enumerates the solutions.
    """
    cs = (rs.c0,) + rs.theta_coords
    f = rs.index_of_connection
    total = laurent_coefficient(cs, 1)
    quot, rem = divmod(total, f)
    if rem:
        raise ArithmeticError(
            "index of connection %d does not divide the solution count %d for %s%d"
            % (f, total, rs.type_label, rs.rank)
        )
    forms = [((0,) + w, m) for w, m in CONGRUENCES[rs.type_label](rs.rank)]
    filtered = laurent_coefficient(cs, 1, forms)
    if filtered != quot:
        raise ArithmeticError(
            "congruence count %d != quotient count %d for %s%d"
            % (filtered, quot, rs.type_label, rs.rank)
        )
    return CountReport(rs.type_label, rs.rank, "minimax", quot, "lattice", True)


def count_minimax_by_enumeration(rs: RootSystem) -> CountReport:
    value = sum(1 for _ in enumerate_ideals(rs, "minimax"))
    return CountReport(rs.type_label, rs.rank, "minimax", value, "enumeration")


def _integer_product(pairs) -> int:
    """prod a / b over the (a, b) pairs, which must be an integer."""
    num = den = 1
    for a, b in pairs:
        num *= a
        den *= b
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("the product %d/%d is not an integer" % (num, den))
    return quot


def count_AD(rs: RootSystem) -> CountReport:
    """#ideals = prod (h + e_i + 1) / (e_i + 1), exact: the coroot-lattice
    points of the (h + 1)-dilated alcove."""
    value = haiman_count(rs, rs.coxeter_number + 1)
    return CountReport(rs.type_label, rs.rank, "AD", value, "closed_form")


def count_AD0(rs: RootSystem) -> CountReport:
    """#strictly positive ideals = prod (h + e_i - 1) / (e_i + 1), exact: the
    coroot-lattice points of the (h - 1)-dilated alcove."""
    value = haiman_count(rs, rs.coxeter_number - 1)
    return CountReport(rs.type_label, rs.rank, "AD0", value, "closed_form")


def count_heisenberg_nontrivial(rs: RootSystem) -> CountReport:
    """#nontrivial ideals inside the Heisenberg ideal = #(Delta_long \\ Pi).

    Each long positive root nu gives two of them, the first layers of
    w_nu.s_0 and s_nu.w_nu.s_0, and the two coincide when nu is simple.
    """
    n_long = rs.long_mask.bit_count()
    n_long_simple = (rs.long_mask & rs.simple_mask).bit_count()
    return CountReport(rs.type_label, rs.rank, "heisenberg_nontrivial",
                       2 * n_long - n_long_simple, "closed_form")


def haiman_count(rs: RootSystem, t: int) -> int:
    """Coroot-lattice points in the t-dilated closed fundamental alcove.

    Valid whenever t >= 1 and gcd(t, h) = 1 (which also makes t coprime
    to every mark of theta); the formula is prod (t + e_i) / (1 + e_i).
    Other t are rejected: for t < 0 the dilated alcove is empty, and for t
    sharing a factor with h the product need not even be an integer.
    """
    if type(t) is not int or t < 1:
        raise ValueError("t = %r is not a positive dilation" % (t,))
    if math.gcd(t, rs.coxeter_number) != 1:
        raise ValueError(
            "t = %d shares a factor with the Coxeter number %d"
            % (t, rs.coxeter_number)
        )
    return _integer_product((t + e, 1 + e) for e in rs.exponents)


# -- the classical sequences --------------------------------------------------


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def motzkin(n: int) -> int:
    """M_n = sum_k C(n, 2k) Catalan(k)."""
    if n < 0:
        raise ValueError("motzkin needs n >= 0")
    return sum(math.comb(n, 2 * k) * catalan(k) for k in range(n // 2 + 1))


def directed_animals(n: int) -> int:
    """dir_n = sum_q C(q, floor(q/2)) C(n-1, q)."""
    if n < 1:
        raise ValueError("directed_animals needs n >= 1")
    return sum(math.comb(q, q // 2) * math.comb(n - 1, q) for q in range(n))


def minimax_count_D(n: int) -> int:
    """Minimax count in type D_n: 2 dir_{n-2} + dir_{n-1}."""
    if n < 4:
        raise ValueError("type D needs rank >= 4")
    return 2 * directed_animals(n - 2) + directed_animals(n - 1)
