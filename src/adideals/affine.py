"""Affine Weyl group elements and the ideal <-> element bijections.

An element is stored in the decomposition w = v . t_r with v in the
finite Weyl group (an integer matrix on root coordinates) and r in the
coroot lattice.  The linear action on affine roots is

    w(k*delta + mu) = (k - (mu, r))*delta + v(mu),

and the affine-linear action on V is w * x = v(x + r).  Inversion sets,
lengths, dominance and first layers are read off one shift per positive
root mu, s(mu) = (mu, r) + [v(mu) < 0], with no level scanning.

Three loops act by simple reflections, one per job.  `_grow` replays a
word: it builds u from the identity by left multiplications u -> s_i u,
updating only the integer rows of v and summing the translations that
the s_0 steps add, so it serves words, products, inverses and the
elements of ideals.  `_walk` grows u to a target inversion set one root
at a time on the p+1 images u^{-1}(alpha_j) alone, returning them with
the steps, which `_grow` then replays.  `_peel` sorts a vector into the
dominant chamber by reflecting at its lowest negative entry (the numbers
game): on the images w(alpha_j) it peels right descents, for reduced
words and the test that a matrix lies in W; it also sorts the points of
D_min below and ascends long roots for `heisenberg`.  `_walk` and
`_peel` read one table, the Cartan columns of `_affine_simple_data`,
which reads the affine Cartan matrix off `rs.cartan` and theta.

The minimal element of an ideal I is the one whose inversion set is
{m*delta - gamma : gamma in I, 1 <= m <= l(gamma, I)}; the maximal
element of a strictly positive I uses k(gamma, I) - 1 instead.  Both
are walked from the l- or k-table, packed into one set of integers
(`_level_set`): a step may add a root exactly when it is in the set.

An ideal's record needs only three fields of w = w_min(I): the rootlet,
x = v(r) and its coweight coordinates y.  `_w_min_fields` reads them off
the p+1 images beta_j = w^{-1}(alpha_j) that `_walk` ends at, so no
word is replayed.  Since w^{-1} = v^{-1} . t_{-x},

    w^{-1}(alpha_j) = (alpha_j, x)*delta + v^{-1}(alpha_j),
    w(alpha_0) = (1 + (theta, r))*delta - v(theta),

so y_j is the level of beta_j, and nu = -v(theta) pairs with alpha_k as
-(theta, f_k) for the finite part f_k of beta_k, where theta pairs
nonzero only with the neighbours of alpha_0.  Then x = sum y_k varpi_k^vee
and the long root nu = sum (alpha_k, nu) varpi_k^vee, and the rootlet
level is -1 - (theta, r) = (nu, x) - 1.
`w_min`, `rootlet`, `lattice_image` and `y_coordinates` stay the route
through the element, and the oracle the fields are tested against.

The same fields of every ideal at once come from the other end of the
Cellini-Papi bijection I -> x = lattice_image(w_min(I)), onto the points
of D_min cap Q^vee, where D_min = {x : (x, alpha_i) >= -1, (x, theta) <= 2}
(`_d_min_fields`).  With u_i = y_i + 1 and u_0 = 2 - (x, theta), D_min is
the simplex u_0 + sum c_i u_i = h + 1, u >= 0, and `_d_min_points` walks
it, keeping x = sum y_i varpi_i^vee when it lies in Q^vee, that is when
the forms of `lattice_count.CONGRUENCES` vanish at y, by their residue
class carried down the walk with `lattice_count`'s stepper.  For
w = w_min(I) = v . t_r and the barycenter b of the alcove A,
w^{-1} b = v^{-1}(b - x) lies in the dominant chamber, so v^{-1} is the
element that sorts b - x there.  In
coweight coordinates scaled by D = (p + 1) lcm(c), the integer vector
z_j = D (alpha_j, b - x) = D / ((p + 1) c_j) - D y_j is sorted by the
steps z_j -= (alpha_j, alpha_i^vee) z_i, z_i -> -z_i while some z_i < 0
(`_peel`; z has no zero entry, since b - x lies on no wall, so any choice
of steps ends at the same vector in l(v) steps).  After steps
i_1, ..., i_t the columns of u = s_{i_1} ... s_{i_t} move by the same
step, as u s_i(alpha_j) = u(alpha_j) - (alpha_j, alpha_i^vee) u(alpha_i), so
each is packed below z_j as z_j*delta + u(alpha_j) and sorted with it,
ending at v.  Then z = D w^{-1} b, and its pairings give the rest, one
addition per root along the parent table gamma = gamma' + alpha_k, as
(gamma, z) = (gamma', z) + z_k:

    I = {gamma : (gamma, z) > D},   l(gamma, I) = floor((gamma, z) / D),
    length_min = sum of l,          nu = -v(theta),
    level = -1 - (v(theta), x) = (nu, x) - 1,

and y and x = `_from_coweights(rs, y)` are the point itself.  No l-table
is built and no element is grown, so `enumerate` takes this route for
the classes that keep nearly every ideal.

Both routes read root coordinates off the integer table h^vee varpi^vee
of `RootSystem._coweights`, so a record makes no Fraction.
"""

import math
from functools import lru_cache
from operator import mul

from .rootsys import AffineRoot, Root, RootSystem
from . import ideals as _ideals
from . import lattice_count as _L
from .ideals import Antichain, Ideal, is_minimax  # noqa: F401  (re-export)

__all__ = [
    "FiniteWeylElement", "AffineWeylElement", "identity_finite", "reflection",
    "finite_inversions", "finite_length",
    "identity_element", "finite_element", "translation",
    "affine_simple_reflection", "simple_affine_root",
    "act_affine_root", "act_point", "inversion_set", "length",
    "is_dominant", "is_minimal", "is_maximal", "is_minimax_element",
    "is_minimax", "reduced_word", "element_from_word",
    "element_from_inversions", "w_min", "w_max", "rootlet",
    "first_layer_ideal", "generators_via_w", "xi_via_w", "lattice_image", "y_coordinates",
    "alcove_barycenter", "alcove_image_barycenter",
    "element_to_record", "element_from_record",
]


class FiniteWeylElement:
    """A finite Weyl group element as its matrix on root coordinates."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = tuple(tuple(row) for row in matrix)

    def act(self, vec):
        return tuple(sum(map(mul, row, vec)) for row in self.matrix)

    def is_identity(self) -> bool:
        return all(
            x == (i == j) for i, row in enumerate(self.matrix) for j, x in enumerate(row)
        )

    def __eq__(self, other):
        return isinstance(other, FiniteWeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "FiniteWeylElement(%r)" % (self.matrix,)


def identity_finite(rank: int) -> FiniteWeylElement:
    return FiniteWeylElement(tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank)))


def reflection(rs: RootSystem, root: Root) -> FiniteWeylElement:
    """The reflection x -> x - (x, root^vee) root, read off D (root, alpha_j);
    ValueError unless root is a `Root` and every (alpha_j, root^vee) is an
    integer."""
    n, norm = rs.rank, 0
    if isinstance(root, Root):
        coords = root.coords
        _, pairs = rs._scaled_pairings(coords, "a reflection")
        norm = sum(map(mul, coords, pairs))
    if not norm or any(2 * q % norm for q in pairs):
        raise ValueError("a reflection in %s needs a root, not %r" % (rs, root))
    pair = [2 * q // norm for q in pairs]
    return FiniteWeylElement([[int(r == c) - pair[c] * coords[r] for c in range(n)]
                              for r in range(n)])


def finite_inversions(rs: RootSystem, v: FiniteWeylElement):
    """Positive roots sent to negative roots by v."""
    return [mu for mu, s in zip(rs.positive_roots, _shifts(finite_element(rs, v))) if s]


def finite_length(rs: RootSystem, v: FiniteWeylElement) -> int:
    return len(finite_inversions(rs, v))


def _in_weyl_group(rs: RootSystem, v) -> bool:
    """Whether v is in W: `_peel` takes the packed images v(alpha_j) to the
    identity's within |Delta^+| steps, and the peeled word rebuilds v.

    The rebuilt element is in W, so the final comparison keeps the test
    sound even when a huge entry of v aliases in the packing."""
    if not (isinstance(v, FiniteWeylElement)
            and [[type(x) for x in row] for row in v.matrix] == [[int] * rs.rank] * rs.rank):
        return False
    weights, _, (columns, _) = _affine_simple_data(rs)
    cols = [sum(map(mul, col, weights[1:])) for col in zip(*v.matrix)]
    # v(alpha_0) = delta - v(theta), and packing is linear
    word = _peel(columns, [weights[0] - sum(map(mul, rs.theta_coords, cols))] + cols,
                 rs.num_positive)
    return word is not None and _grow(rs, word).v == v


class AffineWeylElement:
    """w = v . t_r with v in W and r in the coroot lattice, else ValueError."""

    __slots__ = ("rs", "v", "r")

    def __init__(self, rs: RootSystem, v: FiniteWeylElement, r):
        r = tuple(r)
        if not (all(type(x) is int for x in r) and rs.in_coroot_lattice(r)):
            raise ValueError("%r is not a coroot-lattice vector of %s" % (r, rs))
        if not _in_weyl_group(rs, v):
            raise ValueError("%r is not an element of the Weyl group of %s" % (v, rs))
        self.rs = rs
        self.v = v
        self.r = r

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        if self.rs is not other.rs:
            raise ValueError("cannot multiply elements of %r and %r" % (self.rs, other.rs))
        return _grow(self.rs, (reduced_word(self) + reduced_word(other))[::-1])

    def inverse(self) -> "AffineWeylElement":
        # s_{a_k} ... s_{a_1} for the reduced word a_1 ... a_k of self
        return _grow(self.rs, reduced_word(self))

    def is_identity(self) -> bool:
        return self.v.is_identity() and not any(self.r)

    def __eq__(self, other):
        return (
            isinstance(other, AffineWeylElement)
            and self.rs is other.rs
            and self.v == other.v
            and self.r == other.r
        )

    def __hash__(self):
        return hash((id(self.rs), self.v, self.r))

    def __repr__(self):
        return "AffineWeylElement(v=%r, r=%r)" % (self.v.matrix, self.r)


def identity_element(rs: RootSystem) -> AffineWeylElement:
    return AffineWeylElement(rs, identity_finite(rs.rank), (0,) * rs.rank)


def finite_element(rs: RootSystem, v: FiniteWeylElement) -> AffineWeylElement:
    return AffineWeylElement(rs, v, (0,) * rs.rank)


def translation(rs: RootSystem, r) -> AffineWeylElement:
    return AffineWeylElement(rs, identity_finite(rs.rank), tuple(r))


def simple_affine_root(rs: RootSystem, i: int) -> AffineRoot:
    """alpha_i for i in 0..p (0-based i-1 internally); alpha_0 = delta - theta."""
    if not (type(i) is int and 0 <= i <= rs.rank):
        raise ValueError("an affine simple index is an int in 0..%d, not %r" % (rs.rank, i))
    if i == 0:
        return AffineRoot(1, tuple(-c for c in rs.theta_coords))
    return AffineRoot(0, rs.alpha(i - 1).coords)


def affine_simple_reflection(rs: RootSystem, i: int) -> AffineWeylElement:
    """s_i for i in 0..p; s_0 = s_theta . t_{-theta^vee}."""
    return element_from_word(rs, [i])


def act_affine_root(w: AffineWeylElement, beta: AffineRoot) -> AffineRoot:
    """w(k*delta + mu) = (k - (mu, r))*delta + v(mu); ValueError for a malformed mu."""
    t = w.rs.pair_root_coroot(beta.finite, w.r)
    return AffineRoot(beta.level - t, w.v.act(beta.finite))


def act_point(w: AffineWeylElement, x):
    """The affine-linear action on V: w * x = v(x + r); x holds rank many
    int or Fraction coordinates (ValueError otherwise)."""
    from fractions import Fraction
    x = w.rs._rational_coords(x, "an affine action")
    shifted = tuple(Fraction(a) + b for a, b in zip(x, w.r))
    return w.v.act(shifted)


def _shifts(w: AffineWeylElement, roots=None):
    """s(mu) = (mu, r) + [v(mu) < 0] for each of the given roots, by default
    every positive root in root order.

    w(k*delta + mu) = (k - (mu, r))*delta + v(mu) is negative exactly for
    k < s(mu), and w(k*delta - mu) exactly for k < 1 - s(mu), so N(w) holds
    the levels 0..s-1 of mu when s > 0 and 1..-s of -mu when s < 0.  The
    root v(mu) has the sign of its height, so s is read off the (alpha_j, r)
    and the heights of v(alpha_j) alone.
    """
    rs = w.rs
    levels = y_coordinates(rs, w.r)
    heights = [sum(col) for col in zip(*w.v.matrix)]
    return [sum(map(mul, mu.coords, levels)) + (sum(map(mul, mu.coords, heights)) < 0)
            for mu in (rs.positive_roots if roots is None else roots)]


def inversion_set(w: AffineWeylElement):
    """N(w) = positive affine roots sent negative, read off `_shifts`."""
    out = [AffineRoot(k, mu.coords) if s > 0 else AffineRoot(k, tuple(-c for c in mu.coords))
           for mu, s in zip(w.rs.positive_roots, _shifts(w))
           for k in (range(s) if s > 0 else range(1, 1 - s))]
    out.sort(key=lambda b: (b.level, b.finite))
    return out


def length(w: AffineWeylElement) -> int:
    """|N(w)| = the sum of |s(mu)| over the positive roots."""
    return sum(map(abs, _shifts(w)))


def is_dominant(w: AffineWeylElement) -> bool:
    """w(alpha) > 0 for every finite simple root alpha, i.e. s(alpha) <= 0."""
    return all(s <= 0 for s in _shifts(w, w.rs.simple_roots()))


def y_coordinates(rs: RootSystem, point):
    """y_i = (alpha_i, x), i = 1..p, for x in the coweight lattice given by
    rank int or Fraction coordinates (ValueError otherwise), off one Gram
    product; at x = `lattice_image(w)`, the levels of w^{-1}(alpha_i)."""
    scale, pairs = rs._scaled_pairings(point, "a coweight expansion")
    if any(q % scale for q in pairs):
        raise ValueError("%r is not in the coweight lattice of %s" % (tuple(point), rs))
    return [q // scale for q in pairs]


def is_minimal(w: AffineWeylElement) -> bool:
    """Whether w is minimal: dominant with lattice image in D_min."""
    return is_dominant(w) and _L.d_min_contains(w.rs, lattice_image(w))


def is_maximal(w: AffineWeylElement) -> bool:
    """Whether w is maximal: dominant with lattice image in D_max."""
    return is_dominant(w) and _L.d_max_contains(w.rs, lattice_image(w))


def is_minimax_element(w: AffineWeylElement) -> bool:
    """Whether w is minimax: dominant with lattice image in D_mm."""
    return is_dominant(w) and _L.d_mm_contains(w.rs, lattice_image(w))


def reduced_word(w: AffineWeylElement):
    """A reduced word for w: the indices `_peel` takes off the packed images
    w(alpha_j) = -y_j*delta + v(alpha_j), y = `y_coordinates` of r, reversed."""
    weights, _, (columns, _) = _affine_simple_data(w.rs)
    cols = [sum(map(mul, col, weights[1:])) - y * weights[0]
            for col, y in zip(zip(*w.v.matrix), y_coordinates(w.rs, w.r))]
    # w(alpha_0) = delta - w(theta), and packing is linear
    return _peel(columns, [weights[0] - sum(map(mul, w.rs.theta_coords, cols))] + cols)[::-1]


def _peel(columns, beta, bound=None):
    """Sort the list beta into the dominant chamber, in place: while some
    beta_i is negative, take the lowest such i and reflect, beta_j -=
    (alpha_j, alpha_i^vee) beta_i for the entries of `columns[i]` and
    beta_i -> -beta_i.  Returns the indices taken, or None after more than
    `bound` steps.

    On the affine columns and the packed images beta_j = w(alpha_j) a step
    is w -> w s_i, which peels a right descent off w.  Only the identity
    has no negative image, so w is peeled in length(w) steps, and
    w = s_{i_k} ... s_{i_1} = `_grow(rs, peeled)`.
    """
    peeled = []
    while True:
        for i, b in enumerate(beta):
            if b < 0:
                break
        else:
            return peeled
        if len(peeled) == bound:
            return None
        peeled.append(i)
        for j, a in columns[i]:
            beta[j] -= a * b
        beta[i] = -b


def element_from_word(rs: RootSystem, word) -> AffineWeylElement:
    """The product of the affine simple reflections s_i, i in 0..p, of the word."""
    if not (isinstance(word, (list, tuple))
            and all(type(i) is int and 0 <= i <= rs.rank for i in word)):
        raise ValueError("a word is a list of affine simple indices 0..%d, not %r"
                         % (rs.rank, word))
    return _grow(rs, word[::-1])


# `_grow`, `_walk` and `_peel` pack each vector they update into one
# integer whose signed base-2^64 digits are the entries, most significant
# first.  Packing is linear, so every update is one integer multiply-add,
# and a packed affine root (level, coords...) is positive exactly when the
# integer is.  This needs every entry below the leading one to be under
# 2^63 in size: such entries are root coordinates, entries of v, or
# coweight coordinates of r, which are bounded by a multiple of the number
# of steps.
_SHIFT = 64
_HALF = 1 << (_SHIFT - 1)
_MASK = (1 << _SHIFT) - 1


def _unpack(x: int, n: int):
    """The n lowest signed digits of x, most significant first."""
    digits = []
    for _ in range(n):
        d = ((x + _HALF) & _MASK) - _HALF
        digits.append(d)
        x = (x - d) >> _SHIFT
    digits.reverse()
    return digits


@lru_cache(maxsize=None)
def _affine_simple_data(rs: RootSystem):
    """The packing weights (2^(64 p), ..., 2^64, 1); per affine simple root
    alpha_i (i = 0..p), alpha_i packed and the nonzero pairings
    (m, (alpha_m, f^vee)) of its finite part f with the finite simple roots;
    and the Cartan columns that `_walk` and `_peel` read: the nonzero
    off-diagonal entries (j, (alpha_j, alpha_i^vee)) of each affine column
    i, and their finite restriction (i, j >= 1, shifted down by one).
    The affine column i >= 1 is (-(theta, alpha_i^vee), column i of
    `rs.cartan`), and column 0 is (2, -(alpha_m, theta)), theta = theta^vee
    long, where (alpha_m, theta) = (theta, alpha_m^vee) / r_m."""
    p = rs.rank
    weights = tuple(1 << (_SHIFT * (p - k)) for k in range(p + 1))
    theta = rs.theta_coords
    finite = tuple(zip(*rs.cartan))
    # (theta, alpha_i^vee) = sum_k theta_k (alpha_k, alpha_i^vee)
    dual = [sum(map(mul, theta, col)) for col in finite]
    affine = [(2, *(-(t // r) for t, r in zip(dual, rs._coroot_moduli)))]
    affine += [(-t, *col) for t, col in zip(dual, finite)]
    packed = [weights[0] - sum(map(mul, theta, weights[1:]))] + list(weights[1:])
    simples, columns = [], []
    for i, (b, col) in enumerate(zip(packed, affine)):
        simples.append((b, tuple((m, a) for m, a in enumerate(col[1:]) if a)))
        columns.append(tuple((j, a) for j, a in enumerate(col) if a and j != i))
    restricted = tuple(tuple((j - 1, a) for j, a in col if j) for col in columns[1:])
    return weights, tuple(simples), (tuple(columns), restricted)


@lru_cache(maxsize=None)
def _packed_positive_roots(rs: RootSystem):
    """The positive roots in root order, each packed as the finite part of an
    affine root (the p lowest digits)."""
    low = _affine_simple_data(rs)[0][1:]
    return tuple(sum(map(mul, mu.coords, low)) for mu in rs.positive_roots)


def _from_coweights(rs: RootSystem, y):
    """The root coordinates of sum y_k varpi_k^vee, a vector with integer
    coordinates (a coroot-lattice point or a root), by `RootSystem._coweights`."""
    dual, table = rs._coweights
    return tuple(sum(map(mul, y, col)) // dual for col in table)


def _d_min_points(rs: RootSystem):
    """The coweight coordinates y of the points of D_min cap Q^vee: the
    u >= 0 with u_0 + sum c_i u_i = h + 1 and y_i = u_i - 1, kept when
    x = sum y_i varpi_i^vee is in Q^vee, that is when every form of
    `lattice_count.CONGRUENCES` vanishes at y: their residue class is
    carried down the walk by `lattice_count._residue_steps`."""
    marks = rs.theta_coords
    cls, tables = _L._residue_steps(_L.CONGRUENCES[rs.type_label](rs.rank), rs.rank)
    last = rs.rank - 1
    y = [0] * rs.rank

    def walk(i, budget, cls):
        step = tables[i]
        for u in range(budget // marks[i] + 1):
            y[i] = u - 1
            if i < last:
                yield from walk(i + 1, budget - u * marks[i], cls)
            elif not cls:
                yield y
            cls = step[cls]

    return walk(0, rs.coxeter_number + 1, cls)


@lru_cache(maxsize=None)
def _d_min_data(rs: RootSystem):
    """What `_d_min_fields` reads the points with: D; per j, the packed
    z_j*delta + alpha_j for z = D b, from which the sort starts; the simple
    root alpha_k at each root index below p; and above it, the parent table
    (b, k) off gamma's last split (a, b) in `rs.decompositions`, whose a,
    the least, is a simple root alpha_k."""
    p = rs.rank
    lcm = math.lcm(*rs.theta_coords)
    den = (p + 1) * lcm
    weights = _affine_simple_data(rs)[0]
    start = tuple((lcm // c) * weights[0] + weights[1 + j]
                  for j, c in enumerate(rs.theta_coords))
    simple_of = tuple(rs.simple_indices.index(s) for s in range(p))
    parents = tuple((b, simple_of[a]) for *_, (a, b) in rs.decompositions[p:])
    return den, start, simple_of, parents


def _d_min_fields(rs: RootSystem):
    """{mask: (rootlet, lattice_image, y, length_min)} over every ideal, read
    off the points of D_min cap Q^vee as the module docstring derives,
    without the l-table or w_min's walk."""
    den, start, simple_of, parents = _d_min_data(rs)
    finite = _affine_simple_data(rs)[2][1]
    shift = _SHIFT * rs.rank
    half = 1 << (shift - 1)
    top = den << shift
    theta = rs.theta_coords
    p = rs.rank
    fields = {}
    for y in _d_min_points(rs):
        # z_j delta + v(alpha_j), packed: the sort moves both by one step
        z = [s - b * top for s, b in zip(start, y)]
        _peel(finite, z)
        levels = [(b + half) >> shift for b in z]
        vals = [levels[k] for k in simple_of]
        for a, k in parents:
            vals.append(vals[a] + levels[k])
        mask = length = 0
        bit = 1
        for v in vals:
            if v > den:
                mask |= bit
                length += v // den
            bit <<= 1
        # the finite digits of sum theta_j z_j are v(theta) = -nu
        low = sum(map(mul, theta, z)) - (sum(map(mul, theta, levels)) << shift)
        nu = [-c for c in _unpack(low, p)]
        fields[mask] = ((Root(tuple(nu)), sum(map(mul, nu, y)) - 1),
                        _from_coweights(rs, y), list(y), length)
    return fields


def _grow(rs: RootSystem, word) -> AffineWeylElement:
    """u = s_{i_k} ... s_{i_1}, grown from the identity by the left
    multiplications u -> s_i u of the word's letters i_1, ..., i_k.

    Only the rows of v are kept: s_i(x) = x - (x, f^vee) f for the finite
    part f of alpha_i, so s_i v first takes z_b = (v(alpha_b), f^vee).  For
    i >= 1, f = alpha_i and s_i u = (s_i v) . t_r.  For i = 0, f = -theta
    = -theta^vee, so z holds the coweight coordinates of v^{-1}(-theta), and
    s_0 u = (s_theta v) . t_{r + v^{-1}(-theta)}; r is read off their sum
    once, at the end.
    """
    weights, simples, _ = _affine_simple_data(rs)
    theta = [(k, t) for k, t in enumerate(rs.theta_coords) if t]
    p = rs.rank
    v = list(weights[1:])  # the rows of the identity matrix
    y = 0  # the coweight coordinates of r
    for i in word:
        z = 0
        for m, c in simples[i][1]:
            z += c * v[m]
        if i:
            v[i - 1] -= z
        else:
            y += z
            for k, t in theta:
                v[k] += t * z
    w = object.__new__(AffineWeylElement)  # unchecked: in W and Q^vee by construction
    w.rs, w.v = rs, FiniteWeylElement([_unpack(row, p) for row in v])
    w.r = _from_coweights(rs, _unpack(y, p)) if y else (0,) * p
    return w


def _walk(rs: RootSystem, target):
    """The images beta_j = u^{-1}(alpha_j), j = 0..p, and the steps of
    u = `_grow(rs, steps)`, the element whose inversion set is the set
    `target` of packed positive affine roots; ValueError when it is none.

    u grows from the identity by one root per step: s_i adds exactly beta_i
    when it is positive, since then N(s_i u) = N(u) + {beta_i}, so any
    positive beta_i in `target` will do, in any order, and the set is no
    inversion set when none is left before |target| steps.  s_i moves the
    images by beta_j -> beta_j - (alpha_j, alpha_i^vee) beta_i; beta_i turns
    negative, so only its Cartan-column neighbours are tested again.  The
    walk ends on the KeyError of `ready.pop()`.
    """
    _, simples, (columns, _) = _affine_simple_data(rs)
    beta = [packed for packed, _ in simples]
    ready = {j for j, b in enumerate(beta) if b > 0 and b in target}
    steps = []
    step = steps.append
    try:
        for _ in range(len(target)):
            i = ready.pop()
            step(i)
            b = beta[i]
            for j, a in columns[i]:
                bj = beta[j] = beta[j] - a * b
                if bj > 0 and bj in target:
                    ready.add(j)
                else:
                    ready.discard(j)
            beta[i] = -b
    except KeyError:
        raise ValueError(
            "the given set is not bi-convex (no simple reflection adds a root of it)"
        ) from None
    return beta, steps


def element_from_inversions(rs: RootSystem, affine_roots) -> AffineWeylElement:
    """The unique element whose inversion set is the given set; raises
    ValueError when the set is no inversion set."""
    weights = _affine_simple_data(rs)[0]
    top, low = weights[0], weights[1:]
    target = {sum(map(mul, b.finite, low), b.level * top) for b in affine_roots}
    return _grow(rs, _walk(rs, target)[1])


def _level_set(rs: RootSystem, levels):
    """The packed set {m*delta - gamma_k : 1 <= m <= levels[k]}, where a level
    of None, as in an l-table, counts as 0."""
    top = _affine_simple_data(rs)[0][0]
    return {m * top - g for g, level in zip(_packed_positive_roots(rs), levels)
            if level for m in range(1, level + 1)}


def _grow_to_levels(rs: RootSystem, levels) -> AffineWeylElement:
    """The element whose inversion set is {m*delta - gamma_k : 1 <= m <= levels[k]},
    a level of None counting as 0."""
    return _grow(rs, _walk(rs, _level_set(rs, levels))[1])


@lru_cache(maxsize=None)
def _image_record_data(rs: RootSystem):
    """What `_w_min_fields` reads the images with: the shift of the level
    digit and, per neighbour alpha_i of alpha_0, the shift of coordinate
    i's digit, half of it (the rounding) and (alpha_i, theta), read off the
    pairings -(alpha_i, theta) of alpha_0 in `_affine_simple_data`."""
    shifts = [(_SHIFT * (rs.rank - 1 - i), c) for i, c in _affine_simple_data(rs)[1][0][1]]
    return _SHIFT * rs.rank, tuple((s, (1 << s) >> 1, -c) for s, c in shifts)


def _w_min_fields(ideal: Ideal, l_table):
    """`rootlet(w)`, `lattice_image(w)` and its `y_coordinates` for
    w = `w_min(ideal)`, read off w's images without building w, as the
    module docstring derives; `l_table` is `ideals._l_table(ideal)`."""
    rs = ideal.rs
    beta = _walk(rs, _level_set(rs, l_table))[0]
    shift, neighbours = _image_record_data(rs)
    half = 1 << (shift - 1)
    y, pairs = [], []
    for b in beta[1:]:
        m = (b + half) >> shift
        fin = b - (m << shift)
        t = 0
        for s, hs, c in neighbours:
            # the signed digit of coordinate s, rounded as the level digit is
            t += c * ((((fin + hs) >> s) + _HALF & _MASK) - _HALF)
        y.append(m)
        pairs.append(-t)
    nu = _from_coweights(rs, pairs)
    return (Root(nu), sum(map(mul, nu, y)) - 1), _from_coweights(rs, y), y


def w_min(ideal: Ideal, l_table=None) -> AffineWeylElement:
    """The minimal element whose first layer ideal is I; `l_table`, if given,
    is `ideals._l_table(ideal)`, already computed."""
    if l_table is None:
        l_table = _ideals._l_table(ideal)
    return _grow_to_levels(ideal.rs, l_table)


def w_max(ideal: Ideal) -> AffineWeylElement:
    """The maximal element whose first layer ideal is I (I strictly positive)."""
    kt = _ideals._k_table(ideal)  # raises for non strictly positive ideals
    return _grow_to_levels(ideal.rs, [k - 1 for k in kt])


def rootlet(w: AffineWeylElement):
    """The pair (nu, m) with w(alpha_0) = -m*delta + nu; nu is a long root."""
    image = act_affine_root(w, simple_affine_root(w.rs, 0))
    return Root(image.finite), -image.level


def first_layer_ideal(w: AffineWeylElement) -> Ideal:
    """{mu in Delta^+ : delta - mu in N(w)} = {mu : s(mu) <= -1}; w must be
    dominant."""
    shifts = _shifts(w)
    if any(shifts[i] > 0 for i in w.rs.simple_indices):
        raise ValueError("first layer ideal is defined for dominant elements only")
    return Ideal(w.rs, sum(1 << idx for idx, s in enumerate(shifts) if s <= -1))


def _roots_sent_to(w: AffineWeylElement, targets) -> Antichain:
    """The positive roots gamma with w(delta - gamma) in targets."""
    return Antichain(w.rs, [
        gamma for gamma in w.rs.positive_roots
        if act_affine_root(w, AffineRoot(1, tuple(-c for c in gamma.coords))) in targets
    ])


def generators_via_w(w: AffineWeylElement) -> Antichain:
    """Generators of I_w read off from w: roots with w(delta - gamma) in -Pi^."""
    if not is_minimal(w):
        raise ValueError("generators_via_w requires a minimal element")
    return _roots_sent_to(w, {-simple_affine_root(w.rs, i) for i in range(w.rs.rank + 1)})


def xi_via_w(w: AffineWeylElement) -> Antichain:
    """Xi(I_w) read off from w: roots with w(delta - gamma) in Pi^."""
    if not is_maximal(w):
        raise ValueError("xi_via_w requires a maximal element")
    return _roots_sent_to(w, {simple_affine_root(w.rs, i) for i in range(w.rs.rank + 1)})


def lattice_image(w: AffineWeylElement):
    """v(r), the coroot-lattice point attached to a dominant element."""
    return w.v.act(w.r)


def alcove_barycenter(rs: RootSystem):
    """Barycenter of the fundamental alcove (vertices 0 and varpi_i^vee / c_i)."""
    from fractions import Fraction
    dual, table = rs._coweights
    marks = rs.theta_coords
    lcm = math.lcm(*marks)
    return tuple(Fraction(sum(x * (lcm // c) for x, c in zip(col, marks)),
                          dual * (rs.rank + 1) * lcm) for col in table)


def alcove_image_barycenter(w: AffineWeylElement):
    """Barycenter of w^{-1} * A, computed as w^{-1} * barycenter(A)."""
    return act_point(w.inverse(), alcove_barycenter(w.rs))


def element_to_record(w: AffineWeylElement) -> dict:
    return {
        "word": reduced_word(w),
        "v_matrix": [list(row) for row in w.v.matrix],
        "r_coords": list(w.r),
        "length": length(w),
    }


def element_from_record(rs: RootSystem, record: dict) -> AffineWeylElement:
    """The element of the record's word; the lists `element_to_record` writes
    for v_matrix and r_coords, when present, must equal the word's."""
    w = element_from_word(rs, record.get("word"))
    if "v_matrix" in record and record["v_matrix"] != [list(row) for row in w.v.matrix]:
        raise ValueError("record's v_matrix does not match its word")
    if "r_coords" in record and record["r_coords"] != list(w.r):
        raise ValueError("record's r_coords do not match its word")
    return w
