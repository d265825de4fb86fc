"""Root systems of the simple Lie types, in simple-root coordinates.

A root is an integer vector over the simple roots alpha_1..alpha_p, and
Delta^+ carries the usual root order: mu <= gamma iff gamma - mu has
nonnegative coordinates.  The invariant inner product is normalised so
that long roots have squared length 2; then nu^vee = nu for long nu and
every pairing (gamma, nu^vee) between two roots is an integer.  Every
inner product and pairing reads the one Gram product,
`RootSystem._scaled_pairings`, which checks the vector it is given.

Every type is one row of `TYPES`: its least and greatest rank and its
Dynkin diagram, the bonds between simple roots and the ratios
r_i = 2 / |alpha_i|^2 (1 on long simple roots, 2 or 3 on short ones).  The
integer Gram matrix is read off the diagram and the Cartan matrix off the
Gram matrix.  Simple roots are numbered as in the Vinberg-Onishchik
reference tables, which differs from Bourbaki for E6, E7, E8 and F4 (the
README has the dictionary).  The counting congruences in `lattice_count`
are stated in this numbering, so the numbering is load-bearing, not
cosmetic.

Positive roots are stored sorted by (height, coords), which fixes the
index of every root; all set-valued data elsewhere in the package is
held as bitmasks over this order.

The build works on packed root keys, coordinate i in 16-bit digit p-1-i
of one integer, as `affine._grow` packs its vectors: adding alpha_i is
one add, a lookup is one dict probe, and ascending keys within a height
are ascending coords.  Delta^+ grows one height layer at a time, and each
root carries its pairings (beta, alpha_j^vee), so the root-string test and
the covers beta + alpha_i cost O(1) per step and the build O(N p) for N
positive roots.  Coordinate tuples are unpacked once per root, at the end.
The long roots are read off the coordinates: a root is long iff it lies in
the coroot lattice Q^vee, that is iff r_j divides beta_j for every j.  A
long root is its own coroot; a short one has beta^vee = r beta with r = 2
or 3 primitive in Q^vee, so beta itself is not in Q^vee.
"""

import math
import struct
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from operator import add, mul

__all__ = ["TYPES", "Root", "AffineRoot", "RootSystem", "build"]

# bits per coordinate digit of a packed root key; root coordinates are at most 6
_BITS = 16


def _path(n):
    """The bonds of a chain of n nodes."""
    return [(i, i + 1) for i in range(n - 1)]


# type -> (least rank, greatest rank or None, rank -> (bonds, ratios)): the
# Dynkin diagram in Vinberg-Onishchik numbering, as the bonds (i, j) between
# simple roots and the ratios r_i = 2 / |alpha_i|^2, 1 on long simple roots
# and 2 or 3 on short ones
TYPES = {
    "A": (1, None, lambda n: (_path(n), (1,) * n)),
    "B": (2, None, lambda n: (_path(n), (1,) * (n - 1) + (2,))),
    "C": (2, None, lambda n: (_path(n), (2,) * (n - 1) + (1,))),
    "D": (4, None, lambda n: (_path(n - 1) + [(n - 3, n - 1)], (1,) * n)),
    "E6": (6, 6, lambda n: (_path(5) + [(2, 5)], (1,) * 6)),
    "E7": (7, 7, lambda n: (_path(6) + [(3, 6)], (1,) * 7)),
    "E8": (8, 8, lambda n: (_path(7) + [(4, 7)], (1,) * 8)),
    "F4": (4, 4, lambda n: (_path(4), (2, 2, 1, 1))),
    "G2": (2, 2, lambda n: (_path(2), (3, 1))),
}


class Root(namedtuple("Root", "coords")):
    """A root, stored as its coordinate vector over the simple roots."""

    __slots__ = ()

    @property
    def height(self) -> int:
        return sum(self.coords)

    def is_positive(self) -> bool:
        return any(c > 0 for c in self.coords)

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Root") -> "Root":
        return Root(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Root":
        return Root(tuple(-a for a in self.coords))

    def __repr__(self) -> str:
        return "Root[%s]" % ",".join(map(str, self.coords))


class AffineRoot(namedtuple("AffineRoot", "level finite")):
    """An affine real root k*delta + mu; `finite` holds the coords of mu."""

    __slots__ = ()

    def is_positive(self) -> bool:
        if self.level != 0:
            return self.level > 0
        return any(c > 0 for c in self.finite)

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(-self.level, tuple(-a for a in self.finite))

    def __repr__(self) -> str:
        return "AffineRoot(%d,[%s])" % (self.level, ",".join(map(str, self.finite)))


def _gram_data(type_label, rank):
    """The ratios r_i of the type's row of `TYPES`, the integer Gram matrix
    _gram_den * (alpha_i, alpha_j) and _gram_den, the lcm of the denominators
    of (alpha_i, alpha_i) = 2 / r_i and, across a bond, of
    (alpha_i, alpha_j) = -1 / min(r_i, r_j): the shorter root pairs to -1
    with the longer root's coroot."""
    try:
        lo, hi, diagram = TYPES[type_label]
    except KeyError:
        valid = ", ".join("%s (rank>=%d)" % (t, least) if top is None else t
                          for t, (least, top, _) in TYPES.items())
        raise ValueError("unknown type %r; valid types: %s" % (type_label, valid)) from None
    if rank < lo or (hi is not None and rank > hi):
        bound = ">= %d" % lo if hi is None else "= %d" % lo
        raise ValueError("type %s requires rank %s (got %d)" % (type_label, bound, rank))
    bonds, ratios = diagram(rank)
    den = math.lcm(*(r // math.gcd(2, r) for r in ratios),
                   *(min(ratios[i], ratios[j]) for i, j in bonds))
    num = [[0] * rank for _ in range(rank)]
    for i, r in enumerate(ratios):
        num[i][i] = 2 * den // r
    for i, j in bonds:
        num[i][j] = num[j][i] = -den // min(ratios[i], ratios[j])
    return ratios, tuple(map(tuple, num)), den


def _positive_root_keys(cartan):
    """Generate Delta^+ by root-string closure, one height layer at a time.

    A root is a packed key, coordinate i in 16-bit digit p-1-i, so that
    +-alpha_i is one add and ascending keys within a height are ascending
    coords.  Each root carries its pairings (beta, alpha_j^vee).  Returns the
    keys in (height, coords) order, the indices of their covers
    beta + alpha_i and the height-layer sizes.
    """
    p = len(cartan)
    units = [1 << _BITS * (p - 1 - i) for i in range(p)]
    pairings = dict(zip(units, cartan))
    covers = {}
    layer = sorted(units)
    keys = list(layer)
    sizes = []
    while layer:
        sizes.append(len(layer))
        nxt = []
        for key in layer:
            pair = pairings[key]
            ups = covers[key] = []
            for i, q in enumerate(pair):
                u = units[i]
                # beta + alpha_i is a root iff the alpha_i-string through beta
                # reaches more than q = (beta, alpha_i^vee) steps down, i.e.
                # beta - alpha_i, ..., beta - (q + 1) alpha_i are roots; a
                # borrow out of a zero digit i gives no root key
                if q >= 0:
                    down = key - u
                    while q >= 0 and down in pairings:
                        q -= 1
                        down -= u
                    if q >= 0:
                        continue
                up = key + u
                ups.append(up)
                if up not in pairings:
                    pairings[up] = tuple(map(add, pair, cartan[i]))
                    nxt.append(up)
        nxt.sort()
        keys += nxt
        layer = nxt
    position = dict(zip(keys, range(len(keys))))
    return keys, [[position[c] for c in covers[k]] for k in keys], sizes


def _decompositions(keys, heights, strict_down):
    """Per root k, the pairs (a, b), a <= b, with root a + root b = root k,
    balanced first: a in descending index order, so the last pair of a
    non-simple root has the least a, a simple root.

    The roots are given by their packed keys from `_positive_root_keys` and
    their heights, sorted by height.  Only the roots a strictly below root k
    and of at most half its height are tried.  Each probe is one subtraction
    of keys and one dict lookup: a root below root k leaves no digit of the
    difference negative.
    """
    position = dict(zip(keys, range(len(keys))))
    out = []
    for k, key in enumerate(keys):
        pairs = []
        below = strict_down[k] & ((1 << bisect_right(heights, heights[k] // 2)) - 1)
        while below:
            a = below.bit_length() - 1
            below ^= 1 << a
            b = position.get(key - keys[a])
            if b is not None and a <= b:
                pairs.append((a, b))
        out.append(tuple(pairs))
    return tuple(out)


class RootSystem:
    """Immutable Cartan/root data for one simple type.

    Computed once at construction: the positive roots in their
    deterministic order, the highest root, exponents and two order tables:
    `up_masks` (the roots at or above each root) and `strict_down_masks`.
    Every other order set (Xi, incomparable roots, the Heisenberg ideal) is
    read off them by its user.  The roots and their covers (for the order
    tables) come from `_positive_root_keys` on packed keys; the keys are
    kept in `_keys`, the carried pairings stay local to the constructor, and
    `_index` maps coordinate tuples.  `long_mask` holds the roots in the
    coroot lattice, which are the long ones.  The
    two-root decompositions (probed on the kept keys), the fundamental
    coweights and the simple root lengths are computed on first use, since
    counting reads none of them, and a build makes no Fraction.  The
    coweights take no inverse: h^vee varpi_k^vee = sum_{beta > 0} beta_k beta,
    h^vee = 1 + sum c_i / r_i (Kac, 6.1 and Table Aff; `_coweights`).
    Inner products and pairings are computed on demand from one integer
    Gram matrix, read off the type's row of `TYPES`, by `_scaled_pairings`
    alone, which checks its vector.  Use the module-level `build` (which
    caches) rather than the constructor.
    """

    def __init__(self, type_label: str, rank: int):
        ratios, gram, den = _gram_data(type_label, rank)
        self.type_label = type_label
        self.rank = rank
        self._gram_num = gram
        self._gram_den = den
        # x_j alpha_j = (x_j / r_j) alpha_j^vee is in the coroot lattice iff r_j | x_j
        self._coroot_moduli = ratios
        sq = [gram[i][i] for i in range(rank)]
        # a[i][j] = (alpha_i, alpha_j^vee) = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)
        self.cartan = cartan = tuple(tuple(2 * x // q for x, q in zip(row, sq)) for row in gram)

        keys, covers, layer_sizes = _positive_root_keys(cartan)
        self._keys = tuple(keys)
        digits = struct.Struct(">%dH" % rank)
        self.positive_roots = tuple(Root(digits.unpack(k.to_bytes(2 * rank, "big")))
                                    for k in keys)
        n = len(keys)
        self.num_positive = n
        self._index = {r.coords: i for i, r in enumerate(self.positive_roots)}
        # the first layer, in ascending keys, is alpha_p, ..., alpha_1
        self.simple_indices = tuple(reversed(range(rank)))
        self.simple_mask = sum(1 << i for i in self.simple_indices)

        hmax = len(layer_sizes)
        assert layer_sizes[-1] == 1, "highest root is not unique"
        self.theta_index = n - 1
        self.theta = self.positive_roots[self.theta_index]
        self.theta_coords = self.theta.coords
        self.c0 = 1
        self.coxeter_number = hmax + 1
        assert 2 * n == rank * self.coxeter_number
        assert sum(self.theta_coords) == self.coxeter_number - 1

        # exponents = conjugate partition of the height distribution
        assert all(layer_sizes[i] >= layer_sizes[i + 1] for i in range(hmax - 1))
        exps = sorted(sum(1 for s in layer_sizes if s >= j) for j in range(1, rank + 1))
        self.exponents = tuple(exps)
        assert sum(exps) == n and max(exps) == hmax

        # det(Cartan) = 1 + the number of marks of theta equal to 1
        self.index_of_connection = 1 + sum(1 for c in self.theta_coords if c == 1)

        # beta is long iff it is in Q^vee, iff r_j | beta_j for every j; a
        # coordinate rules roots out only where r_j > 1 (alpha_j short)
        long_mask = (1 << n) - 1
        for j, r in enumerate(ratios):
            if r > 1:
                long_mask &= ~sum(1 << i for i, b in enumerate(self.positive_roots)
                                  if b.coords[j] % r)
        self.long_mask = long_mask
        assert self.long_mask >> self.theta_index & 1, "highest root is not long"

        # order masks from the covers gamma < gamma + alpha_i, whose
        # transitive closure is the root order: the roots above gamma are
        # gamma and the roots above its covers, which all have larger
        # indices, so up masks are filled from the last index down and
        # strict down masks from the first index up
        up = [1 << i for i in range(n)]
        for i in reversed(range(n)):
            for k in covers[i]:
                up[i] |= up[k]
        down = [0] * n
        for i in range(n):
            for k in covers[i]:
                down[k] |= down[i] | 1 << i
        self.up_masks = tuple(up)
        self.strict_down_masks = tuple(down)

    @cached_property
    def decompositions(self):
        """Per root k, the pairs (a, b), a <= b, of root indices summing to it,
        in descending a: the most balanced split first, and last, on a
        non-simple root, the one whose a is a simple root."""
        return _decompositions(self._keys, [r.height for r in self.positive_roots],
                               self.strict_down_masks)

    @cached_property
    def lengths(self):
        """The squared lengths |alpha_i|^2 = 2 / r_i of the simple roots."""
        from fractions import Fraction
        return tuple(Fraction(2, r) for r in self._coroot_moduli)

    @cached_property
    def _coweights(self):
        """(h^vee, M), M[k][j] = sum_{beta > 0} beta_k beta_j: row k of M holds
        h^vee varpi_k^vee.  The Killing form is 2 h^vee times the normalised
        form (Kac, Infinite-dimensional Lie algebras, 6.1 and Table Aff), so
        sum_{beta > 0} (x, beta) beta = h^vee x, and (varpi_k^vee, beta) = beta_k.
        h^vee = 1 + sum c_i / r_i, one more than the height of theta^vee."""
        columns = tuple(zip(*(r.coords for r in self.positive_roots)))
        dual = 1 + sum(c // r for c, r in zip(self.theta_coords, self._coroot_moduli))
        return dual, tuple(tuple(sum(map(mul, a, b)) for b in columns) for a in columns)

    @cached_property
    def coweight_basis(self):
        """The fundamental coweights varpi_i^vee in root coordinates, the
        rows of `_coweights` over h^vee."""
        from fractions import Fraction
        dual, table = self._coweights
        return tuple(tuple(Fraction(x, dual) for x in row) for row in table)

    # -- basic queries ----------------------------------------------------

    def alpha(self, i: int) -> Root:
        """The i-th simple root (0-based)."""
        return self.positive_roots[self.simple_indices[i]]

    def simple_roots(self):
        return [self.alpha(i) for i in range(self.rank)]

    def long_positive_roots(self):
        return [r for i, r in enumerate(self.positive_roots) if self.long_mask >> i & 1]

    def index_of(self, root: Root) -> int:
        try:
            return self._index[root.coords]
        except (KeyError, AttributeError, TypeError):
            raise ValueError("%r is not a positive root of %s" % (root, self)) from None

    # -- exact arithmetic --------------------------------------------------

    def bilinear(self, x, y) -> "Fraction":
        """Invariant inner product of two vectors of rank many int or Fraction
        coordinates; ValueError for any other x or y."""
        from fractions import Fraction
        scale, pairs = self._scaled_pairings(x, "an inner product")
        y = self._rational_coords(y, "an inner product")
        return Fraction(sum(map(mul, y, pairs)), scale)

    def pairing(self, gamma: Root, nu: Root) -> int:
        """(gamma, nu^vee); an integer for any two roots.  ValueError for a
        zero nu, an argument that is not a `Root`, a non-integer value or
        coordinates of another kind."""
        norm = twice = 0
        if isinstance(gamma, Root) and isinstance(nu, Root):
            _, pairs = self._scaled_pairings(nu.coords, "a pairing")
            norm = sum(map(mul, nu.coords, pairs))
            twice = 2 * sum(map(mul, self._rational_coords(gamma.coords, "a pairing"), pairs))
        if not norm or twice % norm:
            raise ValueError("a pairing in %s needs two roots, not %r, %r" % (self, gamma, nu))
        return twice // norm

    def pair_root_coroot(self, mu, r) -> int:
        """(mu, r) for a root-coordinate vector mu and a coroot-lattice vector r,
        both rank many int or Fraction coordinates (ValueError otherwise)."""
        scale, pairs = self._scaled_pairings(r, "a root-coroot pairing")
        mu = self._rational_coords(mu, "a root-coroot pairing")
        q, rem = divmod(sum(map(mul, mu, pairs)), scale)
        if rem:
            raise ValueError("%r is not in the coroot lattice of %s" % (tuple(r), self))
        return q

    def _rational_coords(self, x, use):
        """x as a tuple of rank many int or Fraction coordinates; ValueError,
        naming the use, for any other x.  Only a non-int loads `fractions`."""
        try:
            coords = tuple(x)
        except TypeError:
            coords = ()
        valid = len(coords) == self.rank
        if valid and not all(type(c) is int for c in coords):
            from fractions import Fraction
            valid = all(type(c) is int or isinstance(c, Fraction) for c in coords)
        if not valid:
            raise ValueError("%s in %s needs %d int or Fraction coordinates, not %r"
                             % (use, self, self.rank, x))
        return coords

    def _scaled_pairings(self, x, use):
        """Integers D > 0 and P_j = D (x, alpha_j) for x of rank many int or
        Fraction coordinates (ValueError, naming the use, otherwise)."""
        coords = self._rational_coords(x, use)
        lcm = math.lcm(*(c.denominator for c in coords))
        ints = [c.numerator * (lcm // c.denominator) for c in coords]
        return lcm * self._gram_den, [sum(map(mul, ints, row)) for row in self._gram_num]

    def in_coroot_lattice(self, x) -> bool:
        """Whether x, rank many int or Fraction coordinates, lies in the coroot
        lattice; ValueError for any other x."""
        coords = self._rational_coords(x, "a coroot-lattice test")
        return not any(c % m for c, m in zip(coords, self._coroot_moduli))

    def __repr__(self) -> str:
        return "RootSystem(%s, rank=%d)" % (self.type_label, self.rank)


_CACHE: dict = {}


def build(type_label: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given simple type."""
    # checked before the cache, where True would find the key ("A", 1) and
    # an unhashable label would raise TypeError
    if type(type_label) is not str:
        raise ValueError("type must be a str, not %r" % (type_label,))
    if type(rank) is not int:
        raise ValueError("rank must be an int, not %r" % (rank,))
    key = (type_label, rank)
    if key not in _CACHE:
        _CACHE[key] = RootSystem(type_label, rank)
    return _CACHE[key]
