"""Ideals of the positive-root poset and their antichains of generators.

An ideal is an upward closed subset of Delta^+; its minimal elements
form an antichain, and the correspondence ideal <-> antichain is a
bijection, so ideals are serialised by their generator lists.
Internally an ideal is a bitmask over the ambient system's root order,
which keeps the exhaustive sweeps cheap.

The numbers attached to a root gamma of an ideal I:

  l(gamma, I) = largest m with gamma a sum of m members of I,
  k(gamma, I) = smallest n with gamma a sum of n members of Delta^+ \\ I
                (only defined when I contains no simple root).

Both are computed by dynamic programming over two-root decompositions;
any longer decomposition of a root can be reordered so that every
partial sum is again a root, so binary splits lose nothing.  The splits
are `RootSystem.decompositions`, found by subtracting from each root the
roots below it; `_l_table` reads them, `power` the l-table and
`is_abelian` the splits of theta alone.

Each split of a root has both parts at lower root indices, so k fills
in root-index order.  So does l, and on an ideal whose members below m
all have l = k - 1, l(m) is read off the k-values of the member-member
splits of m.  `_first_minimax_failure` therefore scans the members in
index order with the k-table alone and stops at the first member where
k - 1 != l.  Since l <= k - 1 on strictly positive ideals, a member
passes iff k = 2 or some split's k-values sum to k + 1, so the scan
reads a member's splits, balanced first, only until the least sum 2 or
such a witness settles it.  `is_minimax` is that scan over every member,
and `enumerate_ideals` runs it inside its walk.  There a child shares its
parent's k-values on every root not above the generator it adds, since
the splits of such a root are not above it either, and rescans only the
roots above that generator and the members the parent left unscanned;
a failure prunes the children that cannot mend it.  The full tables,
`_l_table` and `_k_table`, are kept: `w_min`, `w_max` and `power` read
them, and they are the oracle the scan is checked against.
"""

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .rootsys import Root, RootSystem, build

__all__ = [
    "Ideal", "Antichain", "empty_ideal", "full_ideal", "ideal_from_roots",
    "generators", "ideal_of", "xi", "is_strictly_positive", "is_abelian",
    "power", "l_value", "k_value", "is_minimax", "enumerate_ideals",
    "shi_inequalities", "shi_region_contains", "ideal_to_record",
    "ideal_from_record", "heisenberg_root_mask", "is_heisenberg_contained",
    "CLASSES",
]


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Ideal:
    """An upward closed set of positive roots, stored as an index bitmask."""

    __slots__ = ("rs", "mask")

    def __init__(self, rs: RootSystem, mask: int):
        if type(mask) is not int or not 0 <= mask < 1 << rs.num_positive:
            raise ValueError("not an int mask below 2**%d: %r" % (rs.num_positive, mask))
        for i in _iter_bits(mask):
            if rs.up_masks[i] & ~mask:
                raise ValueError(
                    "not an ideal: contains %r but not every root above it"
                    % (rs.positive_roots[i],)
                )
        self.rs = rs
        self.mask = mask

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self):
        return [self.rs.positive_roots[i] for i in _iter_bits(self.mask)]

    def __contains__(self, root: Root) -> bool:
        """False for anything that is not a positive root of the system."""
        try:
            i = self.rs._index.get(root.coords)
        except (AttributeError, TypeError):
            return False
        return i is not None and self.mask >> i & 1 == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal) and self.rs is other.rs and self.mask == other.mask
        )

    def __hash__(self):
        return hash((id(self.rs), self.mask))

    def __repr__(self):
        gens = [list(r.coords) for r in generators(self).roots]
        return "Ideal(%s%d, generators=%s)" % (self.rs.type_label, self.rs.rank, gens)


class Antichain:
    """Pairwise incomparable positive roots, kept in the root order."""

    __slots__ = ("rs", "roots")

    def __init__(self, rs: RootSystem, roots):
        idx = sorted(rs.index_of(r) for r in roots)
        if len(set(idx)) != len(idx):
            raise ValueError("antichain has repeated roots")
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = idx[a], idx[b]
                if rs.up_masks[i] >> j & 1 or rs.up_masks[j] >> i & 1:
                    raise ValueError(
                        "not an antichain: %r and %r are comparable"
                        % (rs.positive_roots[i], rs.positive_roots[j])
                    )
        self.rs = rs
        self.roots = tuple(rs.positive_roots[i] for i in idx)

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    def __eq__(self, other):
        return (
            isinstance(other, Antichain)
            and self.rs is other.rs
            and self.roots == other.roots
        )

    def __hash__(self):
        return hash((id(self.rs), self.roots))

    def __repr__(self):
        return "Antichain(%s)" % (list(list(r.coords) for r in self.roots),)


def empty_ideal(rs: RootSystem) -> Ideal:
    return Ideal(rs, 0)


def full_ideal(rs: RootSystem) -> Ideal:
    return Ideal(rs, (1 << rs.num_positive) - 1)


def ideal_from_roots(rs: RootSystem, roots) -> Ideal:
    """Build an ideal from an explicit member list (must be upward closed)."""
    mask = 0
    for r in roots:
        mask |= 1 << rs.index_of(r)
    return Ideal(rs, mask)


def generators(ideal: Ideal) -> Antichain:
    """The minimal elements of the ideal."""
    rs = ideal.rs
    # the minimal elements are an antichain, listed in index order, so the
    # checks in Antichain are skipped
    mask, roots, below = ideal.mask, rs.positive_roots, rs.strict_down_masks
    gens = object.__new__(Antichain)
    gens.rs = rs
    gens.roots = tuple([roots[i] for i in range(mask.bit_length())
                        if mask >> i & 1 and not below[i] & mask])
    return gens


def ideal_of(gamma: Antichain) -> Ideal:
    """Upward closure of an antichain; inverse of `generators`."""
    rs = gamma.rs
    mask = 0
    for r in gamma.roots:
        mask |= rs.up_masks[rs.index_of(r)]
    return Ideal(rs, mask)


def xi(ideal: Ideal) -> Antichain:
    """The maximal elements of the complement Delta^+ \\ I."""
    rs = ideal.rs
    comp = ~ideal.mask & ((1 << rs.num_positive) - 1)
    outs = [
        rs.positive_roots[i]
        for i in _iter_bits(comp)
        if rs.up_masks[i] & comp == 1 << i
    ]
    return Antichain(rs, outs)


def is_strictly_positive(ideal: Ideal) -> bool:
    """True iff the ideal contains no simple root."""
    return not ideal.mask & ideal.rs.simple_mask


def is_abelian(ideal: Ideal) -> bool:
    """True iff no two members (repeats allowed) sum to a root.  I^2 is again
    an ideal and every nonempty ideal contains theta, so I^2 is empty iff
    theta is no sum of two members (Cellini-Papi, Kostant)."""
    rs, mask = ideal.rs, ideal.mask
    return not any(mask >> a & 1 and mask >> b & 1 for a, b in rs.decompositions[rs.theta_index])


def power(ideal: Ideal, k: int) -> Ideal:
    """I^k = (I^{k-1} + I) cap Delta = {gamma in I : l(gamma, I) >= k}: in a
    sum of m >= k members ordered so that every partial sum is a root, the
    first m - k + 1 terms sum to a member, so it is a sum of k members."""
    if type(k) is not int or k < 1:
        raise ValueError("power requires an int k >= 1, not %r" % (k,))
    table = _l_table(ideal)
    return Ideal(ideal.rs, sum(1 << m for m in _iter_bits(ideal.mask) if table[m] >= k))


def _l_table(ideal: Ideal):
    """l(gamma, I) for every member, indexed by root index (None outside I)."""
    rs = ideal.rs
    mask = ideal.mask
    table = [None] * rs.num_positive
    for m in _iter_bits(mask):
        best = 1
        for a, b in rs.decompositions[m]:
            if mask >> a & 1 and mask >> b & 1:
                cand = table[a] + table[b]
                if cand > best:
                    best = cand
        table[m] = best
    return table


def _k_table(ideal: Ideal):
    """k(gamma, I) for every positive root; needs a strictly positive ideal."""
    rs = ideal.rs
    mask = ideal.mask
    if mask & rs.simple_mask:
        raise ValueError("k-values are defined only for strictly positive ideals")
    table = [0] * rs.num_positive
    for m in range(rs.num_positive):
        if not mask >> m & 1:
            table[m] = 1
        else:
            table[m] = min(table[a] + table[b] for a, b in rs.decompositions[m])
    return table


def l_value(gamma: Root, ideal: Ideal) -> int:
    i = ideal.rs.index_of(gamma)
    if not ideal.mask >> i & 1:
        raise ValueError("l(gamma, I) requires gamma in I")
    return _l_table(ideal)[i]


def k_value(gamma: Root, ideal: Ideal) -> int:
    return _k_table(ideal)[ideal.rs.index_of(gamma)]


def _first_minimax_failure(decs, k, todo):
    """The lowest member in the bitmask todo where k - 1 != l, or -1 if none.

    k holds the k-value of every member outside todo and 1 on every root
    off the ideal; the scan fills in the members of todo it passes.  Every
    member it has passed, or that lies outside todo, satisfies l = k - 1,
    and a split has both parts in the ideal iff both k-values exceed 1 (k
    is 1 off the ideal, at least 2 on a strictly positive one), so l needs
    no table of its own:
    l(m) = max(1, k[a] + k[b] - 2 over the member-member splits (a, b)).

    On a strictly positive ideal l <= k - 1 (N(w_min) lies in N(w_max)),
    so m passes iff l(m) >= k(m) - 1: at once if k(m) = 2, else iff some
    split (a, b) has k[a] + k[b] = k(m) + 1.  A member-member split gives
    l(m) >= l(a) + l(b) = k(m) - 1; a split with a off the ideal has
    k[b] = k(m), and l(m) >= l(b) since each I^j is an ideal.  So each
    member takes two passes over its splits, balanced first, each stopping
    as soon as it can: the least sum, cut short at 2 (two non-members);
    then, if k(m) > 2, the first split that sums to k(m) + 1.
    """
    while todo:
        low = todo & -todo
        todo ^= low
        m = low.bit_length() - 1
        splits = decs[m]
        kmin = len(k)
        for a, b in splits:
            s = k[a] + k[b]
            if s < kmin:
                kmin = s
                if s == 2:
                    break
        if kmin > 2:
            want = kmin + 1
            for a, b in splits:
                if k[a] + k[b] == want:
                    break
            else:
                return m
        k[m] = kmin
    return -1


def is_minimax(ideal: Ideal) -> bool:
    """Strictly positive with k(gamma,I) - 1 = l(gamma,I) for every member.

    One pass over the members in root-index order fills the k-table and
    stops at the first member where k - 1 and l disagree.
    """
    rs, mask = ideal.rs, ideal.mask
    if mask & rs.simple_mask:
        return False
    return _first_minimax_failure(rs.decompositions, [1] * rs.num_positive, mask) < 0


@lru_cache(maxsize=None)
def heisenberg_root_mask(rs: RootSystem) -> int:
    """Bitmask of the roots not orthogonal to the highest root.

    theta is dominant, so (gamma, theta) > 0 exactly when gamma lies above
    a simple root alpha_i with (alpha_i, theta) > 0, a neighbour of alpha_0
    in the extended diagram: the union of their up masks, one Gram product.
    """
    pairs = rs._scaled_pairings(rs.theta_coords, "a Heisenberg mask")[1]
    mask = 0
    for s, q in zip(rs.simple_indices, pairs):
        if q > 0:
            mask |= rs.up_masks[s]
    return mask


def is_heisenberg_contained(ideal: Ideal) -> bool:
    """True iff the ideal lies inside the Heisenberg ideal."""
    return not ideal.mask & ~heisenberg_root_mask(ideal.rs)


# the class names `enumerate_ideals` accepts.  The walk decides each class
# itself: abelian, nontrivial and non-abelian by calling `is_abelian` and
# testing the mask, the minimax test inside the walk, and the strictly
# positive and Heisenberg-contained classes by narrowing the generators it
# tries.  `is_abelian` is looked up in this module at each call, so a wrapper
# put on it (a profiler, a counter) sees those calls.
CLASSES = ("all", "strictly_positive", "nontrivial", "heisenberg_contained",
           "abelian", "non_abelian", "minimax")


def enumerate_ideals(rs: RootSystem, which="all"):
    """Yield every ideal of the given classes exactly once, in a fixed order.

    `which` is a name from `CLASSES` or a collection of them; an ideal is
    kept when it is in every named class.  The order is depth-first over
    antichains sorted by generator index, so identical calls always
    produce the identical stream, and asking for classes only drops
    ideals from the unfiltered stream.

    The walk skips the subtrees that hold no kept ideal.  A child adds a
    generator j, and with it only roots at index >= j.  Strictly positive
    and Heisenberg-contained ideals are those inside a fixed ideal, so
    only its roots are tried as generators.  Every ideal above a
    non-abelian one is non-abelian, so when abelian is asked for, a
    non-abelian node ends its subtree.  For minimax, k and l of a root
    read only the roots below it, so they change only on the roots above
    the added generator j.  A child inherits its parent's whole k-table
    and scans the roots above j together with the parent's members from
    its first failure f on, the ones the parent did not pass; every other
    member passed in the parent and still does.  If the node fails first
    at f, so does every descendant that adds no generator below f, so
    only the children that can add one are entered.
    """
    names = {which} if isinstance(which, str) else set(which)
    unknown = sorted(names.difference(CLASSES))
    if unknown:
        raise ValueError("unknown filter %r; expected one of %s"
                         % (unknown[0], tuple(CLASSES)))
    n = rs.num_positive
    up, below = rs.up_masks, rs.strict_down_masks
    # roots are sorted by height, so one with a higher index than j is
    # incomparable to j iff it is not above j
    not_above = [~u for u in up]
    cand = (1 << n) - 1
    if names & {"strictly_positive", "minimax"}:
        cand &= ~rs.simple_mask
    if "heisenberg_contained" in names:
        cand &= heisenberg_root_mask(rs)
    abelian = "abelian" in names
    nontrivial = "nontrivial" in names
    non_abelian = "non_abelian" in names
    minimax = "minimax" in names
    decs = rs.decompositions if minimax else None

    # depth-first with an explicit stack: a node's children are pushed
    # highest generator first, so they pop in generator-index order
    stack = [(0, cand, [1] * n, 0)]
    push = stack.append
    while stack:
        mask, cand, k, todo = stack.pop()
        # a union of up-sets is upward closed, so the check in Ideal is skipped
        ideal = object.__new__(Ideal)
        ideal.rs = rs
        ideal.mask = mask
        if abelian and not is_abelian(ideal):
            continue
        f = _first_minimax_failure(decs, k, todo) if minimax else -1
        if f < 0 and (mask or not nontrivial) and not (non_abelian and is_abelian(ideal)):
            yield ideal
        # a subtree fails at f unless it adds a generator below f; with no
        # failure, every child meets -1.  The members from f on are the ones
        # the scan left unchecked.
        if f >= 0:
            rescue, unscanned = below[f], mask >> f << f
        else:
            rescue, unscanned = -1, 0
        higher = 0
        while cand:
            j = cand.bit_length() - 1
            bit = 1 << j
            cand ^= bit
            sub = higher & not_above[j]
            higher |= bit
            if rescue & (bit | sub):
                push((mask | up[j], sub, k[:], up[j] | unscanned) if minimax
                     else (mask | up[j], sub, None, 0))


ShiConstraint = namedtuple("ShiConstraint", "root relation bound")


def shi_inequalities(ideal: Ideal):
    """Defining constraints of the dominant region attached to the ideal.

    (x, alpha) > 0 for simple alpha; (x, gamma) > 1 on members and
    (x, gamma) < 1 off members.  Meant for membership tests of rational
    points, not for geometry.
    """
    rs = ideal.rs
    cons = [ShiConstraint(a, ">", 0) for a in rs.simple_roots()]
    for i, r in enumerate(rs.positive_roots):
        if ideal.mask >> i & 1:
            cons.append(ShiConstraint(r, ">", 1))
        else:
            cons.append(ShiConstraint(r, "<", 1))
    return cons


def shi_region_contains(ideal: Ideal, x) -> bool:
    """Whether the rational point x, rank many int or Fraction coordinates
    (ValueError otherwise), satisfies every one of `shi_inequalities(I)`,
    read off the integers P_j = D (x, alpha_j) as
    D (x, gamma) = sum_j gamma_j P_j against D times the bound."""
    scale, pairs = ideal.rs._scaled_pairings(x, "a Shi region test")
    for root, relation, bound in shi_inequalities(ideal):
        val, bound = sum(map(mul, root.coords, pairs)), bound * scale
        if not (val > bound if relation == ">" else val < bound):
            return False
    return True


def ideal_to_record(ideal: Ideal) -> dict:
    """Canonical serialisation: the system plus the generator list."""
    return {
        "type": ideal.rs.type_label,
        "rank": ideal.rs.rank,
        "generators": [list(r.coords) for r in generators(ideal).roots],
    }


def ideal_from_record(record: dict, rs: RootSystem = None) -> Ideal:
    """The ideal `ideal_to_record` wrote, in `rs` if given; ValueError if malformed."""
    keys = {"generators"} if rs is not None else {"type", "rank", "generators"}
    if not isinstance(record, dict) or not keys <= record.keys():
        raise ValueError("an ideal record is a dict with keys %s, not %r"
                         % (", ".join(sorted(keys)), record))
    gens = record["generators"]
    if not (isinstance(gens, list) and all(
            isinstance(g, list) and all(type(c) is int for c in g) for g in gens)):
        raise ValueError("an ideal record's generators are a list of integer lists, "
                         "not %r" % (gens,))
    if rs is None:
        rs = build(record["type"], record["rank"])
    return ideal_of(Antichain(rs, [Root(tuple(c)) for c in gens]))
