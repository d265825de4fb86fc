"""Matrix-coordinate descriptions of minimax ideals in types A and C.

Positive roots of A_n are the pairs (a, b) with 1 <= a < b <= n+1,
where (a, b) = alpha_a + ... + alpha_{b-1}.  An ideal of A_n is minimax
exactly when its generator pairs are "non-meeting": b_j != a_i + 1 for
all i, j.  Positive roots of C_n are the pairs (i, j) with i < j and
i + j <= 2n+1; ideals of C_n correspond to the self-conjugate ideals of
A_{2n-1} (their symmetrisations), and minimaxity is read off from the
symmetrisation.  Counting non-meeting antichains recovers the Motzkin
and directed-animal numbers, refined by the number of generators.

In both types a root of height h whose support starts at alpha_i is the
pair (i, i + h).  `_pair_table` reads the pairs off once per system, and
`_fold_table` matches the root indices of A_{2n-1} and C_n by pair, so
every conversion below is a lookup.
"""

import math
from collections import Counter
from functools import lru_cache

from .rootsys import Root, RootSystem, build
from .ideals import Antichain, Ideal, enumerate_ideals, generators
from .lattice_count import catalan

__all__ = [
    "PairAntichain", "to_pairs", "from_pairs", "has_non_meeting_generators",
    "count_non_meeting", "count_sp_minimax",
    "sp_pair_to_root", "sp_root_to_pair", "fold_pair",
    "symmetrize", "sp_restriction", "is_self_conjugate", "sp_is_minimax",
    "generating_function_Fmm", "minimax_generator_distribution",
]


def _int_pair(entry):
    """entry, a tuple or list of two ints (no bool), as a tuple; else ValueError."""
    if not (isinstance(entry, (tuple, list)) and len(entry) == 2
            and all(type(c) is int for c in entry)):
        raise ValueError("a pair is two ints, not %r" % (entry,))
    return tuple(entry)


class PairAntichain:
    """An antichain of A_n in pair coordinates, sorted by first entry."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs):
        pairs = sorted(map(_int_pair, pairs))
        for a, b in pairs:
            if not 1 <= a < b <= n + 1:
                raise ValueError("pair %r is out of range for A_%d" % ((a, b), n))
        if any(p[0] >= q[0] or p[1] >= q[1] for p, q in zip(pairs, pairs[1:])):
            raise ValueError("pair antichain needs strictly increasing a's and b's")
        self.n = n
        self.pairs = tuple(pairs)

    def __eq__(self, other):
        return isinstance(other, PairAntichain) and (self.n, self.pairs) == (other.n, other.pairs)

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self):
        return "PairAntichain(n=%d, %s)" % (self.n, list(self.pairs))


def _require_type_a(rs: RootSystem):
    if rs.type_label != "A":
        raise ValueError("pair coordinates are defined for type A only (got %s)"
                         % rs.type_label)


@lru_cache(maxsize=None)
def _pair_table(rs: RootSystem):
    """The pair (i, i + height) of each positive root of A_n or C_n, by root
    index, where alpha_i starts its support; and the inverse dict."""
    firsts = [next(k for k, c in enumerate(r.coords) if c) + 1 for r in rs.positive_roots]
    pairs = tuple((i, i + r.height) for i, r in zip(firsts, rs.positive_roots))
    return pairs, {pair: idx for idx, pair in enumerate(pairs)}


def to_pairs(antichain: Antichain) -> PairAntichain:
    """(a, b) encoding of a type-A antichain: support [a, b-1] of each root."""
    rs = antichain.rs
    _require_type_a(rs)
    pairs = _pair_table(rs)[0]
    return PairAntichain(rs.rank, [pairs[rs.index_of(r)] for r in antichain.roots])


def from_pairs(pa: PairAntichain, rs: RootSystem = None) -> Antichain:
    if rs is None:
        rs = build("A", pa.n)
    _require_type_a(rs)
    if rs.rank != pa.n:
        raise ValueError("rank mismatch: pairs for A_%d, system A_%d" % (pa.n, rs.rank))
    index = _pair_table(rs)[1]
    return Antichain(rs, [rs.positive_roots[index[p]] for p in pa.pairs])


def has_non_meeting_generators(pa: PairAntichain) -> bool:
    """b_j != a_i + 1 for all i, j; in particular no generator is simple."""
    firsts = {a + 1 for a, _ in pa.pairs}
    return not any(b in firsts for _, b in pa.pairs)


def count_non_meeting(n: int, k: int) -> int:
    """Ideals of A_n with exactly k non-meeting generators: C(n, 2k) Catalan(k)."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return math.comb(n, 2 * k) * catalan(k)


def count_sp_minimax(n: int, q: int) -> int:
    """Minimax ideals of C_n with q generators.

    C(2q-1, q-1) C(n-1, 2q-1) + C(2q, q) C(n-1, 2q); the total over q
    is the directed-animal number dir_n.
    """
    if n < 2 or q < 0:
        raise ValueError("need n >= 2 and q >= 0")
    if q == 0:
        return 1
    return math.comb(2 * q - 1, q - 1) * math.comb(n - 1, 2 * q - 1) + math.comb(
        2 * q, q
    ) * math.comb(n - 1, 2 * q)


# -- type C pair coordinates ---------------------------------------------------


def _require_type_c(rs: RootSystem):
    if rs.type_label != "C":
        raise ValueError("expected a type C system (got %s)" % rs.type_label)


def sp_pair_to_root(rs: RootSystem, pair) -> Root:
    _require_type_c(rs)
    index = _pair_table(rs)[1]
    pair = _int_pair(pair)
    if pair not in index:  # exactly the i < j with i >= 1 and i + j <= 2n + 1
        raise ValueError("%r is not a positive-root pair of C_%d" % (pair, rs.rank))
    return rs.positive_roots[index[pair]]


def sp_root_to_pair(rs: RootSystem, root: Root):
    _require_type_c(rs)
    return _pair_table(rs)[0][rs.index_of(root)]


def fold_pair(n: int, i: int, j: int):
    """The surjection from A_{2n-1} pairs onto C_n pairs."""
    if i + j <= 2 * n + 1:
        return (i, j)
    return (2 * n + 1 - j, 2 * n + 1 - i)


@lru_cache(maxsize=None)
def _fold_table(n: int):
    """Per A_{2n-1} root index, the C_n index of its `fold_pair`; per C_n
    index, the A_{2n-1} index of the same pair."""
    a_pairs, a_index = _pair_table(build("A", 2 * n - 1))
    c_pairs, c_index = _pair_table(build("C", n))
    return (tuple(c_index[fold_pair(n, i, j)] for i, j in a_pairs),
            tuple(a_index[pair] for pair in c_pairs))


def symmetrize(ideal: Ideal) -> Ideal:
    """The self-conjugate ideal of A_{2n-1} restricting to a C_n ideal."""
    rs = ideal.rs
    _require_type_c(rs)
    fold = _fold_table(rs.rank)[0]
    return Ideal(build("A", 2 * rs.rank - 1),
                 sum(1 << a for a, c in enumerate(fold) if ideal.mask >> c & 1))


def sp_restriction(bar_ideal: Ideal) -> Ideal:
    """Inverse of `symmetrize`: keep the pairs with i + j <= 2n + 1."""
    rs_a = bar_ideal.rs
    _require_type_a(rs_a)
    if rs_a.rank % 2 == 0:
        raise ValueError("restriction needs A_{2n-1}, an odd rank")
    n = (rs_a.rank + 1) // 2
    lift = _fold_table(n)[1]
    return Ideal(build("C", n),
                 sum(1 << c for c, a in enumerate(lift) if bar_ideal.mask >> a & 1))


def is_self_conjugate(bar_ideal: Ideal) -> bool:
    """Generators (i_m, j_m), sorted by i, satisfy i_m + j_{k+1-m} = 2n+1."""
    rs_a = bar_ideal.rs
    _require_type_a(rs_a)
    if rs_a.rank % 2 == 0:
        raise ValueError("self-conjugacy is about A_{2n-1}, an odd rank")
    two_n = rs_a.rank + 1
    pairs = to_pairs(generators(bar_ideal)).pairs
    k = len(pairs)
    return all(pairs[m][0] + pairs[k - 1 - m][1] == two_n + 1 for m in range(k))


def sp_is_minimax(ideal: Ideal) -> bool:
    """Minimaxity of a C_n ideal via its symmetrisation's generators."""
    return has_non_meeting_generators(to_pairs(generators(symmetrize(ideal))))


# -- generating functions ------------------------------------------------------


def generating_function_Fmm(type_label: str, rank: int):
    """Coefficients of F_mm: entry k counts minimax ideals with k generators.

    Closed forms exist for types A and C only; ask
    `minimax_generator_distribution` for an enumeration-based answer in
    the other types.
    """
    if type_label == "A":
        return [count_non_meeting(rank, k) for k in range(rank // 2 + 1)]
    if type_label == "C":
        return [count_sp_minimax(rank, q) for q in range(rank // 2 + 1)]
    raise ValueError("no closed form for type %s; only A and C are covered"
                     % type_label)


def minimax_generator_distribution(rs: RootSystem):
    """Generator-count histogram over the minimax ideals, by enumeration."""
    hist = Counter(len(generators(ideal)) for ideal in enumerate_ideals(rs, "minimax"))
    return [hist[k] for k in range(max(hist) + 1)]
