"""Shared test helpers: system sweeps and independent brute-force oracles."""

import itertools
import math
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from operator import ge, mul
from types import SimpleNamespace

from adideals import affine as A
from adideals import classical_types as C
from adideals import ideals as I
from adideals.lattice_count import CONGRUENCES
from adideals.rootsys import AffineRoot, Root, build


def systems_up_to(max_rank, exceptional=True):
    """(label, rank) for every simple type of rank <= max_rank."""
    out = [("A", n) for n in range(1, max_rank + 1)]
    out += [("B", n) for n in range(2, max_rank + 1)]
    out += [("C", n) for n in range(2, max_rank + 1)]
    out += [("D", n) for n in range(4, max_rank + 1)]
    if exceptional:
        for label, rank in (("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)):
            if rank <= max_rank:
                out.append((label, rank))
    return out


def extreme_parts(allowed, target, pick):
    """Best (per `pick`) number of parts writing target as a sum over `allowed`.

    Pure multiset-sum search over coordinate vectors; no root-string
    shortcuts, so it is an independent oracle for the l/k dynamic
    programs.  Returns None when no decomposition exists.
    """
    allowed = tuple(sorted(set(allowed)))
    allowed_set = set(allowed)

    @lru_cache(maxsize=None)
    def rec(t):
        best = 1 if t in allowed_set else None
        for a in allowed:
            rest = tuple(x - y for x, y in zip(t, a))
            if any(r < 0 for r in rest) or not any(rest):
                continue
            sub = rec(rest)
            if sub is not None:
                cand = 1 + sub
                best = cand if best is None else pick(best, cand)
        return best

    return rec(tuple(target))


def brute_l(ideal, gamma):
    """Max parts of gamma as a sum of ideal members."""
    return extreme_parts([r.coords for r in ideal.members()], gamma.coords, max)


def brute_k(ideal, gamma):
    """Min parts of gamma as a sum of non-members."""
    rs = ideal.rs
    outside = [r.coords for r in rs.positive_roots if r not in ideal]
    return extreme_parts(outside, gamma.coords, min)


def two_table_is_minimax(ideal):
    """Minimax by the full l- and k-tables compared on every member: the
    oracle for the fused, early-exit `is_minimax`."""
    if not I.is_strictly_positive(ideal):
        return False
    lt, kt = I._l_table(ideal), I._k_table(ideal)
    return all(kt[m] - 1 == lt[m] for m in I._iter_bits(ideal.mask))


def one_pass_minimax_failure(decs, k, todo):
    """`ideals._first_minimax_failure` as one full pass over every split of
    every member: the oracle for its two early-exit passes.  The same
    contract: the lowest member of todo where k - 1 != l, or -1, with k
    filled in on the members passed; k(m) is the least k[a] + k[b], and
    l(m) = top - 2, where top is the largest k[a] + k[b] over member-member
    splits, or 3 if larger."""
    while todo:
        low = todo & -todo
        todo ^= low
        m = low.bit_length() - 1
        kmin, top = len(k), 3
        for a, b in decs[m]:
            ka, kb = k[a], k[b]
            s = ka + kb
            if s < kmin:
                kmin = s
            if s > top and ka > 1 and kb > 1:
                top = s
        if kmin + 1 != top:
            return m
        k[m] = kmin
    return -1


def coroot_points_in_dilated_alcove(rs, t):
    """Count Q^vee points x with (x, alpha) >= 0 for all simple alpha and
    (x, theta) <= t, by direct sweep over coroot coordinates."""
    p = rs.rank
    # (sum n_i alpha_i^vee, alpha_j) = sum_i n_i cartan[j][i]
    # upper bounds from the dilated alcove's vertices t varpi_j^vee / c_j,
    # whose coroot coordinates are t * inv_cartan[:, j] / c_j
    inv = _invert(rs.cartan)
    bounds = []
    for i in range(p):
        m = max(Fraction(t) * inv[i][j] / rs.theta_coords[j] for j in range(p))
        bounds.append(int(m))
    count = 0
    for n in itertools.product(*(range(0, b + 1) for b in bounds)):
        vals = [sum(n[i] * rs.cartan[j][i] for i in range(p)) for j in range(p)]
        if any(v < 0 for v in vals):
            continue
        if sum(c * v for c, v in zip(rs.theta_coords, vals)) <= t:
            count += 1
    return count


def solve_base_system(rs):
    """All y in {-1,0,1}^p with 0 <= sum c_i y_i <= 2; these are D_mm cap P^vee.
    The sweep `lattice_count.count_minimax` replaced, kept as its oracle."""
    c = rs.theta_coords
    out = []
    for y in itertools.product((-1, 0, 1), repeat=rs.rank):
        s = sum(ci * yi for ci, yi in zip(c, y))
        if 0 <= s <= 2:
            out.append(y)
    return out


def congruence_filter(rs, y):
    """Whether the coweight point of an extended solution lies in Q^vee.

    y is an extended solution (y_0, y_1, .., y_p); only y_1..y_p enter,
    since y_0 is the auxiliary variable.
    """
    return all(sum(w * v for w, v in zip(weights, y[1:])) % m == 0
               for weights, m in CONGRUENCES[rs.type_label](rs.rank))


def laurent_coefficient_by_dp(cs, k, forms=()):
    """Coefficient of x^k in prod_i (x^-c_i + 1 + x^c_i), with the terms
    kept only where every form sum w_i y_i vanishes mod its modulus.

    The dict dynamic program `lattice_count.laurent_coefficient` replaced by
    packed integer products, kept as its oracle: one (exponent, residues)
    state per entry, with states that the remaining factors cannot bring
    back to k dropped.
    """
    zero = (0,) * len(forms)
    mods = [m for _, m in forms]
    # reach[i]: the most the factors from i on can still move the exponent,
    # so a state further than that from k is dropped
    reach = list(itertools.accumulate(reversed([abs(c) for c in cs]), initial=0))[::-1]
    poly = {(0, zero): 1}
    for i, c in enumerate(cs):
        weights = [w[i] for w, _ in forms]
        # the residue step of y_i = -1 and +1, once per residue vector
        ress = {res for _, res in poly}
        steps = [(d * c, {r: tuple((x + d * w) % m for x, w, m in zip(r, weights, mods))
                          for r in ress})
                 for d in (-1, 1)]
        lo, hi = k - reach[i + 1], k + reach[i + 1]
        nxt = {}
        for (e, res), v in poly.items():
            if lo <= e <= hi:
                nxt[e, res] = nxt.get((e, res), 0) + v
            for de, moved in steps:
                if lo <= e + de <= hi:
                    key = (e + de, moved[res])
                    nxt[key] = nxt.get(key, 0) + v
        poly = nxt
    return poly.get((k, zero), 0)


def _invert(matrix):
    n = len(matrix)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def full_weyl_group(rs):
    """All finite Weyl elements, by closure over the simple reflections."""
    gens = [A.reflection(rs, rs.alpha(i)) for i in range(rs.rank)]
    seen = {A.identity_finite(rs.rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for s in gens:
                w = matrix_product(s, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


# The matrix path that `affine._grow` replaced for words, products and
# inverses, kept as their differential oracle: finite parts multiply as
# integer matrices and invert by `_invert`, a Fraction Gauss-Jordan.

def matrix_product(a, b):
    """The finite Weyl element a b, by the integer matrix product."""
    n = len(a.matrix)
    return A.FiniteWeylElement(
        tuple(tuple(sum(a.matrix[i][k] * b.matrix[k][j] for k in range(n))
                    for j in range(n)) for i in range(n)))


@lru_cache(maxsize=None)
def _int_inverse(matrix):
    inv = _invert(matrix)
    assert all(x.denominator == 1 for row in inv for x in row)
    return tuple(tuple(int(x) for x in row) for row in inv)


def matrix_inverse(v):
    """v^{-1} for a finite Weyl element v."""
    return A.FiniteWeylElement(_int_inverse(v.matrix))


def affine_product(w1, w2):
    """w1 w2 = (v1 v2) . t_{v2^{-1}(r1) + r2} for w_k = v_k . t_{r_k}."""
    moved = matrix_inverse(w2.v).act(w1.r)
    return A.AffineWeylElement(w1.rs, matrix_product(w1.v, w2.v),
                               tuple(a + b for a, b in zip(moved, w2.r)))


def affine_inverse(w):
    """w^{-1} = v^{-1} . t_{-v(r)} for w = v . t_r."""
    return A.AffineWeylElement(w.rs, matrix_inverse(w.v), tuple(-x for x in w.v.act(w.r)))


def matrix_simple_reflection(rs, i):
    """s_i by its reflection matrix, through the checking constructor;
    s_0 = s_theta . t_{-theta^vee}, with theta^vee = theta in coordinates."""
    if i == 0:
        return A.AffineWeylElement(rs, A.reflection(rs, rs.theta),
                                   tuple(-c for c in rs.theta_coords))
    return A.finite_element(rs, A.reflection(rs, rs.alpha(i - 1)))


def matrix_element_from_word(rs, word):
    """The product of the word's affine simple reflections, left to right."""
    acc = A.element_from_word(rs, [])
    for i in word:
        acc = affine_product(acc, matrix_simple_reflection(rs, i))
    return acc


def peel_reduced_word(w):
    """A reduced word for w, peeling the lowest right descent first.

    While w is not the identity, take the lowest i with w(alpha_i) negative
    and replace w by w s_i; the word is the peeled indices reversed.
    """
    rs = w.rs
    refl = [matrix_simple_reflection(rs, i) for i in range(rs.rank + 1)]
    simples = [A.simple_affine_root(rs, i) for i in range(rs.rank + 1)]
    peeled = []
    while not w.is_identity():
        i = next(i for i, a in enumerate(simples)
                 if not A.act_affine_root(w, a).is_positive())
        w = affine_product(w, refl[i])
        peeled.append(i)
    return peeled[::-1]


def in_weyl_group_by_columns(rs, v):
    """Whether v is in W, peeled on matrix columns and their heights.

    The test `affine._in_weyl_group` replaced by its peel on packed images,
    kept as its differential oracle: while some column v(alpha_i) has
    negative height, replace v by v s_i for the lowest such i, moving the
    columns by v s_i(alpha_j) = v(alpha_j) - (alpha_j, alpha_i^vee) v(alpha_i);
    v is in W iff this ends at 1 within |Delta^+| steps.
    """
    if not (isinstance(v, A.FiniteWeylElement)
            and [[type(x) for x in row] for row in v.matrix] == [[int] * rs.rank] * rs.rank):
        return False
    cols = [list(col) for col in zip(*v.matrix)]  # cols[i] = v(alpha_i)
    heights = [sum(col) for col in cols]
    for _ in range(rs.num_positive + 1):
        for i, hi in enumerate(heights):
            if hi < 0:
                break
        else:
            return A.FiniteWeylElement(cols).is_identity()
        ci = cols[i]
        for j in range(rs.rank):
            a = rs.cartan[j][i]
            if j != i and a:
                cols[j] = [x - a * y for x, y in zip(cols[j], ci)]
                heights[j] -= a * hi
        cols[i] = [-y for y in ci]
        heights[i] = -hi
    return False


def level_scan_inversions(w):
    """N(w) by scanning levels: every positive k*delta + mu and k*delta - mu
    (mu > 0) that `act_affine_root` sends negative, sorted as `inversion_set`.

    w(delta) = delta, so w(k*delta + nu) = k*delta + w(nu); the scan of a
    finite root nu stops at the first k where the image's level is positive,
    after which every image is positive.
    """
    out = []
    for mu in w.rs.positive_roots:
        for nu, k in ((mu.coords, 0), (tuple(-c for c in mu.coords), 1)):
            while True:
                image = A.act_affine_root(w, AffineRoot(k, nu))
                if image.level > 0:
                    break
                if not image.is_positive():
                    out.append(AffineRoot(k, nu))
                k += 1
    out.sort(key=lambda b: (b.level, b.finite))
    return out


def inverse_simple_levels(w):
    """The delta-coefficients of w^{-1}(alpha_i), i = 0..p: the y_i of the
    lattice image for i >= 1, and 1 - sum theta_i y_i for w^{-1}(alpha_0) =
    w^{-1}(delta - theta).  The level rule the element predicates once read:
    a dominant w is minimal when every level is >= -1, maximal when every
    level is <= 1, and minimax when both hold."""
    y = A.y_coordinates(w.rs, A.lattice_image(w))
    return [1 - sum(map(mul, w.rs.theta_coords, y))] + y


def prescribed_inversions(ideal, maximal=False):
    """The inversion set fixed for w_min(I), or for w_max(I) if `maximal`.

    {m*delta - gamma : gamma in I, 1 <= m <= l(gamma, I)}, with k(gamma, I) - 1
    in place of l(gamma, I) for the maximal element.
    """
    rs = ideal.rs
    if maximal:
        top = [k - 1 for k in I._k_table(ideal)]
    else:
        top = I._l_table(ideal)
    return [
        AffineRoot(m, tuple(-c for c in rs.positive_roots[idx].coords))
        for idx in I._iter_bits(ideal.mask)
        for m in range(1, top[idx] + 1)
    ]


def peel_element_from_inversions(rs, affine_roots):
    """Element with the given inversion set, by peeling simple reflections.

    The construction `affine.element_from_inversions` replaced, kept as its
    differential oracle: while the set is nonempty, take its first affine
    simple root alpha_i, apply s_i to the rest of the set, and multiply the
    peeled reflections together.  Costs O(length^2) root actions.
    """
    remaining = {(b.level, b.finite) for b in affine_roots}
    simples = [
        (b.level, b.finite)
        for b in (A.simple_affine_root(rs, i) for i in range(rs.rank + 1))
    ]
    refl = [matrix_simple_reflection(rs, i) for i in range(rs.rank + 1)]
    peeled = []
    while remaining:
        for i, s in enumerate(simples):
            if s in remaining:
                break
        else:
            raise ValueError("the given set is not bi-convex (no simple root in it)")
        peeled.append(i)
        s_i = refl[i]
        translated = any(s_i.r)
        new = set()
        for k, mu in remaining:
            if (k, mu) == simples[i]:
                continue
            t = rs.pair_root_coroot(mu, s_i.r) if translated else 0
            new.add((k - t, s_i.v.act(mu)))
        remaining = new
    acc = A.element_from_word(rs, [])
    for i in peeled:
        acc = affine_product(refl[i], acc)
    return acc


def heisenberg_type_by_product(w):
    """Whether w = v.s_0 for a finite v, by the product route: w.s_0, formed
    through two reduced words, has no translation part and is one shorter."""
    trimmed = w * A.element_from_word(w.rs, [0])
    return not any(trimmed.r) and A.length(trimmed) == A.length(w) - 1


def all_words(rs, max_len):
    """Every word over the affine alphabet up to the given length."""
    alphabet = range(rs.rank + 1)
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def order_masks_by_coordinates(rs):
    """(up, strict_down) masks of the root order.

    The construction `RootSystem` replaced by the cover-built masks, kept as
    their differential oracle: compares every pair of positive roots
    coordinate by coordinate, O(N^2 p).
    """
    n = rs.num_positive
    coords = [r.coords for r in rs.positive_roots]
    up = [0] * n
    strict_down = [0] * n
    for i in range(n):
        for j in range(n):
            if all(b >= a for a, b in zip(coords[i], coords[j])):
                up[i] |= 1 << j
                if i != j:
                    strict_down[j] |= 1 << i
    return up, strict_down


def brute_xi(ideal):
    """The maximal elements of the complement, in root order, by comparing
    the coordinates of every pair of non-members."""
    out = [r.coords for r in ideal.rs.positive_roots if r not in ideal]
    return [c for c in out
            if not any(d != c and all(map(ge, d, c)) for d in out)]


@lru_cache(maxsize=None)
def fraction_gram(rs):
    """The Gram matrix (alpha_i, alpha_j) = a[i][j] |alpha_j|^2 / 2 as Fractions.

    The matrix `RootSystem` replaced by its integer Gram matrix, kept as the
    oracle for `bilinear`, `pairing`, `norm2` and `coweight_basis`.
    """
    p = rs.rank
    return tuple(tuple(Fraction(rs.cartan[i][j]) * rs.lengths[j] / 2 for j in range(p))
                 for i in range(p))


def brute_bilinear(rs, x, y):
    """(x, y) summed term by term over the Fraction Gram matrix."""
    g = fraction_gram(rs)
    return sum((Fraction(xi) * g[i][j] * yj for i, xi in enumerate(x)
                for j, yj in enumerate(y)), Fraction(0))


def brute_pairing(rs, gamma, nu):
    """(gamma, nu^vee) = 2 (gamma, nu) / (nu, nu) straight from the Gram matrix."""
    val = 2 * brute_bilinear(rs, gamma.coords, nu.coords) / brute_bilinear(
        rs, nu.coords, nu.coords)
    assert val.denominator == 1
    return int(val)


def decompositions_by_pairs(rs):
    """The decompositions, by adding every pair of positive roots.

    The dense N x N addition `RootSystem` replaced by its sparse
    decompositions, kept as their oracle; O(N^2).  decompositions[k] lists
    the pairs (i, j), i <= j, with gamma_i + gamma_j = gamma_k in reverse
    lexicographic order, the most balanced first.  A root is the integer
    with coordinate c as its digit of 1000**c (no carry: coordinates are
    at most 6), so a pair sum is one add.
    """
    n = rs.num_positive
    keys = [sum(x * 1000 ** c for c, x in enumerate(r.coords)) for r in rs.positive_roots]
    index = {key: i for i, key in enumerate(keys)}
    decs = [[] for _ in range(n)]
    for i, key in enumerate(keys):
        for j in range(i, n):
            k = index.get(key + keys[j])
            if k is not None:
                decs[k].append((i, j))
    return [tuple(reversed(d)) for d in decs]


def is_positive_root(rs, coords):
    """Whether the coordinate sequence is that of a positive root of rs."""
    return tuple(coords) in rs._index


def is_root(rs, coords):
    """Whether the coordinate sequence is that of a root of rs."""
    c = tuple(coords)
    return c in rs._index or tuple(-x for x in c) in rs._index


def root_order_leq(mu, gamma):
    """mu <= gamma iff gamma - mu has nonnegative coordinates."""
    return all(b - a >= 0 for a, b in zip(mu.coords, gamma.coords))


def norm2(rs, root):
    """(root, root), the squared length of a root."""
    return rs.bilinear(root.coords, root.coords)


def describe(rs):
    """Structured text dump of Delta^+ with indices, heights and lengths."""
    lines = [
        "%s (rank %d): %d positive roots, h=%d, exponents=%s, f=%d"
        % (rs.type_label, rs.rank, rs.num_positive, rs.coxeter_number,
           list(rs.exponents), rs.index_of_connection)
    ]
    for i, r in enumerate(rs.positive_roots):
        tag = "long" if rs.long_mask >> i & 1 else "short"
        lines.append(
            "%3d  [%s]  height=%d  norm2=%s  %s"
            % (i, ",".join(map(str, r.coords)), r.height, norm2(rs, r), tag)
        )
    return "\n".join(lines)


def ballot_count(k):
    """Number of +-1 sequences of length k with all partial sums >= 0."""
    return math.comb(k, k // 2)


def brute_is_abelian(ideal):
    """No two members (repeats allowed) sum to a root, pair by pair."""
    rs = ideal.rs
    members = [r.coords for r in ideal.members()]
    return not any(is_positive_root(rs, tuple(x + y for x, y in zip(a, b)))
                   for a in members for b in members)


def brute_power_mask(ideal, k):
    """Mask of I^k = (I^{k-1} + I) cap Delta, adding members pair by pair."""
    rs = ideal.rs
    base = [r.coords for r in ideal.members()]
    cur = set(base)
    for _ in range(k - 1):
        cur = {tuple(x + y for x, y in zip(a, b)) for a in cur for b in base}
        cur = {c for c in cur if is_positive_root(rs, c)}
    return sum(1 << rs._index[c] for c in cur)


def w_nu_word_by_bfs(rs, nu):
    """A reduced word (affine indices 1..p) of w_nu, from a shortest path
    from theta to nu in the graph on long roots whose edges are the simple
    reflections; any such path composes to the unique shortest element.

    The breadth-first search `heisenberg._w_nu_word` replaced by its ascent,
    kept as its differential oracle.
    """
    start, target = rs.theta_coords, nu.coords
    cartan = rs.cartan
    prev = {start: None}
    queue = deque([start])
    while queue and target not in prev:
        cur = queue.popleft()
        for i in range(rs.rank):
            # s_i(x) = x - (x, alpha_i^vee) alpha_i
            c = sum(x * cartan[k][i] for k, x in enumerate(cur) if x)
            nxt = cur[:i] + (cur[i] - c,) + cur[i + 1:]
            if nxt not in prev:
                prev[nxt] = (cur, i)
                queue.append(nxt)
    word = []  # the last reflection applied to theta comes first
    cur = target
    while prev[cur] is not None:
        cur, i = prev[cur]
        word.append(i + 1)
    return word


def w_nu_word_by_ascent(rs, nu):
    """A reduced word (affine indices 1..p) of w_nu, by the ascent from nu
    to theta that recomputes every pairing (nu, alpha_i^vee) at each step.

    The ascent that `heisenberg._w_nu_word` replaced by carried pairings,
    kept as its differential oracle.
    """
    cartan = rs.cartan
    cur = list(nu.coords)
    word = []
    while tuple(cur) != rs.theta_coords:
        for i in range(rs.rank):
            # s_i(x) = x - (x, alpha_i^vee) alpha_i
            c = sum(x * cartan[k][i] for k, x in enumerate(cur) if x)
            if c < 0:
                break
        word.append(i + 1)
        cur[i] -= c
    return word


def most_negative_first_sort(columns, z):
    """The sorted copy of z and the number of steps, reflecting at the most
    negative entry first (the lowest index among equals) by the Cartan
    columns that `affine._peel` reads.

    The rule `affine._d_min_fields` sorted its points by before it called
    `_peel`, kept as its differential oracle; z must be regular (no entry
    turns zero), as a point of D_min is.
    """
    z = list(z)
    steps = 0
    while (m := min(z)) < 0:
        i = z.index(m)
        for j, a in columns[i]:
            z[j] -= a * m
        z[i] = -m
        steps += 1
    return z, steps


def heisenberg_mask_by_pairing(rs):
    """Bitmask of the roots gamma with (gamma, theta^vee) > 0, by pairing every
    root with theta: (gamma, theta) = sum_i gamma_i (alpha_i, theta), with the
    p Fraction products (alpha_i, theta) taken once, so rank 30 stays cheap."""
    g = fraction_gram(rs)
    row = [sum(g[i][j] * t for j, t in enumerate(rs.theta_coords)) for i in range(rs.rank)]
    return sum(1 << i for i, r in enumerate(rs.positive_roots)
               if sum(c * x for c, x in zip(r.coords, row)) > 0)


# The pair computations that `classical_types._pair_table` and `_fold_table`
# replaced, kept as their differential oracles: type A pairs by a support
# scan, type C pairs by searching every pair of C_n for the root's
# coordinates, and the old bodies of `symmetrize` and `sp_restriction`.

def sp_pair_coords(n, i, j):
    """Root coordinates of the C_n pair (i, j), i < j, i + j <= 2n + 1."""
    v = [0] * n
    if j <= n + 1:
        for t in range(i, j):
            v[t - 1] += 1
    else:
        for t in range(i, 2 * n - j + 1):
            v[t - 1] += 1
        for t in range(2 * n - j + 1, n):
            v[t - 1] += 2
        v[n - 1] += 1
    return tuple(v)


def sp_root_to_pair_by_search(rs, root):
    """The C_n pair of a positive root, by trying every pair."""
    n = rs.rank
    rs.index_of(root)
    for i in range(1, 2 * n):
        for j in range(i + 1, 2 * n + 2 - i):
            if sp_pair_coords(n, i, j) == root.coords:
                return (i, j)
    raise ValueError("no pair found for %r" % (root,))


def a_pair_by_support(root):
    """The A_n pair (a, b) of a positive root with support [a, b - 1]."""
    support = [i for i, c in enumerate(root.coords) if c]
    return support[0] + 1, support[-1] + 2


def symmetrize_by_search(ideal):
    """The A_{2n-1} ideal of the pairs whose `fold_pair` lies in the C_n
    ideal, with C_n pairs found by `sp_root_to_pair_by_search`."""
    rs = ideal.rs
    n = rs.rank
    rs_a = build("A", 2 * n - 1)
    pair_bit = {}
    for idx, r in enumerate(rs.positive_roots):
        pair_bit[sp_root_to_pair_by_search(rs, r)] = idx
    mask = 0
    for a_idx, a_root in enumerate(rs_a.positive_roots):
        if ideal.mask >> pair_bit[C.fold_pair(n, *a_pair_by_support(a_root))] & 1:
            mask |= 1 << a_idx
    return I.Ideal(rs_a, mask)


def sp_restriction_by_support(bar_ideal):
    """The C_n ideal of the pairs (i, j), i + j <= 2n + 1, of an A_{2n-1} ideal."""
    rs_a = bar_ideal.rs
    n = (rs_a.rank + 1) // 2
    rs_c = build("C", n)
    mask = 0
    for a_idx, a_root in enumerate(rs_a.positive_roots):
        if not bar_ideal.mask >> a_idx & 1:
            continue
        i, j = a_pair_by_support(a_root)
        if i + j <= 2 * n + 1:
            mask |= 1 << rs_c.index_of(Root(sp_pair_coords(n, i, j)))
    return I.Ideal(rs_c, mask)


# The tuple-based build that `RootSystem` replaced by packed root keys, kept
# as its differential oracle: every root-string step, norm term and cover
# lookup builds or scans a coordinate tuple, O(N p^2).

def positive_root_coords_by_tuples(cartan, rank):
    """Generate Delta^+ from the Cartan matrix by root-string closure."""

    def pair_simple(coords, j):
        # (x, alpha_j^vee)
        return sum(c * cartan[i][j] for i, c in enumerate(coords) if c)

    simples = [tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)]
    known = set(simples)
    out = list(simples)
    layer = list(simples)
    while layer:
        nxt = []
        for coords in layer:
            for i in range(rank):
                if coords == simples[i]:
                    continue
                # alpha_i-string through coords: p = steps down that stay roots
                p = 0
                down = tuple(c - (k == i) for k, c in enumerate(coords))
                while down in known:
                    p += 1
                    down = tuple(c - (k == i) for k, c in enumerate(down))
                if p - pair_simple(coords, i) >= 1:
                    up = tuple(c + (k == i) for k, c in enumerate(coords))
                    if up not in known:
                        known.add(up)
                        nxt.append(up)
                        out.append(up)
        layer = nxt
    return out


def fraction_det(matrix):
    """Determinant by Fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def cartan_data_by_cases(type_label, rank):
    """(cartan, lengths, _gram_num, _gram_den, _coroot_moduli) of a valid
    type and rank, written out case by case: the Cartan matrix a[i][j] =
    (alpha_i, alpha_j^vee) patched per type and the squared lengths, then the
    Gram matrix (alpha_i, alpha_j) = a[i][j] |alpha_j|^2 / 2 derived from them."""
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    lengths = [Fraction(2)] * n

    def bond(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if type_label == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif type_label == "B":
        for i in range(n - 1):
            bond(i, i + 1)
        a[n - 2][n - 1] = -2
        lengths[n - 1] = Fraction(1)
    elif type_label == "C":
        for i in range(n - 1):
            bond(i, i + 1)
        a[n - 1][n - 2] = -2
        lengths = [Fraction(1)] * (n - 1) + [Fraction(2)]
    elif type_label == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif type_label in ("E6", "E7", "E8"):
        edges = {
            "E6": [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
            "E7": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6)],
            "E8": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)],
        }[type_label]
        for i, j in edges:
            bond(i, j)
    elif type_label == "F4":
        for i in range(3):
            bond(i, i + 1)
        a[2][1] = -2
        lengths = [Fraction(1), Fraction(1), Fraction(2), Fraction(2)]
    elif type_label == "G2":
        a = [[2, -1], [-3, 2]]
        lengths = [Fraction(2, 3), Fraction(2)]
    cartan, lengths = tuple(tuple(row) for row in a), tuple(lengths)

    # the integer Gram matrix den * (alpha_i, alpha_j), with
    # (alpha_i, alpha_j) = a[i][j] |alpha_j|^2 / 2 = a[i][j] n_j / (2 d_j)
    halves = [(x.numerator, 2 * x.denominator) for x in lengths]
    den = math.lcm(*(d // math.gcd(a * n, d)
                     for row in cartan for a, (n, d) in zip(row, halves)))
    num = tuple(tuple(a * n * den // d for a, (n, d) in zip(row, halves)) for row in cartan)
    assert num == tuple(zip(*num)), "Cartan data is not symmetrisable"
    # x_j alpha_j = x_j |alpha_j|^2 / 2 alpha_j^vee is in the coroot lattice
    # iff x_j is a multiple of d_j / n_j, an integer for every simple type
    assert all(d % n == 0 for n, d in halves)
    return cartan, lengths, num, den, tuple(d // n for n, d in halves)


# the tables `tuple_root_system` rebuilds: every table `RootSystem` computes
# at construction, and `_index`, which `ideals` and the tests read
ROOT_SYSTEM_TABLES = (
    "cartan", "lengths", "_gram_den", "_gram_num", "positive_roots", "num_positive",
    "_index", "simple_indices", "simple_mask", "theta_index", "theta", "theta_coords",
    "c0", "coxeter_number", "exponents", "index_of_connection", "long_mask",
    "up_masks", "strict_down_masks",
)


@lru_cache(maxsize=None)
def tuple_root_system(label, rank):
    """The `ROOT_SYSTEM_TABLES` of `build(label, rank)`, computed on coordinate
    tuples from the Cartan matrix and lengths of `cartan_data_by_cases`: the roots by `positive_root_coords_by_tuples`, the Gram matrix by
    Fraction products, the norms term by term, the index of connection by
    `fraction_det` and the order masks from covers found by tuple slices."""
    cartan, lengths = cartan_data_by_cases(label, rank)[:2]
    gram = [[Fraction(cartan[i][j]) * lengths[j] / 2 for j in range(rank)]
            for i in range(rank)]
    den = math.lcm(*(x.denominator for row in gram for x in row))
    coords = sorted(positive_root_coords_by_tuples(cartan, rank), key=lambda c: (sum(c), c))
    n = len(coords)
    index = {c: i for i, c in enumerate(coords)}
    simple_indices = tuple(index[tuple(int(k == i) for k in range(rank))]
                           for i in range(rank))
    heights = [sum(c) for c in coords]
    theta_index = heights.index(max(heights))
    by_height = Counter(heights)
    layer_sizes = [by_height[m] for m in range(1, max(heights) + 1)]
    num = tuple(tuple(int(x * den) for x in row) for row in gram)
    norms = [sum(x * g * y for x, row in zip(c, num) if x for g, y in zip(row, c))
             for c in coords]
    up, down = [1 << i for i in range(n)], [1 << i for i in range(n)]
    covers = [[index[u] for u in (c[:s] + (c[s] + 1,) + c[s + 1:] for s in range(rank))
               if u in index] for c in coords]
    for i in reversed(range(n)):
        for k in covers[i]:
            up[i] |= up[k]
    for i in range(n):
        for k in covers[i]:
            down[k] |= down[i]
    return SimpleNamespace(
        cartan=cartan, lengths=lengths, _gram_den=den, _gram_num=num,
        positive_roots=tuple(Root(c) for c in coords), num_positive=n, _index=index,
        simple_indices=simple_indices, simple_mask=sum(1 << i for i in simple_indices),
        theta_index=theta_index, theta=Root(coords[theta_index]),
        theta_coords=coords[theta_index], c0=1, coxeter_number=max(heights) + 1,
        exponents=tuple(sorted(sum(1 for s in layer_sizes if s >= j)
                               for j in range(1, rank + 1))),
        index_of_connection=int(fraction_det(cartan)),
        long_mask=sum(1 << i for i, q in enumerate(norms) if q == 2 * den),
        up_masks=tuple(up),
        strict_down_masks=tuple(m ^ 1 << i for i, m in enumerate(down)),
    )


# The per-root routes that `ideals.shi_region_contains`,
# `lattice_count.d_min_contains` and `d_max_contains` replaced by one
# integer pairing of the point with the simple roots, kept as their
# differential oracles: one validated `rs.bilinear` per constraint.

def shi_region_contains_by_bilinear(ideal, x):
    rs = ideal.rs
    for root, relation, bound in I.shi_inequalities(ideal):
        val = rs.bilinear(x, root.coords)
        if relation == ">" and not val > bound:
            return False
        if relation == "<" and not val < bound:
            return False
    return True


def d_min_contains_by_bilinear(rs, x):
    if any(rs.bilinear(x, a.coords) < -1 for a in rs.simple_roots()):
        return False
    return rs.bilinear(x, rs.theta_coords) <= 2


def d_max_contains_by_bilinear(rs, x):
    if any(rs.bilinear(x, a.coords) > 1 for a in rs.simple_roots()):
        return False
    return rs.bilinear(x, rs.theta_coords) >= 0


def affine_simple_data_by_pairing(rs):
    """`affine._affine_simple_data` as it was built before it read the affine
    Cartan matrix off `rs.cartan`, kept as its oracle: every pairing taken by
    `rs.pairing` between fresh `Root`s of the affine simple roots' finite parts."""
    p = rs.rank
    weights = tuple(1 << (A._SHIFT * (p - k)) for k in range(p + 1))
    roots = [A.simple_affine_root(rs, i) for i in range(p + 1)]
    finite = [Root(b.finite) for b in roots]
    simples, columns = [], []
    for i, f in enumerate(finite):
        pairs = ((m, rs.pairing(a, f)) for m, a in enumerate(rs.simple_roots()))
        cartan = ((j, rs.pairing(g, f)) for j, g in enumerate(finite) if j != i)
        packed = roots[i].level * weights[0] + sum(
            c * wt for c, wt in zip(f.coords, weights[1:]))
        simples.append((packed, tuple((m, c) for m, c in pairs if c)))
        columns.append(tuple((j, a) for j, a in cartan if a))
    restricted = tuple(tuple((j - 1, a) for j, a in col if j) for col in columns[1:])
    return weights, tuple(simples), (tuple(columns), restricted)
