"""The Heisenberg ideal and the dominant elements attached to long roots.

The Heisenberg ideal h consists of the positive roots not orthogonal to
the highest root theta; it satisfies h^2 = {theta} (for rank >= 2,
where theta is not simple) and h^3 = {}.  The
dominant elements of the form v.s_0 are classified by a long positive
root nu: v is either w_nu (the shortest element taking theta to nu) or
s_nu.w_nu, and the first-layer ideals of w_nu.s_0 and s_nu.w_nu.s_0 are
exactly the nontrivial ideals contained in h.  A reduced word of w_nu is
read off the ascent from nu up to theta by simple reflections, which is
`affine._peel`'s sort of nu's pairings into the dominant chamber.
Closed-form descriptions of those ideals are provided and tested
against the first layers.
"""

from collections import namedtuple
from operator import mul, sub

from .rootsys import Root, RootSystem
from .ideals import Ideal, _iter_bits, heisenberg_root_mask
from .affine import (
    AffineWeylElement,
    FiniteWeylElement,
    _affine_simple_data,
    _peel,
    _shifts,
    element_from_word,
    reflection,
)

__all__ = [
    "HeisenbergElementDescriptor", "heisenberg_ideal", "w_nu", "s_nu",
    "n_s_nu_zero", "heisenberg_element", "heisenberg_ideal_formula",
    "is_heisenberg_type", "descriptor_to_record", "descriptor_from_record",
]


def heisenberg_ideal(rs: RootSystem) -> Ideal:
    """{gamma in Delta^+ : (gamma, theta) > 0}."""
    return Ideal(rs, heisenberg_root_mask(rs))


class HeisenbergElementDescriptor(namedtuple("HeisenbergElementDescriptor", "nu sign")):
    """A long positive root nu plus a sign.

    sign +1 describes w_nu.s_0 (rootlet +nu); sign -1 describes
    s_nu.w_nu.s_0 (rootlet -nu).
    """

    __slots__ = ()


def _require_long_positive(rs: RootSystem, nu: Root) -> int:
    idx = rs.index_of(nu)  # raises if not a positive root
    if not rs.long_mask >> idx & 1:
        raise ValueError("%r is not a long root" % (nu,))
    return idx


def _require_sign(sign) -> None:
    # a bool or a float equal to 1 is not a sign
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError("sign must be 1 or -1, not %r" % (sign,))


def _require_descriptor(rs: RootSystem, d) -> int:
    """The index of d's root nu; ValueError unless d is a descriptor with a
    long positive root and a sign."""
    if not isinstance(d, HeisenbergElementDescriptor):
        raise ValueError("a Heisenberg-type element needs a HeisenbergElementDescriptor, "
                         "not %r" % (d,))
    idx = _require_long_positive(rs, d.nu)
    _require_sign(d.sign)
    return idx


def _w_nu_word(rs: RootSystem, nu: Root):
    """A reduced word (affine indices 1..p) of w_nu, by ascent: while some
    pairing (nu, alpha_i^vee) is negative, take the lowest such i and replace
    nu by s_i nu, which is higher; the ascent ends at theta, the one dominant
    long root.  Each step removes exactly one positive beta with
    (nu, beta^vee) < 0, so the word s_{i_1} ... s_{i_k}, which takes theta
    to nu, is reduced, and its element is the unique shortest one (the
    minimal coset representative of the stabiliser of theta).  `_peel`
    ascends on the one Gram product D (nu, alpha_j) of `_scaled_pairings`:
    they have the signs of the (nu, alpha_j^vee) and move by the same step."""
    _require_long_positive(rs, nu)
    pairings = rs._scaled_pairings(nu.coords, "a Weyl word")[1]
    return [i + 1 for i in _peel(_affine_simple_data(rs)[2][1], pairings)]


def w_nu(rs: RootSystem, nu: Root) -> FiniteWeylElement:
    """The shortest Weyl element taking theta to nu (nu long positive)."""
    return element_from_word(rs, _w_nu_word(rs, nu)).v


def s_nu(rs: RootSystem, nu: Root) -> FiniteWeylElement:
    """The reflection x -> x - (x, nu^vee) nu, for nu in Delta^+."""
    rs.index_of(nu)
    return reflection(rs, nu)


def n_s_nu_zero(rs: RootSystem, nu: Root):
    """N(s_nu) \\ {nu}: the gamma with (gamma, nu^vee) = 1 and gamma < nu,
    tried over nu's strict down mask, in root-index order.  With nu's Gram
    product g_j = D (nu, alpha_j) taken once, (gamma, nu^vee) = 1 iff 2 gamma.g = nu.g."""
    roots = rs.positive_roots
    idx = rs.index_of(nu)
    g = rs._scaled_pairings(nu.coords, "a pairing")[1]
    norm = sum(map(mul, nu.coords, g))
    return [roots[s] for s in _iter_bits(rs.strict_down_masks[idx])
            if 2 * sum(map(mul, roots[s].coords, g)) == norm]


def heisenberg_element(rs: RootSystem, d: HeisenbergElementDescriptor) -> AffineWeylElement:
    """w_nu.s_0 for sign +1, s_nu.w_nu.s_0 for sign -1."""
    _require_descriptor(rs, d)
    if d.sign == 1:
        return element_from_word(rs, _w_nu_word(rs, d.nu) + [0])
    # s_nu w_nu = w_nu s_theta, and s_0 = s_theta t_{-theta^vee} with theta^vee = theta
    return AffineWeylElement(rs, w_nu(rs, d.nu), tuple(-c for c in rs.theta_coords))


def heisenberg_ideal_formula(rs: RootSystem, d: HeisenbergElementDescriptor) -> Ideal:
    """Closed-form first-layer ideal of the described element.

    sign +1: {theta} u (theta - N(w_nu));
    sign -1: additionally theta - w_nu^{-1}(N(s_nu) \\ {nu}), for nu not
    simple (for simple nu the sign +1 formula already applies).
    """
    idx = _require_descriptor(rs, d)
    if d.sign == -1 and idx in rs.simple_indices:
        raise ValueError("the sign -1 formula needs a non-simple root")
    word = _w_nu_word(rs, d.nu)
    theta = rs.theta_coords
    index = rs._index
    mask = 1 << rs.theta_index
    # w_nu is finite: N(w_nu) holds the level-0 roots mu with shift s(mu) > 0
    for mu, s in zip(rs.positive_roots, _shifts(element_from_word(rs, word))):
        if s > 0:
            mask |= 1 << index[tuple(map(sub, theta, mu.coords))]
    if d.sign == -1:
        wv_inv = element_from_word(rs, word[::-1]).v
        for gamma in n_s_nu_zero(rs, d.nu):
            mask |= 1 << index[tuple(map(sub, theta, wv_inv.act(gamma.coords)))]
    return Ideal(rs, mask)


def is_heisenberg_type(w: AffineWeylElement) -> bool:
    """Whether w = v.s_0 for some finite v.

    v.s_0 = (v.s_theta).t_{-theta^vee} and theta^vee = theta, so this holds
    exactly when the translation part of w is -theta.  Such a product is
    always reduced: v(alpha_0) = delta - v(theta) has level 1, so it is
    positive and l(v.s_0) = l(v) + 1.
    """
    return w.r == tuple(-c for c in w.rs.theta_coords)


def descriptor_to_record(d: HeisenbergElementDescriptor) -> dict:
    return {"nu": list(d.nu.coords), "sign": d.sign}


def descriptor_from_record(record: dict) -> HeisenbergElementDescriptor:
    """The descriptor `descriptor_to_record` wrote; ValueError if malformed."""
    if not isinstance(record, dict) or not {"nu", "sign"} <= record.keys():
        raise ValueError("a descriptor record is a dict with keys nu and sign, not %r"
                         % (record,))
    nu, sign = record["nu"], record["sign"]
    if not (isinstance(nu, list) and all(type(c) is int for c in nu)):
        raise ValueError("a descriptor record's nu is a list of integers, not %r" % (nu,))
    _require_sign(sign)
    return HeisenbergElementDescriptor(Root(tuple(nu)), sign)
