"""The three space families: weighted projective spaces, weighted complete
intersections, and Brieskorn orbifolds.

A Brieskorn orbifold with exponents (a_0, ..., a_n) is treated as a degree-l
hypersurface in the weighted projective space with weights l/a_j, where
l = lcm of the exponents. The companion integer l2 takes, for each prime
p | l, the second-largest p-adic valuation among the exponents (counted with
multiplicity, so a tied maximum keeps the maximum). Each record is checked
where it is built, by its constructor; a BrieskornExponents has l = lcm(a),
so its weights l/a_j are a valid vector of gcd 1 that brieskorn_to_wci does
not check again.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import DomainError, as_tuple, check_int, check_ints
# Unused here; perfbench's trace points still name czorb.spaces.factorize and ord_p.
from .exact_arith import factorize, ord_p  # noqa: F401
from .record import Record
from .weights import WeightVector, make_weight_vector


class WCISpace(Record):
    """Quasi-smooth weighted complete intersection of multidegree
    (m_1, ..., m_r); quasi-smoothness is asserted by the caller, not checked.
    The constructor makes the weights a WeightVector and the degrees a tuple
    of r >= 1 positive integers, r <= n - 2, else DomainError."""

    __slots__ = ("weights", "degrees")

    @staticmethod
    def _check(weights, degrees):
        wv = make_weight_vector(weights)
        degs = check_ints("degrees", degrees, 1)
        if not degs:
            raise DomainError("a complete intersection needs at least one degree")
        if len(degs) > wv.n - 2:
            raise DomainError(f"codimension r={len(degs)} exceeds n-2={wv.n - 2}; complex dimension would drop below 2")
        return wv, degs

    @property
    def r(self) -> int:
        return len(self.degrees)


class BrieskornExponents(Record):
    """Exponent vector of a Brieskorn form, with derived l = lcm(a_j) and l2.
    The constructor makes a a tuple of at least 4 integers >= 2 and requires
    l = lcm(a); l2 enters no index and is not checked."""

    __slots__ = ("a", "l", "l2")

    @staticmethod
    def _check(a, l, l2):
        a = _exponents(a)
        if check_int("Brieskorn l", l) <= 0:
            raise DomainError(f"Brieskorn l must be positive, got {l}")
        if l != (lcm := math.lcm(*a)):
            if l % lcm:
                raise AssertionError(f"non-integer index: l={l} is not a multiple of every exponent of {a}")
            raise AssertionError(f"converted Brieskorn weights {[l // x for x in a]} invalid: they share the factor "
                                 f"{l // lcm}, so l={l} is not the lcm of {a}")
        return a, l, l2


Space = WCISpace | WeightVector | Iterable[int]  # a WCI, or a WPS by its weights


def make_wci_space(weights: WeightVector | Iterable[int], degrees: Iterable[int]) -> WCISpace:
    """WCISpace(weights, degrees), checked by its constructor."""
    return WCISpace(weights, degrees)


def compute_l2(a: Iterable[int]) -> int:
    """For each prime p dividing lcm(a), take the second-largest p-adic
    valuation among the entries; multiply the resulting prime powers.

    Ties at the maximum count twice, so a constant vector gives l2 = lcm(a).
    One scan with no factoring: l is the lcm of the entries seen so far, and
    l2 takes the lcm of every gcd(x, l). At p, gcd(a_j, l) has valuation
    min(v_j, max_{i<j} v_i), the smaller of two valuations at distinct
    positions, so no term exceeds the second-largest valuation; the later of
    the two positions holding the largest two attains it.
    """
    a = check_ints("compute_l2 entries", a, 2)
    if not a:
        raise DomainError("compute_l2 requires a nonempty list")
    return _lcm_l2(a)[1]


def _lcm_l2(a: tuple[int, ...]) -> tuple[int, int]:
    """(lcm(a), l2) of checked entries, in compute_l2's one scan."""
    l = l2 = 1
    for x in a:
        g = math.gcd(x, l % x)  # gcd(x, l), with l brought below x first
        l, l2 = l // g * x, math.lcm(l2, g)
    return l, l2


def _exponents(a) -> tuple[int, ...]:
    """Brieskorn exponents as a tuple of at least 4 integers >= 2, else DomainError."""
    a = as_tuple("Brieskorn exponents", a)
    if len(a) < 4:
        raise DomainError(f"a Brieskorn exponent vector needs at least 4 entries, got {len(a)}")
    return check_ints("Brieskorn exponents", a, 2)


def make_brieskorn_exponents(a: BrieskornExponents | Iterable[int]) -> BrieskornExponents:
    """A BrieskornExponents as is, or the record of the exponents `a`, its
    l = lcm(a) and l2 taken in one scan."""
    if isinstance(a, BrieskornExponents):
        return a
    a = _exponents(a)
    return BrieskornExponents._unchecked(a, *_lcm_l2(a))


def brieskorn_to_wci(b: BrieskornExponents | Iterable[int]) -> WCISpace:
    """View the Brieskorn orbifold (see make_brieskorn_exponents) as the
    degree-l hypersurface with weights l/a_j, unchecked: with l = lcm(a) and
    n >= 3 each weight is >= 1, codimension 1 is at most n - 2, and the gcd
    is 1, as for each prime p | l some exponent attains the maximal
    valuation, making its weight p-free."""
    b = make_brieskorn_exponents(b)
    return WCISpace._unchecked(WeightVector._unchecked(tuple(map(b.l.__floordiv__, b.a))), (b.l,))


def b_constant(space: Space | BrieskornExponents) -> int:
    """The proportionality constant b of c1^orb = b*[omega]: |w| for a
    weighted projective space, given by its WeightVector or the vector's
    entries, |w| - sum(m_j) for a complete intersection, and so sum(l/a_j) - l
    for a Brieskorn orbifold, through brieskorn_to_wci. It may be
    non-positive and is returned as-is."""
    if isinstance(space, BrieskornExponents):
        space = brieskorn_to_wci(space)
    if isinstance(space, WCISpace):
        return sum(space.weights.w) - sum(space.degrees)
    return sum(make_weight_vector(space).w)


class TheoremCheck(Record):
    """Hypothesis report for the fiberwise index theorem: the proportionality
    constant b, simple connectivity, and the total-space manifold condition
    (recorded, not decidable from weights and degrees alone)."""

    __slots__ = ("b", "simply_connected", "simply_connected_reason", "manifold_condition")
    _defaults = {"manifold_condition": "assumed, not checked"}


def check_theorem_hypotheses(space: Space) -> TheoremCheck:
    if isinstance(space, WCISpace):
        reason = (
            f"codimension r={space.r} <= n-2={space.weights.n - 2} keeps complex dimension >= 2, "
            "so the link is simply connected"
        )
    else:
        space = make_weight_vector(space)
        reason = "weighted projective spaces are simply connected as orbifolds"
    return TheoremCheck(b=b_constant(space), simply_connected=True, simply_connected_reason=reason)
