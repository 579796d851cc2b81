"""The three space families: weighted projective spaces, weighted complete
intersections, and Brieskorn orbifolds.

A Brieskorn orbifold with exponents (a_0, ..., a_n) is treated as a degree-l
hypersurface in the weighted projective space with weights l/a_j, where
l = lcm of the exponents. The companion integer l2 takes, for each prime
p | l, the second-largest p-adic valuation among the exponents (counted with
multiplicity, so a tied maximum keeps the maximum). make_brieskorn_exponents
checks an orbifold where it enters (a record that it built passes again at
once, a hand-built one is checked on every call), and its l = lcm(a) makes
the weights a valid vector of gcd 1, so brieskorn_to_wci does not check them.
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

    Construct through make_wci_space or brieskorn_to_wci.
    """

    __slots__ = ("weights", "degrees")

    @property
    def r(self) -> int:
        return len(self.degrees)


class BrieskornExponents(Record):
    """Exponent vector of a Brieskorn form, with derived l = lcm(a_j) and l2.

    Construct through make_brieskorn_exponents.
    """

    __slots__ = ("a", "l", "l2")


Space = WCISpace | WeightVector | Iterable[int]  # a WCI, or a WPS by its weights


def make_wci_space(weights: Iterable[int], degrees: Iterable[int]) -> WCISpace:
    wv = make_weight_vector(weights)
    degs = check_ints("degrees", degrees, 1)
    if not degs:
        raise DomainError("a complete intersection needs at least one degree")
    r, n = len(degs), wv.n
    if r > n - 2:
        raise DomainError(
            f"codimension r={r} exceeds n-2={n - 2}; complex dimension would drop below 2"
        )
    return WCISpace(wv, degs)


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


_built = object()  # the last record built from a list below; it only ever holds a checked one


def make_brieskorn_exponents(a: BrieskornExponents | Iterable[int]) -> BrieskornExponents:
    """Validate a Brieskorn exponent vector (at least 4 entries, all >= 2).
    The record last built here from a list passes at once, known by its
    identity, which no record built by hand carries. Any other
    BrieskornExponents is checked on every call: its a by the same rules,
    and its l must be the integer lcm(a), else AssertionError (l2 enters no
    index and is not checked); it comes back holding its checked tuple."""
    global _built
    if a is _built:
        return a
    record = a if isinstance(a, BrieskornExponents) else None
    a = as_tuple("Brieskorn exponents", a if record is None else record.a)
    if len(a) < 4:
        raise DomainError(f"a Brieskorn exponent vector needs at least 4 entries, got {len(a)}")
    check_ints("Brieskorn exponents", a, 2)
    if record is None:
        _built = BrieskornExponents(a, *_lcm_l2(a))
        return _built
    lcm = math.lcm(*a)
    l = check_int("Brieskorn l", record.l)
    if l <= 0:
        raise DomainError(f"Brieskorn l must be positive, got {l}")
    if l != lcm:
        if l % lcm:
            raise AssertionError(f"non-integer index: l={l} is not a multiple of every exponent of {a}")
        raise AssertionError(
            f"converted Brieskorn weights {[l // x for x in a]} invalid: they share the factor {l // lcm}, "
            f"so l={l} is not the lcm of {a}"
        )
    return record if a is record.a else BrieskornExponents(a, l, record.l2)


def brieskorn_to_wci(b: BrieskornExponents | Iterable[int]) -> WCISpace:
    """View the Brieskorn orbifold (see make_brieskorn_exponents) as the
    degree-l hypersurface with weights l/a_j, unchecked: with l = lcm(a) and
    n >= 3 each weight is >= 1, codimension 1 is at most n - 2, and the gcd
    is 1, as for each prime p | l some exponent attains the maximal
    valuation, making its weight p-free."""
    b = make_brieskorn_exponents(b)
    return WCISpace(WeightVector(tuple(map(b.l.__floordiv__, b.a))), (b.l,))


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
