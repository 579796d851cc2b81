"""The three space families: weighted projective spaces, weighted complete
intersections, and Brieskorn orbifolds.

A Brieskorn orbifold with exponents (a_0, ..., a_n) is treated as a degree-l
hypersurface in the weighted projective space with weights l/a_j, where
l = lcm of the exponents. The companion integer l2 takes, for each prime
p | l, the second-largest p-adic valuation among the exponents (counted with
multiplicity, so a tied maximum keeps the maximum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import DomainError
# Unused here; perfbench's trace points still name czorb.spaces.factorize and ord_p.
from .exact_arith import factorize, ord_p  # noqa: F401
from .weights import WeightVector, make_weight_vector


@dataclass(frozen=True)
class WPSpace:
    """Weighted projective space with the locally-free circle quotient
    orbifold structure."""

    weights: WeightVector


@dataclass(frozen=True)
class WCISpace:
    """Quasi-smooth weighted complete intersection of multidegree
    (m_1, ..., m_r); quasi-smoothness is asserted by the caller, not checked.

    Construct through make_wci_space.
    """

    weights: WeightVector
    degrees: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.degrees)


@dataclass(frozen=True)
class BrieskornExponents:
    """Exponent vector of a Brieskorn form, with derived l = lcm(a_j) and l2.

    Construct through make_brieskorn_exponents.
    """

    a: tuple[int, ...]
    l: int
    l2: int


def make_wci_space(weights: Iterable[int], degrees: Iterable[int]) -> WCISpace:
    wv = weights if isinstance(weights, WeightVector) else make_weight_vector(weights)
    degs = tuple(degrees)
    if not degs:
        raise DomainError("a complete intersection needs at least one degree")
    for m in degs:
        if m < 1:
            raise DomainError(f"degrees must be positive, got {m}")
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
    a = tuple(a)
    if not a:
        raise DomainError("compute_l2 requires a nonempty list")
    for x in a:
        if x < 2:
            raise DomainError(f"compute_l2 requires entries >= 2, got {x}")
    l = l2 = 1
    for x in a:
        l, l2 = math.lcm(l, x), math.lcm(l2, math.gcd(x, l))
    return l2


def make_brieskorn_exponents(a: Iterable[int]) -> BrieskornExponents:
    """Validate a Brieskorn exponent vector (at least 4 entries, all >= 2)."""
    a = tuple(a)
    if len(a) < 4:
        raise DomainError(f"a Brieskorn exponent vector needs at least 4 entries, got {len(a)}")
    for x in a:
        if x < 2:
            raise DomainError(f"Brieskorn exponents must be >= 2, got {x}")
    return BrieskornExponents(a, math.lcm(*a), compute_l2(a))


def brieskorn_to_wci(b: BrieskornExponents) -> WCISpace:
    """View the Brieskorn orbifold as the degree-l hypersurface with weights
    l/a_j. The converted weights always have gcd 1: for each prime p | l some
    exponent attains the maximal valuation, making its weight p-free."""
    weights = [b.l // aj for aj in b.a]
    try:
        wv = make_weight_vector(weights)
    except DomainError as exc:
        raise AssertionError(f"converted Brieskorn weights {weights} invalid: {exc}") from exc
    return make_wci_space(wv, (b.l,))


@dataclass(frozen=True)
class TheoremCheck:
    """Hypothesis report for the fiberwise index theorem: the proportionality
    constant b, simple connectivity, and the total-space manifold condition
    (recorded, not decidable from weights and degrees alone)."""

    b: int
    simply_connected: bool
    simply_connected_reason: str
    manifold_condition: str = "assumed, not checked"


def check_theorem_hypotheses(space: Union[WPSpace, WCISpace]) -> TheoremCheck:
    from .cz_indices import b_constant  # local import to avoid a module cycle

    b = b_constant(space)
    if isinstance(space, WPSpace):
        reason = "weighted projective spaces are simply connected as orbifolds"
    else:
        n = space.weights.n
        reason = (
            f"codimension r={space.r} <= n-2={n - 2} keeps complex dimension >= 2, "
            "so the link is simply connected"
        )
    return TheoremCheck(b=b, simply_connected=True, simply_connected_reason=reason)
