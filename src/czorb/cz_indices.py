"""Conley-Zehnder indices of Reeb orbits: principal orbits over weighted
projective spaces, complete intersections, and Brieskorn orbifolds, and
non-principal orbits via stratum reduction.

A principal orbit has index 2*b, where b is the proportionality constant
between the orbifold first Chern class and the symplectic class: b = |w| for
a weighted projective space and |w| - sum(m_j) for a complete intersection of
multidegree (m_1, ..., m_r).

For a non-principal orbit supported on a coordinate set S with isotropy order
d_S = gcd of the supported weights, the reduction formula is

    (2/d_S) * sum_{j in S} w_j  +  sum_{k not in S} (2*floor(w_k/(2*d_S)) + 1),

valid when the stratum is positive-dimensional and no transverse ratio
w_k/d_S is an even integer. Outside those conditions the computation refuses
by default; extrapolation is opt-in and labeled on the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .cz_paths import scalar_cz
from .errors import DomainError, UncoveredCaseError
from .spaces import BrieskornExponents, WCISpace, WPSpace, brieskorn_to_wci
from .weights import WeightVector, make_weight_vector

Space = Union[WPSpace, WCISpace]


class Branch(str, Enum):
    """Which formula produced an index."""

    PRINCIPAL_WPS = "principal-wps"
    PRINCIPAL_WCI = "principal-wci"
    PRINCIPAL_BRIESKORN = "principal-brieskorn"
    NONPRINCIPAL_WPS = "nonprincipal-wps"
    NONPRINCIPAL_BRIESKORN = "nonprincipal-brieskorn"
    TWO_WEIGHT_SPECIAL = "two-weight-special"


# Formula text per branch, attached to CLI records for auditability.
BRANCH_FORMULAS = {
    Branch.PRINCIPAL_WPS: "2*|w|",
    Branch.PRINCIPAL_WCI: "2*(|w| - sum(m_j))",
    Branch.PRINCIPAL_BRIESKORN: "2*l*(sum(1/a_j) - 1)",
    Branch.NONPRINCIPAL_WPS: (
        "(2/d_S)*sum_{j in S} w_j + sum_{k not in S} (2*floor(w_k/(2*d_S)) + 1)"
    ),
    Branch.NONPRINCIPAL_BRIESKORN: (
        "2*l_S*(sum_{j in S} 1/a_j - 1) + sum_{k not in S} (2*floor(w_k/(2*d_S)) + 1)"
    ),
    Branch.TWO_WEIGHT_SPECIAL: "2*floor((m+n)/(2*m)) + 1",
}


@dataclass(frozen=True)
class OrbitSpec:
    """A Reeb orbit stratum: the set of nonzero coordinates and its isotropy
    order (always recomputed as the gcd of the supported weights)."""

    support: frozenset[int]
    isotropy: int


@dataclass(frozen=True)
class CZReport:
    index: int
    branch: Branch
    extrapolated: bool = False
    b_constant: int | None = None
    notes: tuple[str, ...] = ()


def orbit_spec(wv: WeightVector, support: Iterable[int]) -> OrbitSpec:
    """Validate an orbit support set against a weight vector and compute its
    isotropy order."""
    s = frozenset(support)
    if not s:
        raise DomainError("orbit support must be nonempty")
    for j in s:
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < len(wv):
            raise DomainError(f"support index {j!r} out of range 0..{len(wv) - 1}")
    return OrbitSpec(s, math.gcd(*(wv[j] for j in s)))


def b_constant(space: Space) -> int:
    """Chern-class proportionality constant; may be non-positive for
    high-multidegree complete intersections and is returned as-is."""
    if isinstance(space, WPSpace):
        return sum(space.weights.w)
    if isinstance(space, WCISpace):
        return sum(space.weights.w) - sum(space.degrees)
    raise DomainError(f"expected a WPSpace or WCISpace, got {type(space).__name__}")


def mu_principal(space: Space) -> CZReport:
    """Index of the principal orbit: twice the proportionality constant."""
    b = b_constant(space)
    branch = Branch.PRINCIPAL_WPS if isinstance(space, WPSpace) else Branch.PRINCIPAL_WCI
    notes = ()
    if b <= 0:
        notes = (f"proportionality constant b={b} is non-positive; the formula has no positivity guard",)
    return CZReport(index=2 * b, branch=branch, b_constant=b, notes=notes)


def mu_principal_brieskorn(be: BrieskornExponents) -> CZReport:
    """Principal-orbit index of a Brieskorn orbifold: 2*l*(sum(1/a_j) - 1)."""
    total = 2 * be.l * (sum(Fraction(1, aj) for aj in be.a) - 1)
    if total.denominator != 1:
        raise AssertionError(f"non-integer principal index {total} for exponents {be.a}")
    index = int(total)
    return CZReport(index=index, branch=Branch.PRINCIPAL_BRIESKORN, b_constant=index // 2)


def _transverse_term(
    wv: WeightVector, s: frozenset[int], d: int, allow_extrapolation: bool, notes: list
) -> tuple[int, bool]:
    """Index contribution of the coordinates outside the support s, over
    isotropy order d, and whether any was extrapolated: coordinate k adds the
    scalar index of duration w_k/d, visited in ascending k.

    The even-integer duration is a closed transverse loop, which no covered
    case adjudicates; it is refused unless extrapolation was requested.
    """
    total = 0
    extrapolated = False
    for k, wk in enumerate(wv.w):
        if k in s:
            continue
        ratio = Fraction(wk, d)
        total += scalar_cz(ratio)
        if ratio.denominator == 1 and ratio.numerator % 2 == 0:
            if not allow_extrapolation:
                raise UncoveredCaseError(
                    f"transverse coordinate {k} (weight {wk} over isotropy {d}) gives the even "
                    f"integer {int(ratio)}; this closed-loop case is uncovered (pass "
                    "allow_extrapolation to use the even scalar branch)"
                )
            notes.append(
                f"transverse coordinate {k} has ratio {int(ratio)}, an even integer; indexed with "
                "the even scalar branch beyond the covered cases"
            )
            extrapolated = True
    return total, extrapolated


def mu_orbit_wps(
    wv: WeightVector | Iterable[int],
    support: Iterable[int],
    allow_extrapolation: bool = False,
) -> CZReport:
    """Index of the Reeb orbit supported on the given coordinates of a
    weighted projective space.

    Trivial isotropy reduces to the principal formula. A single supported
    coordinate in a two-weight space uses the closed form
    2*floor((m+n)/(2m))+1. Everything else goes through stratum reduction,
    refusing the uncovered corners unless allow_extrapolation is set.
    """
    if not isinstance(wv, WeightVector):
        wv = make_weight_vector(wv)
    spec = orbit_spec(wv, support)
    s, d = spec.support, spec.isotropy
    notes: list[str] = []

    if d == 1:
        b = sum(wv.w)
        if len(s) < len(wv):
            notes.append("support has trivial isotropy, so the orbit is principal")
        return CZReport(index=2 * b, branch=Branch.PRINCIPAL_WPS, b_constant=b, notes=tuple(notes))

    if len(wv) == 2 and len(s) == 1:
        (j,) = s
        m, n = wv[j], wv[1 - j]
        notes.append(
            "two-weight closed form used; it disagrees with the general reduction formula "
            "for some (m, n), and the closed form takes precedence"
        )
        return CZReport(
            index=2 * ((m + n) // (2 * m)) + 1,
            branch=Branch.TWO_WEIGHT_SPECIAL,
            notes=tuple(notes),
        )

    extrapolated = False
    if len(s) == 1:
        if not allow_extrapolation:
            raise UncoveredCaseError(
                "single-coordinate support with 3 or more ambient weights is uncovered: the "
                "reduction formula assumes a positive-dimensional stratum (pass "
                "allow_extrapolation to apply it anyway)"
            )
        notes.append(
            "zero-dimensional stratum indexed with the general reduction formula beyond the "
            "covered cases"
        )
        extrapolated = True

    transverse, extra = _transverse_term(wv, s, d, allow_extrapolation, notes)
    return CZReport(
        index=2 * sum(wv[j] // d for j in sorted(s)) + transverse,
        branch=Branch.NONPRINCIPAL_WPS,
        extrapolated=extrapolated or extra,
        notes=tuple(notes),
    )


def mu_orbit_brieskorn(
    be: BrieskornExponents,
    support: Iterable[int],
    allow_extrapolation: bool = False,
) -> CZReport:
    """Index of the Reeb orbit of a Brieskorn orbifold supported on the given
    coordinates.

    The restricted form must keep at least 3 variables so that the reduced
    principal formula applies to the stratum; its contribution is
    2*l_S*(sum_{j in S} 1/a_j - 1) with l_S the lcm of the supported
    exponents, and transverse coordinates contribute scalar terms as in the
    projective case.
    """
    wci = brieskorn_to_wci(be)
    wv = wci.weights
    spec = orbit_spec(wv, support)
    s, d = spec.support, spec.isotropy

    if len(s) < 3:
        raise UncoveredCaseError(
            f"support of size {len(s)} is uncovered: the restricted form must keep at least "
            "3 variables for the reduced principal formula"
        )

    if d == 1:
        b = sum(wv.w) - be.l
        notes = ()
        if len(s) < len(wv):
            notes = ("support has trivial isotropy, so the orbit is principal",)
        return CZReport(
            index=2 * b, branch=Branch.PRINCIPAL_BRIESKORN, b_constant=b, notes=notes
        )

    notes = [
        f"isotropy order taken as the gcd of the ambient weights over the support ({d})"
    ]
    l_s = math.lcm(*(be.a[j] for j in sorted(s)))
    reduced = 2 * l_s * (sum(Fraction(1, be.a[j]) for j in sorted(s)) - 1)
    if reduced.denominator != 1:
        raise AssertionError(f"non-integer reduced index {reduced} for support {sorted(s)}")
    transverse, extrapolated = _transverse_term(wv, s, d, allow_extrapolation, notes)
    return CZReport(
        index=int(reduced) + transverse,
        branch=Branch.NONPRINCIPAL_BRIESKORN,
        extrapolated=extrapolated,
        notes=tuple(notes),
    )
