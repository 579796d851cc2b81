"""Conley-Zehnder indices of Reeb orbits: principal orbits over weighted
projective spaces, complete intersections, and Brieskorn orbifolds, and
non-principal orbits via stratum reduction.

Every index is built from two primitives: spaces.b_constant, the constant
b of c1^orb = b*[omega], since a principal orbit has index 2*b; and
cz_paths.scalar_index, the closed form of the scalar path. A non-principal
orbit supported on a coordinate set S, with isotropy order d = gcd of the
supported weights, reduces to the principal orbit over its stratum P(w_S/d),
of degree degree/d (degree 0 for a weighted projective space, l for a
Brieskorn orbifold), plus one scalar path of duration w_k/d per transverse
coordinate k:

    2*(sum_{j in S} w_j/d - degree/d)  +  sum_{k not in S} scalar_index(w_k, d),

valid when the stratum is positive-dimensional and no transverse ratio
w_k/d is an even integer. Outside those conditions the computation refuses
by default; extrapolation is opt-in and labeled on the report. The one
exception is a single coordinate of a two-weight space P(m, n), whose closed
form is the scalar index of duration (m+n)/m. Every term is an integer and
is computed in integers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from enum import Enum
from itertools import compress

# scalar_cz is not called here; the benchmark tracer patches
# czorb.cz_indices.scalar_cz, and every patch point must resolve.
from .cz_paths import scalar_cz, scalar_index  # noqa: F401
from .errors import DomainError, UncoveredCaseError, check_ints
from .record import Record
from .spaces import BrieskornExponents, Space, WCISpace, b_constant, brieskorn_to_wci
from .weights import WeightVector, make_weight_vector


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


class CZReport(Record):
    __slots__ = ("index", "branch", "extrapolated", "b_constant", "notes")
    _defaults = {"extrapolated": False, "b_constant": None, "notes": ()}


def orbit_spec(wv: WeightVector | Iterable[int], support: Iterable[int]) -> tuple[frozenset[int], int]:
    """Validate an orbit support set against a weight vector or its entries,
    and return the orbit's stratum as (support, isotropy): the set of nonzero
    coordinates and the gcd of the supported weights."""
    s = frozenset(check_ints("support", support))
    if not s:
        raise DomainError("orbit support must be nonempty")
    w = make_weight_vector(wv).w
    if min(s) < 0 or max(s) >= len(w):
        bad = next(j for j in s if not 0 <= j < len(w))
        raise DomainError(f"support index {bad!r} out of range 0..{len(w) - 1}")
    return s, math.gcd(*map(w.__getitem__, s))


def mu_principal(space: Space) -> CZReport:
    """Index of the principal orbit: twice the proportionality constant. The
    space is a WCISpace, or a weighted projective space given by its
    WeightVector or the vector's entries."""
    if isinstance(space, WCISpace):
        branch = Branch.PRINCIPAL_WCI
    else:
        space, branch = make_weight_vector(space), Branch.PRINCIPAL_WPS
    b = b_constant(space)
    notes = ()
    if b <= 0:
        notes = (f"proportionality constant b={b} is non-positive; the formula has no positivity guard",)
    return CZReport(index=2 * b, branch=branch, b_constant=b, notes=notes)


def _trivial_isotropy(space: WeightVector | WCISpace, branch: Branch, full_support: bool) -> CZReport:
    """A support with isotropy 1 carries the principal orbit: index 2*b."""
    b = b_constant(space)
    notes = () if full_support else ("support has trivial isotropy, so the orbit is principal",)
    return CZReport(index=2 * b, branch=branch, b_constant=b, notes=notes)


def mu_principal_brieskorn(be: BrieskornExponents | Iterable[int]) -> CZReport:
    """Principal-orbit index of a Brieskorn orbifold, by its exponents or their
    BrieskornExponents: 2*l*(sum(1/a_j) - 1), twice b_constant = sum(l/a_j) - l."""
    return _trivial_isotropy(brieskorn_to_wci(be), Branch.PRINCIPAL_BRIESKORN, full_support=True)


def _reduced_index(
    wv: WeightVector, s: frozenset[int], d: int, degree: int, allow_extrapolation: bool, notes: list
) -> tuple[int, bool]:
    """Index of the orbit on the support s with isotropy d > 1, and whether
    any term was extrapolated: the stratum P(w_S/d), of degree degree/d, adds
    2*(sum_{j in S} w_j/d - degree/d), and each coordinate k outside s adds
    scalar_index(w_k, d), the scalar index of duration w_k/d. With
    r_k = w_k mod 2*d those terms add up to (sum_k w_k - sum_k r_k)/d plus
    the count of r_k != 0, and d divides every supported weight and the
    degree, so the whole sum is one exact division.

    The even-integer duration is a closed transverse loop, which no covered
    case adjudicates; it is refused unless extrapolation was requested. Only
    when some transverse w_k is a multiple of 2*d are the coordinates walked
    in ascending k, so that the refusal names the lowest such k and the notes
    come in order.
    """
    w = wv.w
    outside = [True] * len(w)
    for j in s:
        outside[j] = False
    transverse = list(compress(w, outside))
    period = 2 * d
    r = [wk % period for wk in transverse]
    total = (2 * (sum(w) - degree) - sum(transverse) - sum(r)) // d + len(r) - r.count(0)
    if 0 not in r:
        return total, False
    for k, wk in enumerate(w):
        if wk % period or k in s:
            continue
        if not allow_extrapolation:
            raise UncoveredCaseError(
                f"transverse coordinate {k} (weight {wk} over isotropy {d}) gives the even "
                f"integer {wk // d}; this closed-loop case is uncovered (pass "
                "allow_extrapolation to use the even scalar branch)"
            )
        notes.append(
            f"transverse coordinate {k} has ratio {wk // d}, an even integer; indexed with "
            "the even scalar branch beyond the covered cases"
        )
    return total, True


def mu_orbit_wps(
    wv: WeightVector | Iterable[int],
    support: Iterable[int],
    allow_extrapolation: bool = False,
) -> CZReport:
    """Index of the Reeb orbit supported on the given coordinates of a
    weighted projective space.

    Trivial isotropy reduces to the principal formula. A single supported
    coordinate in a two-weight space uses the closed form
    2*floor((m+n)/(2m))+1, the scalar index of duration (m+n)/m. Everything
    else goes through stratum reduction, refusing the uncovered corners
    unless allow_extrapolation is set.
    """
    wv = make_weight_vector(wv)
    s, d = orbit_spec(wv, support)
    notes: list[str] = []

    if d == 1:
        return _trivial_isotropy(wv, Branch.PRINCIPAL_WPS, len(s) == len(wv))

    if len(wv) == 2 and len(s) == 1:
        (j,) = s
        m, n = wv[j], wv[1 - j]
        notes.append(
            "two-weight closed form used; it disagrees with the general reduction formula "
            "for some (m, n), and the closed form takes precedence"
        )
        # m = d >= 2 and gcd(m, n) = 1, so 2m never divides m + n: the odd scalar branch.
        return CZReport(index=scalar_index(m + n, m), branch=Branch.TWO_WEIGHT_SPECIAL, notes=tuple(notes))

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

    index, extra = _reduced_index(wv, s, d, 0, allow_extrapolation, notes)
    return CZReport(index, Branch.NONPRINCIPAL_WPS, extrapolated or extra, notes=tuple(notes))


def mu_orbit_brieskorn(
    be: BrieskornExponents | Iterable[int],
    support: Iterable[int],
    allow_extrapolation: bool = False,
) -> CZReport:
    """Index of the Reeb orbit of a Brieskorn orbifold, given by its
    BrieskornExponents or their entries, supported on the given coordinates.

    The restricted form must keep at least 3 variables so that the reduced
    principal formula applies to the stratum. Over the weights w_j = l/a_j
    and isotropy d, the stratum is the degree-l/d hypersurface in P(w_S/d),
    whose principal index 2*(sum_{j in S} w_j/d - l/d) is the in-stratum
    term; transverse coordinates contribute scalar terms as in the projective
    case. Since d = l/l_S, with l_S the lcm of the supported exponents, the
    in-stratum term equals 2*l_S*(sum_{j in S} 1/a_j - 1); no lcm is taken.
    """
    wci = brieskorn_to_wci(be)
    wv, (l,) = wci.weights, wci.degrees
    s, d = orbit_spec(wv, support)

    if len(s) < 3:
        raise UncoveredCaseError(
            f"support of size {len(s)} is uncovered: the restricted form must keep at least "
            "3 variables for the reduced principal formula"
        )

    if d == 1:
        return _trivial_isotropy(wci, Branch.PRINCIPAL_BRIESKORN, len(s) == len(wv))

    notes = [f"isotropy order taken as the gcd of the ambient weights over the support ({d})"]
    index, extrapolated = _reduced_index(wv, s, d, l, allow_extrapolation, notes)
    return CZReport(index, Branch.NONPRINCIPAL_BRIESKORN, extrapolated, notes=tuple(notes))
