"""Conley-Zehnder indices of Reeb orbits: principal orbits over weighted
projective spaces, complete intersections, and Brieskorn orbifolds, and
non-principal orbits via stratum reduction.

Every index is built from two primitives: spaces.b_constant, the constant
b of c1^orb = b*[omega], since a principal orbit has index 2*b; and
cz_paths.scalar_index, the closed form of the scalar path. A non-principal
orbit supported on a coordinate set S, with isotropy order d = gcd of the
supported weights, reduces to the principal orbit over its stratum P(w_S/d),
of degree degree/d (degree 0 for a weighted projective space, l for a
Brieskorn orbifold, whose terms come from its exponents), plus one scalar
path of duration w_k/d per transverse coordinate k:

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
from .spaces import BrieskornExponents, Space, WCISpace, b_constant, brieskorn_to_wci, make_brieskorn_exponents
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
    w = make_weight_vector(wv).w
    s = _support(support, len(w))
    return s, math.gcd(*map(w.__getitem__, s))


def _support(support: Iterable[int], n: int) -> frozenset[int]:
    """The support as a set of coordinates, each in range 0..n-1."""
    s = frozenset(check_ints("support", support))
    if not s:
        raise DomainError("orbit support must be nonempty")
    if min(s) < 0 or max(s) >= n:
        bad = next(j for j in s if not 0 <= j < n)
        raise DomainError(f"support index {bad!r} out of range 0..{n - 1}")
    return s


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


def _reduced_index(wv: WeightVector, s: frozenset[int], d: int, allow: bool, notes: list) -> tuple[int, bool]:
    """Index of the orbit on the support s with isotropy d > 1, and whether a
    term was extrapolated (see _even_ratios): 2*sum_{j in S} w_j/d for the
    stratum P(w_S/d), plus the scalar index of duration w_k/d for each k off s.
    With r_k = w_k mod 2*d that is (2*sum_S w_j + sum_k (w_k - r_k))/d plus
    the count of r_k != 0, one exact division as d divides each w_j, j in S."""
    w = wv.w
    outside = _outside(s, len(w))
    transverse = list(compress(w, outside))
    period = 2 * d
    r = [wk % period for wk in transverse]
    total = (2 * sum(w) - sum(transverse) - sum(r)) // d + len(r) - r.count(0)
    if 0 not in r:
        return total, False
    return total, _even_ratios(compress(range(len(w)), outside), r, w.__getitem__, d, allow, notes)


def _outside(s: frozenset[int], n: int) -> list[bool]:
    """The mask of the n coordinates that is True off the support s."""
    outside = [True] * n
    for j in s:
        outside[j] = False
    return outside


def _even_ratios(ks: Iterable[int], r: list[int], weight, d: int, allow: bool, notes: list) -> bool:
    """Refuse, or note, each transverse coordinate k of ks (ascending) whose
    remainder r_k is 0: w_k/d, with w_k = weight(k), is then an even integer,
    a closed loop that no covered case adjudicates. It is refused at the
    lowest such k unless allow; else each is noted, and True is returned."""
    for k in (k for k, rk in zip(ks, r) if not rk):
        wk = weight(k)
        if not allow:
            raise UncoveredCaseError(
                f"transverse coordinate {k} (weight {wk} over isotropy {d}) gives the even "
                f"integer {wk // d}; this closed-loop case is uncovered (pass "
                "allow_extrapolation to use the even scalar branch)"
            )
        notes.append(
            f"transverse coordinate {k} has ratio {wk // d}, an even integer; indexed with "
            "the even scalar branch beyond the covered cases"
        )
    return True


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

    index, extra = _reduced_index(wv, s, d, allow_extrapolation, notes)
    return CZReport(index, Branch.NONPRINCIPAL_WPS, extrapolated or extra, notes=tuple(notes))


def mu_orbit_brieskorn(
    be: BrieskornExponents | Iterable[int],
    support: Iterable[int],
    allow_extrapolation: bool = False,
) -> CZReport:
    """Index of the Reeb orbit of a Brieskorn orbifold, given by its
    BrieskornExponents or their entries, supported on the given coordinates.

    The restricted form must keep at least 3 variables so that the reduced
    principal formula applies to the stratum. Over the weights w_j = l/a_j,
    the isotropy d = gcd(w_S) is l/l_S, with l_S = lcm(a_S); the stratum's
    principal index 2*(sum_{j in S} w_j/d - l/d) is 2*(sum_{j in S} l_S/a_j - l_S),
    and a transverse k adds the scalar index of duration w_k/d = l_S/a_k, as
    in the projective case. A weight l/a_k is formed only to name an even ratio.
    """
    be = make_brieskorn_exponents(be)
    a, l = be.a, be.l
    s = _support(support, len(a))

    if len(s) < 3:
        raise UncoveredCaseError(
            f"support of size {len(s)} is uncovered: the restricted form must keep at least "
            "3 variables for the reduced principal formula"
        )

    l_s = math.lcm(*map(a.__getitem__, s))
    d = l // l_s
    if d == 1:
        return _trivial_isotropy(brieskorn_to_wci(be), Branch.PRINCIPAL_BRIESKORN, len(s) == len(a))

    notes = [f"isotropy order taken as the gcd of the ambient weights over the support ({d})"]
    outside = _outside(s, len(a))
    periods = [2 * ak for ak in compress(a, outside)]
    r = list(map(l_s.__mod__, periods))
    index = 2 * (sum(map(l_s.__floordiv__, map(a.__getitem__, s))) - l_s)
    index += 2 * sum(map(l_s.__floordiv__, periods)) + len(r) - r.count(0)
    ks = compress(range(len(a)), outside)
    even = 0 in r and _even_ratios(ks, r, lambda k: l // a[k], d, allow_extrapolation, notes)
    return CZReport(index, Branch.NONPRINCIPAL_BRIESKORN, even, notes=tuple(notes))
