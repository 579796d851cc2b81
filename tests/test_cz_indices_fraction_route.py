"""The integer-only index formulas against the Fraction route they replaced.

The functions prefixed `fraction_` below are the rational-arithmetic
formulas kept as a reference: every transverse ratio w_k/d and every
Brieskorn sum 2*l*(sum(1/a_j) - 1) is built as a Fraction. They must give
the same report, or refuse with the same exception and message, as the
library on every input.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czorb.cz_indices import (
    Branch,
    CZReport,
    mu_orbit_brieskorn,
    mu_orbit_wps,
    mu_principal_brieskorn,
    orbit_spec,
)
from czorb.errors import UncoveredCaseError
from czorb.spaces import brieskorn_to_wci, make_brieskorn_exponents
from czorb.weights import make_weight_vector


def fraction_scalar_cz(T: Fraction) -> int:
    if T.denominator == 1 and T.numerator % 2 == 0:
        return T.numerator
    return 2 * (T.numerator // (2 * T.denominator)) + 1


def fraction_transverse_term(wv, s, d, allow_extrapolation, notes):
    total = 0
    extrapolated = False
    for k, wk in enumerate(wv.w):
        if k in s:
            continue
        ratio = Fraction(wk, d)
        total += fraction_scalar_cz(ratio)
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


def fraction_principal_brieskorn(be):
    total = 2 * be.l * (sum(Fraction(1, aj) for aj in be.a) - 1)
    assert total.denominator == 1
    index = int(total)
    return CZReport(index=index, branch=Branch.PRINCIPAL_BRIESKORN, b_constant=index // 2)


def fraction_orbit_wps(w, support, allow_extrapolation):
    wv = make_weight_vector(w)
    s, d = orbit_spec(wv, support)
    notes = []
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
        return CZReport(index=2 * ((m + n) // (2 * m)) + 1, branch=Branch.TWO_WEIGHT_SPECIAL, notes=tuple(notes))
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
    transverse, extra = fraction_transverse_term(wv, s, d, allow_extrapolation, notes)
    return CZReport(
        index=2 * sum(wv[j] // d for j in sorted(s)) + transverse,
        branch=Branch.NONPRINCIPAL_WPS,
        extrapolated=extrapolated or extra,
        notes=tuple(notes),
    )


def fraction_orbit_brieskorn(be, support, allow_extrapolation):
    wv = brieskorn_to_wci(be).weights
    s, d = orbit_spec(wv, support)
    if len(s) < 3:
        raise UncoveredCaseError(
            f"support of size {len(s)} is uncovered: the restricted form must keep at least "
            "3 variables for the reduced principal formula"
        )
    if d == 1:
        b = sum(wv.w) - be.l
        notes = ("support has trivial isotropy, so the orbit is principal",) if len(s) < len(wv) else ()
        return CZReport(index=2 * b, branch=Branch.PRINCIPAL_BRIESKORN, b_constant=b, notes=notes)
    notes = [f"isotropy order taken as the gcd of the ambient weights over the support ({d})"]
    l_s = math.lcm(*(be.a[j] for j in sorted(s)))
    reduced = 2 * l_s * (sum(Fraction(1, be.a[j]) for j in sorted(s)) - 1)
    assert reduced.denominator == 1
    transverse, extrapolated = fraction_transverse_term(wv, s, d, allow_extrapolation, notes)
    return CZReport(
        index=int(reduced) + transverse,
        branch=Branch.NONPRINCIPAL_BRIESKORN,
        extrapolated=extrapolated,
        notes=tuple(notes),
    )


def outcome(f, *args):
    """The report of f(*args), or the type and message of its refusal."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
        return type(exc), str(exc)


@st.composite
def wps_orbits(draw):
    """Weights whose support shares the isotropy d and whose transverse
    weights are often multiples of 2*d (an even-integer ratio), up to 60
    coordinates long, with a support of any size and order."""
    d = draw(st.integers(1, 6))
    support_w = draw(st.lists(st.integers(1, 20).map(lambda m: d * m), min_size=1, max_size=30))
    even_ratio = st.integers(1, 20).map(lambda m: 2 * d * m)
    transverse_w = draw(st.lists(st.one_of(st.integers(1, 200), even_ratio), max_size=30))
    w = draw(st.permutations(support_w + transverse_w))
    if len(w) < 2 or math.gcd(*w) != 1:
        w = w + [1]
    support = draw(st.lists(st.integers(0, len(w) - 1), min_size=1, max_size=len(w)))
    return w, support


@st.composite
def brieskorn_orbits(draw):
    """Exponents, 4 to 40 of them, whose transverse exponents are often
    divisors of the support's lcm with an even quotient (an even-integer
    transverse ratio l_S/a_k)."""
    support_a = draw(st.lists(st.integers(2, 12), min_size=2, max_size=20))
    l_s = math.lcm(*support_a)
    even_divisors = [a for a in range(2, l_s + 1) if l_s % a == 0 and (l_s // a) % 2 == 0]
    transverse_choices = st.integers(2, 30)
    if even_divisors:
        transverse_choices = st.one_of(transverse_choices, st.sampled_from(even_divisors))
    transverse_a = draw(st.lists(transverse_choices, min_size=max(0, 4 - len(support_a)), max_size=20))
    order = draw(st.permutations(range(len(support_a) + len(transverse_a))))
    a = [0] * len(order)
    for value, position in zip(support_a + transverse_a, order):
        a[position] = value
    support = [order[i] for i in range(len(support_a))]
    return a, support


@given(wps_orbits(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_mu_orbit_wps_matches_the_fraction_route(orbit, allow_extrapolation):
    w, support = orbit
    expected = outcome(fraction_orbit_wps, w, support, allow_extrapolation)
    assert outcome(mu_orbit_wps, w, support, allow_extrapolation) == expected


@given(brieskorn_orbits(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_mu_orbit_brieskorn_matches_the_fraction_route(orbit, allow_extrapolation):
    a, support = orbit
    be = make_brieskorn_exponents(a)
    expected = outcome(fraction_orbit_brieskorn, be, support, allow_extrapolation)
    assert outcome(mu_orbit_brieskorn, be, support, allow_extrapolation) == expected


@given(st.lists(st.integers(2, 10**6), min_size=4, max_size=40))
@settings(max_examples=300, deadline=None)
def test_mu_principal_brieskorn_matches_the_fraction_route(a):
    be = make_brieskorn_exponents(a)
    assert mu_principal_brieskorn(be) == fraction_principal_brieskorn(be)


def test_the_strategies_reach_even_ratios_and_refusals():
    # The worked even-ratio cases from both spaces, through both routes.
    for allow in (False, True):
        for w, support in (([5, 5, 10, 1], [0, 1]), ([4, 4, 5, 14], [2])):
            assert outcome(mu_orbit_wps, w, support, allow) == outcome(fraction_orbit_wps, w, support, allow)
        be = make_brieskorn_exponents([4, 4, 4, 2, 6])
        got = outcome(mu_orbit_brieskorn, be, [0, 1, 2], allow)
        assert got == outcome(fraction_orbit_brieskorn, be, [0, 1, 2], allow)
        assert isinstance(got, CZReport) == allow


BIG = 10**40 + 7  # odd, so 2*BIG divides no odd multiple of BIG


@pytest.mark.parametrize("allow_extrapolation", [False, True])
@pytest.mark.parametrize(
    "w, support",
    [
        # transverse ratios 9, (BIG + 2)/BIG and 1/BIG: none an even integer
        ([3 * BIG, 5 * BIG, 9 * BIG, BIG + 2, 1], [0, 1]),
        # adds the even ratio 14
        ([3 * BIG, 5 * BIG, 14 * BIG, 9 * BIG, 1], [1, 0]),
    ],
)
def test_mu_orbit_wps_matches_the_fraction_route_on_big_weights(w, support, allow_extrapolation):
    expected = outcome(fraction_orbit_wps, w, support, allow_extrapolation)
    assert outcome(mu_orbit_wps, w, support, allow_extrapolation) == expected


@pytest.mark.parametrize("allow_extrapolation", [False, True])
@pytest.mark.parametrize(
    "a",
    [
        [BIG, BIG, BIG, 2 * BIG, 2 * BIG],  # l = 2*BIG, weights 2,2,2,1,1: odd ratios 1/2
        [2 * BIG, 2 * BIG, 2 * BIG, BIG, 4],  # l = 4*BIG, weights 2,2,2,4,BIG: ratios 2 and BIG/2
    ],
)
def test_mu_orbit_brieskorn_matches_the_fraction_route_on_big_exponents(a, allow_extrapolation):
    be = make_brieskorn_exponents(a)
    expected = outcome(fraction_orbit_brieskorn, be, [0, 1, 2], allow_extrapolation)
    assert outcome(mu_orbit_brieskorn, be, [0, 1, 2], allow_extrapolation) == expected
