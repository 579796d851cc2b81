import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czorb.cz_indices import (
    Branch,
    CZReport,
    b_constant,
    mu_orbit_brieskorn,
    mu_orbit_wps,
    mu_principal,
    mu_principal_brieskorn,
    orbit_spec,
)
from czorb.cz_paths import crossing_oracle_scalar, det_winding, scalar_cz
from czorb.errors import DomainError, UncoveredCaseError
from czorb.numeric_verify import area_chain
from czorb.spaces import brieskorn_to_wci, check_theorem_hypotheses, make_brieskorn_exponents, make_wci_space
from czorb.weights import invariants, make_weight_vector, symplectic_area


def wps(*w):
    return make_weight_vector(w)


def test_b_constant_examples():
    assert b_constant(wps(4, 4, 5, 14)) == 27
    assert b_constant(make_wci_space([5, 5, 5, 2], [10])) == 7
    assert b_constant(wps(1, 1, 1)) == 3
    assert b_constant(make_brieskorn_exponents([2, 2, 2, 5])) == 7
    assert b_constant(make_brieskorn_exponents([4, 4, 4, 4])) == 0


def test_b_constant_refuses_other_types():
    with pytest.raises(DomainError, match="not object"):
        b_constant(object())


def test_mu_principal_refuses_brieskorn_exponents():
    with pytest.raises(DomainError, match="not BrieskornExponents"):
        mu_principal(make_brieskorn_exponents([2, 2, 2, 5]))


@pytest.mark.parametrize(
    "function",
    [
        mu_principal,
        b_constant,
        check_theorem_hypotheses,
        invariants,
        symplectic_area,
        area_chain,
        lambda w: mu_orbit_wps(w, [0, 1]),
    ],
    ids=[
        "mu_principal",
        "b_constant",
        "check_theorem_hypotheses",
        "invariants",
        "symplectic_area",
        "area_chain",
        "mu_orbit_wps",
    ],
)
def test_a_weighted_projective_space_is_its_weight_vector_or_its_entries(function):
    assert function([4, 4, 5, 14]) == function(make_weight_vector([4, 4, 5, 14]))
    with pytest.raises(DomainError, match="weights must be a list of integers, not int"):
        function(5)
    if function is not b_constant:  # b_constant also takes a Brieskorn orbifold
        with pytest.raises(DomainError, match="weights must be a list of integers, not BrieskornExponents"):
            function(make_brieskorn_exponents([2, 2, 2, 5]))


def test_mu_principal_examples():
    assert mu_principal(wps(4, 4, 5, 14)).index == 54
    report = mu_principal(make_wci_space([5, 5, 5, 2], [10]))
    assert report.index == 14
    assert report.branch == Branch.PRINCIPAL_WCI
    assert report.extrapolated is False
    assert mu_principal(wps(1, 1)).index == 4


def test_mu_principal_nonpositive_b():
    report = mu_principal(make_wci_space([1, 1, 1, 1, 1], [3, 3]))
    assert report.b_constant == -1
    assert report.index == -2
    assert report.notes  # flagged, not rejected


def test_mu_principal_brieskorn_examples():
    assert mu_principal_brieskorn(make_brieskorn_exponents([2, 2, 2, 5])).index == 14
    assert mu_principal_brieskorn(make_brieskorn_exponents([2, 2, 2, 2])).index == 4
    assert mu_principal_brieskorn(make_brieskorn_exponents([2, 3, 5, 7])).index == 74


def test_mu_principal_brieskorn_reads_an_exponent_list_as_exponents():
    # Not as the weights of P(2,2,2,5), whose index is 22.
    report = mu_principal_brieskorn([2, 2, 2, 5])
    assert (report.index, report.b_constant, report.branch) == (14, 7, Branch.PRINCIPAL_BRIESKORN)


def test_mu_orbit_brieskorn_takes_an_exponent_list():
    be = make_brieskorn_exponents([2, 2, 2, 5])
    assert mu_orbit_brieskorn([2, 2, 2, 5], [0, 1, 2]) == mu_orbit_brieskorn(be, [0, 1, 2])
    assert mu_orbit_brieskorn([2, 2, 2, 5], [0, 1, 2]).index == 3


def test_brieskorn_to_wci_takes_an_exponent_list():
    assert brieskorn_to_wci([2, 2, 2, 5]) == brieskorn_to_wci(make_brieskorn_exponents([2, 2, 2, 5]))


def test_orbit_spec_takes_the_entries_of_a_weight_vector():
    assert orbit_spec([4, 4, 5, 14], [0, 1]) == (frozenset({0, 1}), 4)
    with pytest.raises(DomainError, match="weights must be a list of integers, not int"):
        orbit_spec(5, [0])


def test_orbit_spec_recomputes_isotropy():
    wv = make_weight_vector([4, 4, 5, 14])
    assert orbit_spec(wv, [0, 1]) == (frozenset({0, 1}), 4)
    assert orbit_spec(wv, [0, 1, 2, 3]) == (frozenset({0, 1, 2, 3}), 1)
    with pytest.raises(DomainError):
        orbit_spec(wv, [])
    with pytest.raises(DomainError):
        orbit_spec(wv, [4])
    with pytest.raises(DomainError, match=r"support index 4 out of range 0\.\.3"):
        orbit_spec(wv, [0, 4])
    with pytest.raises(DomainError, match=r"support index -1 out of range 0\.\.3"):
        orbit_spec(wv, [-1])
    with pytest.raises(DomainError, match=r"support index -2 out of range 0\.\.3"):
        orbit_spec(wv, [0, -2])


def test_mu_orbit_wps_refuses_an_unhashable_support_entry():
    with pytest.raises(DomainError, match=r"support must be integers, got \[1\]"):
        mu_orbit_wps([4, 4, 5, 14], [[1]])


def test_mu_orbit_wps_refuses_a_support_that_is_not_a_list():
    with pytest.raises(DomainError, match="support must be a list of integers, not int"):
        mu_orbit_wps([4, 4, 5, 14], 1)


def test_mu_orbit_wps_worked_example():
    report = mu_orbit_wps([4, 4, 5, 14], [0, 1])
    assert report.index == 8
    assert report.branch == Branch.NONPRINCIPAL_WPS
    assert report.extrapolated is False


def test_mu_orbit_wps_two_weight_special():
    report = mu_orbit_wps([2, 7], [0])
    assert report.index == 5
    assert report.branch == Branch.TWO_WEIGHT_SPECIAL
    assert report.notes  # records the closed-form-vs-reduction tension


def test_mu_orbit_wps_two_weight_exhaustive():
    # every coprime (m, n) with 2 <= m < 60, 1 <= n < 60, in both coordinate
    # orders: the closed form and the crossing oracle of duration (m+n)/m
    checked = 0
    for m in range(2, 60):
        for n in range(1, 60):
            if math.gcd(m, n) != 1:
                continue
            expected = 2 * ((m + n) // (2 * m)) + 1
            assert crossing_oracle_scalar(Fraction(m + n, m)) == expected
            for weights, support in (([m, n], [0]), ([n, m], [1])):
                report = mu_orbit_wps(weights, support)
                assert report.branch == Branch.TWO_WEIGHT_SPECIAL
                assert report.index == expected, (weights, support)
            checked += 1
    assert checked > 2000


def test_mu_orbit_wps_full_support_is_principal():
    report = mu_orbit_wps([4, 4, 5, 14], [0, 1, 2, 3])
    assert report.index == 54
    assert report.branch == Branch.PRINCIPAL_WPS
    assert report.b_constant == 27


def test_mu_orbit_wps_trivial_isotropy_subset_is_principal():
    # support {2,3} of (4,4,5,14): gcd(5,14)=1
    report = mu_orbit_wps([4, 4, 5, 14], [2, 3])
    assert report.branch == Branch.PRINCIPAL_WPS
    assert report.index == 54


def test_mu_orbit_wps_single_coordinate_refused():
    with pytest.raises(UncoveredCaseError):
        mu_orbit_wps([4, 4, 5, 14], [2])
    report = mu_orbit_wps([4, 4, 5, 14], [2], allow_extrapolation=True)
    # in-stratum 2*(5/5)=2, transverse 4/5 -> 1, 4/5 -> 1, 14/5 -> 3
    assert report.index == 7
    assert report.extrapolated is True


def test_mu_orbit_wps_even_transverse_guard():
    with pytest.raises(UncoveredCaseError) as excinfo:
        mu_orbit_wps([5, 5, 10, 1], [0, 1])
    assert "10" in str(excinfo.value)
    report = mu_orbit_wps([5, 5, 10, 1], [0, 1], allow_extrapolation=True)
    # in-stratum 2*(1+1)=4, transverse 10/5=2 (even branch), 1/5 -> 1
    assert report.index == 7
    assert report.extrapolated is True
    assert report.branch == Branch.NONPRINCIPAL_WPS


def test_mu_orbit_brieskorn_worked_example():
    be = make_brieskorn_exponents([2, 2, 2, 5])
    report = mu_orbit_brieskorn(be, [0, 1, 2])
    assert report.index == 3
    assert report.branch == Branch.NONPRINCIPAL_BRIESKORN
    assert report.extrapolated is False
    assert any("isotropy" in note for note in report.notes)

    principal = mu_orbit_brieskorn(be, [0, 1, 2, 3])
    assert principal.index == 14
    assert principal.branch == Branch.PRINCIPAL_BRIESKORN


def test_mu_orbit_brieskorn_reduced_example():
    be = make_brieskorn_exponents([3, 3, 3, 3, 4])
    report = mu_orbit_brieskorn(be, [0, 1, 2, 3])
    assert report.index == 3
    # the stratum part alone is the reduced principal value
    assert mu_principal_brieskorn(make_brieskorn_exponents([3, 3, 3, 3])).index == 2


def test_mu_orbit_brieskorn_small_support_refused():
    be = make_brieskorn_exponents([2, 2, 2, 5])
    with pytest.raises(UncoveredCaseError):
        mu_orbit_brieskorn(be, [0, 1])
    with pytest.raises(UncoveredCaseError):
        mu_orbit_brieskorn(be, [0])


def test_mu_orbit_brieskorn_even_transverse_guard():
    # exponents (4,4,4,2,6): l = 12, weights (3,3,3,6,2); support {0,1,2} has
    # isotropy 3 and the transverse weight 6 gives the even ratio 2
    be = make_brieskorn_exponents([4, 4, 4, 2, 6])
    assert brieskorn_to_wci(be).weights.w == (3, 3, 3, 6, 2)
    with pytest.raises(UncoveredCaseError) as excinfo:
        mu_orbit_brieskorn(be, [0, 1, 2])
    assert "coordinate 3" in str(excinfo.value)
    report = mu_orbit_brieskorn(be, [0, 1, 2], allow_extrapolation=True)
    # reduced 2*4*(3/4 - 1) = -2, transverse 6/3 -> 2 (even branch), 2/3 -> 1
    assert report.index == 1
    assert report.extrapolated is True


def orbit_brieskorn_by_weights(a, support, allow):
    """mu_orbit_brieskorn's report through the converted weights w_j = l/a_j:
    d = gcd(w_S), and the index is tools/scaling.py's check_brieskorn sum."""
    l = math.lcm(*a)
    w = [l // x for x in a]
    s, d = orbit_spec(w, support)
    if len(s) < 3:
        raise UncoveredCaseError(
            f"support of size {len(s)} is uncovered: the restricted form must keep at least "
            "3 variables for the reduced principal formula"
        )
    if d == 1:
        notes = () if len(s) == len(w) else ("support has trivial isotropy, so the orbit is principal",)
        return CZReport(2 * (sum(w) - l), Branch.PRINCIPAL_BRIESKORN, b_constant=sum(w) - l, notes=notes)
    outside = [x for j, x in enumerate(w) if j not in s]
    index = 2 * (sum(w[j] for j in s) - l) // d
    index += sum(2 * (x // (2 * d)) + (x % (2 * d) != 0) for x in outside)
    notes = [f"isotropy order taken as the gcd of the ambient weights over the support ({d})"]
    even = [k for k, x in enumerate(w) if k not in s and x % (2 * d) == 0]
    for k in even:
        if not allow:
            raise UncoveredCaseError(
                f"transverse coordinate {k} (weight {w[k]} over isotropy {d}) gives the even "
                f"integer {w[k] // d}; this closed-loop case is uncovered (pass "
                "allow_extrapolation to use the even scalar branch)"
            )
        notes.append(
            f"transverse coordinate {k} has ratio {w[k] // d}, an even integer; indexed with "
            "the even scalar branch beyond the covered cases"
        )
    return CZReport(index, Branch.NONPRINCIPAL_BRIESKORN, bool(even), notes=tuple(notes))


def outcome(call, *args):
    """A call's report, or its refusal as (type, message)."""
    try:
        return call(*args)
    except (DomainError, UncoveredCaseError) as exc:
        return type(exc), str(exc)


@st.composite
def brieskorn_orbits(draw):
    """Exponents, a support (in one draw of four any list of coordinates,
    else at least 3 distinct valid ones) and allow_extrapolation."""
    a = draw(st.lists(st.integers(2, 60), min_size=4, max_size=8))
    if draw(st.integers(0, 3)):
        support = st.lists(st.integers(0, len(a) - 1), min_size=3, max_size=len(a), unique=True)
    else:
        support = st.lists(st.integers(-1, len(a)), max_size=len(a) + 1)
    return a, draw(support), draw(st.booleans())


@given(brieskorn_orbits())
@settings(max_examples=500)
def test_mu_orbit_brieskorn_matches_the_weight_space_route(orbit):
    a, support, allow = orbit
    assert outcome(mu_orbit_brieskorn, a, support, allow) == outcome(orbit_brieskorn_by_weights, a, support, allow)


def random_weight_vector(rng, max_entry=50, max_len=8):
    while True:
        n = rng.randint(2, max_len)
        w = [rng.randint(1, max_entry) for _ in range(n)]
        if math.gcd(*w) == 1:
            return w


def test_triple_agreement_random():
    rng = random.Random(40312)
    for _ in range(2000):
        n = rng.randint(3, 8)
        a = [rng.randint(2, 30) for _ in range(n + 1)]
        be = make_brieskorn_exponents(a)
        via_formula = mu_principal_brieskorn(be).index
        via_conversion = mu_principal(brieskorn_to_wci(be)).index
        via_lcm = 2 * math.lcm(*a) * (sum(Fraction(1, aj) for aj in a) - 1)
        assert via_formula == via_conversion == via_lcm


def test_loop_and_winding_bridge():
    for w in ([4, 4, 5, 14], [1, 1], [5, 5, 5, 2], [1, 2, 3, 4, 5]):
        space = make_weight_vector(w)
        b = b_constant(space)
        assert 2 * det_winding(w).winding == mu_principal(space).index
        assert det_winding(w).winding == b == sum(w)


def test_principal_loop_as_diagonal_path():
    # the principal orbit of P(w) is the diagonal loop with rates 2*w_j on
    # [0,1]; componentwise addition must reproduce the principal index
    for w in ([4, 4, 5, 14], [1, 1], [5, 5, 5, 2]):
        assert sum(scalar_cz(2 * wj) for wj in w) == mu_principal(make_weight_vector(w)).index


def test_brieskorn_stratum_identities_random():
    # for any support S of the converted weights: gcd_{j in S} (l/a_j) equals
    # l / lcm_{j in S} a_j, and the rational stratum formula matches the
    # integer arithmetic route through the reduced weights
    rng = random.Random(77077)
    for _ in range(2000):
        n = rng.randint(3, 8)
        a = [rng.randint(2, 30) for _ in range(n + 1)]
        be = make_brieskorn_exponents(a)
        w = brieskorn_to_wci(be).weights.w
        support = sorted(rng.sample(range(len(w)), rng.randint(1, len(w))))
        d = math.gcd(*(w[j] for j in support))
        l_s = math.lcm(*(a[j] for j in support))
        assert d == be.l // l_s
        rational_route = 2 * l_s * (sum(Fraction(1, a[j]) for j in support) - 1)
        integer_route = 2 * (sum(w[j] // d for j in support) - l_s)
        assert rational_route == integer_route


def test_nonprincipal_parity_and_consistency_random():
    rng = random.Random(55511)
    checked_parity = 0
    for _ in range(2000):
        w = random_weight_vector(rng)
        wv = make_weight_vector(w)
        k = rng.randint(1, len(w))
        support = sorted(rng.sample(range(len(w)), k))
        d = math.gcd(*(w[j] for j in support))
        if d == 1:
            report = mu_orbit_wps(wv, support)
            assert report.index == mu_principal(wv).index
            continue
        if len(support) >= 2:
            # the in-stratum term is itself a principal index of the reduced stratum
            in_stratum = 2 * sum(w[j] // d for j in support)
            reduced = make_weight_vector([w[j] // d for j in support])
            assert in_stratum == mu_principal(reduced).index
        try:
            report = mu_orbit_wps(wv, support)
        except UncoveredCaseError:
            continue
        if report.branch == Branch.NONPRINCIPAL_WPS and not report.extrapolated:
            transverse = len(w) - len(support)
            assert report.index % 2 == transverse % 2
            checked_parity += 1
    assert checked_parity > 50  # the sweep actually exercised the branch
