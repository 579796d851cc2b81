import math
import random
from fractions import Fraction

import pytest

from czorb.cz_indices import (
    Branch,
    b_constant,
    mu_orbit_brieskorn,
    mu_orbit_wps,
    mu_principal,
    mu_principal_brieskorn,
    orbit_spec,
)
from czorb.cz_paths import det_winding, scalar_cz
from czorb.errors import DomainError, UncoveredCaseError
from czorb.spaces import WPSpace, brieskorn_to_wci, make_brieskorn_exponents, make_wci_space
from czorb.weights import make_weight_vector


def wps(*w):
    return WPSpace(make_weight_vector(w))


def test_b_constant_examples():
    assert b_constant(wps(4, 4, 5, 14)) == 27
    assert b_constant(make_wci_space([5, 5, 5, 2], [10])) == 7
    assert b_constant(wps(1, 1, 1)) == 3


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


def test_orbit_spec_recomputes_isotropy():
    wv = make_weight_vector([4, 4, 5, 14])
    spec = orbit_spec(wv, [0, 1])
    assert spec.isotropy == 4
    assert orbit_spec(wv, [0, 1, 2, 3]).isotropy == 1
    with pytest.raises(DomainError):
        orbit_spec(wv, [])
    with pytest.raises(DomainError):
        orbit_spec(wv, [4])


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
        space = WPSpace(make_weight_vector(w))
        b = b_constant(space)
        assert 2 * det_winding(w).winding == mu_principal(space).index
        assert det_winding(w).winding == b == sum(w)


def test_principal_loop_as_diagonal_path():
    # the principal orbit of P(w) is the diagonal loop with rates 2*w_j on
    # [0,1]; componentwise addition must reproduce the principal index
    for w in ([4, 4, 5, 14], [1, 1], [5, 5, 5, 2]):
        assert sum(scalar_cz(2 * wj) for wj in w) == mu_principal(WPSpace(make_weight_vector(w))).index


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
            assert report.index == mu_principal(WPSpace(wv)).index
            continue
        if len(support) >= 2:
            # the in-stratum term is itself a principal index of the reduced stratum
            in_stratum = 2 * sum(w[j] // d for j in support)
            reduced = WPSpace(make_weight_vector([w[j] // d for j in support]))
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
