"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every check is exact unless a tolerance is stated inline.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from czorb.cli import main
from czorb.cz_indices import Branch, mu_orbit_wps, mu_principal, mu_principal_brieskorn
from czorb.cz_paths import crossing_oracle_scalar, det_winding, scalar_cz
from czorb.errors import UncoveredCaseError
from czorb.numeric_verify import area_chain, chart_integral
from czorb.orbifold_topology import (
    teardrop_cohomology,
    teardrop_homology,
    teardrop_orbifold_chern,
)
from czorb.spaces import brieskorn_to_wci, make_brieskorn_exponents
from czorb.weights import invariants, make_weight_vector


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {description}")
        raise
    print(f"PASS  criterion {number:2d}: {description}")


def cli_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code}"
    return json.loads(out)


def random_gcd1_vector(rng, max_len=8, max_entry=200):
    while True:
        w = [rng.randint(1, max_entry) for _ in range(rng.randint(2, max_len))]
        if math.gcd(*w) == 1:
            return w


def random_exponents(rng):
    n = rng.randint(3, 8)
    return [rng.randint(2, 30) for _ in range(n + 1)]


def test_criterion_1_wps_worked_example(capsys):
    with criterion(1, "orbit index of support {0,1} in P(4,4,5,14) is exactly 8 (CLI)"):
        payload = cli_json(capsys, "cz", "orbit", "--wps", "4,4,5,14", "--support", "0,1")
        assert payload["index"] == 8
        assert mu_orbit_wps([4, 4, 5, 14], [0, 1]).index == 8


def test_criterion_2_brieskorn_worked_example(capsys):
    with criterion(2, "Brieskorn (2,2,2,5): principal index 14, support {0,1,2} index 3"):
        principal = cli_json(capsys, "cz", "principal", "--brieskorn", "2,2,2,5")
        assert principal["index"] == 14
        orbit = cli_json(capsys, "cz", "orbit", "--brieskorn", "2,2,2,5", "--support", "0,1,2")
        assert orbit["index"] == 3


def test_criterion_3_triple_formula_agreement():
    with criterion(3, "three principal-index routes agree on 10^4 random exponent vectors, < 10 s"):
        rng = random.Random(100301)
        start = time.monotonic()
        for _ in range(10_000):
            a = random_exponents(rng)
            be = make_brieskorn_exponents(a)
            via_formula = mu_principal_brieskorn(be).index
            via_conversion = mu_principal(brieskorn_to_wci(be)).index
            via_lcm = 2 * math.lcm(*a) * (sum(Fraction(1, x) for x in a) - 1)
            assert via_formula == via_conversion == via_lcm, a
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.1f} s"


def test_criterion_4_a_w_equals_l_over_l2():
    with criterion(4, "a_w of the converted weights equals l/l2 on 10^4 random exponent vectors"):
        rng = random.Random(100401)
        for _ in range(10_000):
            be = make_brieskorn_exponents(random_exponents(rng))
            inv = invariants(brieskorn_to_wci(be).weights)
            assert be.l % be.l2 == 0
            assert inv.a_w == be.l // be.l2, be.a


def test_criterion_5_well_formedness_equivalences():
    with criterion(5, "well-formedness equivalences and divisibility on 10^4 random weight vectors"):
        rng = random.Random(100501)
        for _ in range(10_000):
            wv = make_weight_vector(random_gcd1_vector(rng))
            inv = invariants(wv)
            assert all(dj == 1 for dj in inv.d) == (inv.a_w == 1)
            assert all(wj % ej == 0 for wj, ej in zip(wv.w, inv.e))
            assert invariants(inv.reduced).well_formed


def test_criterion_6_scalar_oracle():
    with criterion(6, "crossing enumeration equals the scalar closed form on 10^3 random rationals"):
        rng = random.Random(100601)
        for _ in range(1000):
            T = Fraction(rng.randint(1, 400), rng.randint(1, 40))
            assert crossing_oracle_scalar(T) == scalar_cz(T), T


def test_criterion_7_winding_bridge():
    with criterion(7, "det winding equals |w| (residual < 0.01) and doubles to the principal index, 200 vectors"):
        rng = random.Random(100701)
        for _ in range(200):
            w = random_gcd1_vector(rng)
            result = det_winding(w)
            assert result.winding == sum(w)
            assert result.residual < 0.01
            assert 2 * result.winding == mu_principal(make_weight_vector(w)).index


def test_criterion_8_quadrature_and_chain():
    with criterion(8, "chart quadrature within 1e-8 of -1/w0 (55 pairs, <= 1e6 evals); exact chain to -1/||w||"):
        rng = random.Random(100801)
        pairs = [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(50)]
        pairs += [(1, 10**10), (10**6, 1), (3, 10**12), (1, 10**300), (2**1023, 1)]
        for w0, w1 in pairs:
            result = chart_integral(w0, w1, 1e-8)
            assert abs(result.value - (-1.0 / w0)) <= 1e-8, (w0, w1)
            assert result.evaluations <= 10**6
        for _ in range(200):
            w = random_gcd1_vector(rng)
            assert area_chain(w) == Fraction(-1, math.prod(w))


def test_criterion_9_teardrop_tables():
    with criterion(9, "teardrop tables match entry-for-entry for m in {2,3,5,12}, q <= 12; Chern = 1 + 1/m"):
        for m in (2, 3, 5, 12):
            zm = f"Z_{m}"
            expected_h = ["Z", "0", "Z", zm, "0", zm, "0", zm, "0", zm, "0", zm, "0"]
            expected_c = ["Z", "0", "Z", "0", zm, "0", zm, "0", zm, "0", zm, "0", zm]
            assert [str(teardrop_homology(m, q)) for q in range(13)] == expected_h
            assert [str(teardrop_cohomology(m, q)) for q in range(13)] == expected_c
            assert teardrop_orbifold_chern(m) == 1 + Fraction(1, m)


def test_criterion_10_index_consistency_invariants():
    with criterion(10, "stratum-reduction consistency and parity invariants on 10^4 random (w, S) draws"):
        rng = random.Random(101001)
        parity_checked = 0
        for _ in range(10_000):
            w = random_gcd1_vector(rng, max_entry=50)
            wv = make_weight_vector(w)
            support = sorted(rng.sample(range(len(w)), rng.randint(1, len(w))))
            d = math.gcd(*(w[j] for j in support))
            if len(support) >= 2:
                in_stratum = 2 * sum(w[j] // d for j in support)
                reduced = make_weight_vector([w[j] // d for j in support])
                assert in_stratum == mu_principal(reduced).index
            try:
                report = mu_orbit_wps(wv, support)
            except UncoveredCaseError:
                continue
            if d == 1:
                assert report.index == mu_principal(wv).index
                assert report.branch == Branch.PRINCIPAL_WPS
            elif report.branch == Branch.NONPRINCIPAL_WPS and not report.extrapolated:
                assert report.index % 2 == (len(w) - len(support)) % 2
                parity_checked += 1
        assert parity_checked > 100
