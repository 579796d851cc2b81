import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import czorb
from czorb.errors import DomainError
from czorb.spaces import (
    WPSpace,
    brieskorn_to_wci,
    check_theorem_hypotheses,
    compute_l2,
    make_brieskorn_exponents,
    make_wci_space,
)
from czorb.weights import invariants, make_weight_vector


def test_compute_l2_examples():
    assert compute_l2([4, 4, 4]) == 4
    assert compute_l2([2, 3, 5, 7]) == 1
    assert compute_l2([2, 4, 8]) == 4
    assert compute_l2([12, 12, 5]) == 12  # tied maximum at 2 and 3
    assert compute_l2([8, 8, 8, 3]) == 8  # tied maximum; 3 divides one entry
    assert compute_l2([2, 3, 5, 49]) == 1  # each prime divides one entry
    assert compute_l2([4, 6, 9, 10]) == 6  # 5 divides one entry
    assert compute_l2([7]) == 1
    for c in (2, 360, 2 * 3 * 5 * 7 * 11):  # constant vectors: l2 = lcm
        assert compute_l2([c] * 3) == c


def test_compute_l2_rejects_bad_input():
    with pytest.raises(DomainError):
        compute_l2([])
    with pytest.raises(DomainError):
        compute_l2([1, 2, 3])


def brute_force_l2(a) -> int:
    """Second-largest p-adic valuation per prime of lcm(a), by trial and
    repeated division, with no helper from czorb."""
    primes = set()
    for x in a:
        p = 2
        while p * p <= x:
            while x % p == 0:
                primes.add(p)
                x //= p
            p += 1
        if x > 1:
            primes.add(x)
    l2 = 1
    for p in primes:
        vals = []
        for x in a:
            v = 0
            while x % p == 0:
                x //= p
                v += 1
            vals.append(v)
        vals.sort(reverse=True)
        if len(vals) > 1:
            l2 *= p ** vals[1]
    return l2


_prime_powers = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 3)), min_size=1, max_size=3
).map(lambda pes: math.prod(p**e for p, e in pes))
l2_vectors = st.lists(_prime_powers.filter(lambda x: x >= 2), min_size=1, max_size=8)


@given(l2_vectors)
@settings(max_examples=300)
def test_compute_l2_matches_brute_force_valuations(a):
    assert compute_l2(a) == brute_force_l2(a)


def test_compute_l2_of_large_primes_needs_no_factoring():
    # Each of four primes near 10**12 divides two entries, so l2 = p*q*r*s.
    # Run in a child so that a factoring regression times out, not hangs.
    p, q, r, s = 999999999989, 999999999959, 999999999937, 1000000000039
    probe = f"from czorb.spaces import compute_l2; print(compute_l2([{p * q}, {p * r}, {q * s}, {r * s}]))"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(czorb.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=20)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == p * q * r * s


def test_make_brieskorn_exponents():
    be = make_brieskorn_exponents([2, 2, 2, 5])
    assert be.l == 10
    assert be.l2 == 2
    with pytest.raises(DomainError):
        make_brieskorn_exponents([2, 2, 5])  # too short
    with pytest.raises(DomainError):
        make_brieskorn_exponents([1, 2, 2, 2])  # exponent 1 is a coordinate change


def test_brieskorn_to_wci_examples():
    wci = brieskorn_to_wci(make_brieskorn_exponents([2, 2, 2, 5]))
    assert wci.weights.w == (5, 5, 5, 2)
    assert wci.degrees == (10,)

    wci = brieskorn_to_wci(make_brieskorn_exponents([3, 3, 3, 3]))
    assert wci.weights.w == (1, 1, 1, 1)
    assert wci.degrees == (3,)

    wci = brieskorn_to_wci(make_brieskorn_exponents([2, 3, 5, 7]))
    assert wci.weights.w == (105, 70, 42, 30)
    assert wci.degrees == (210,)


def test_wci_codimension_bound():
    with pytest.raises(DomainError):
        make_wci_space([1, 1, 1, 1], [2, 2])  # r=2 > n-2=1
    ok = make_wci_space([1, 1, 1, 1, 1], [2, 2])  # r=2 <= n-2=2
    assert ok.r == 2
    with pytest.raises(DomainError):
        make_wci_space([1, 1, 1, 1], [])
    with pytest.raises(DomainError):
        make_wci_space([1, 1, 1, 1], [0])


def test_check_theorem_hypotheses_wps():
    report = check_theorem_hypotheses(WPSpace(make_weight_vector([4, 4, 5, 14])))
    assert report.b == 27
    assert report.simply_connected is True
    assert report.manifold_condition == "assumed, not checked"


def test_check_theorem_hypotheses_wci():
    report = check_theorem_hypotheses(make_wci_space([5, 5, 5, 2], [10]))
    assert report.b == 7
    assert report.simply_connected is True


def random_exponents(rng: random.Random) -> list[int]:
    n = rng.randint(3, 8)
    return [rng.randint(2, 30) for _ in range(n + 1)]


def test_converted_weights_properties_random():
    rng = random.Random(20817)
    for _ in range(2000):
        a = random_exponents(rng)
        be = make_brieskorn_exponents(a)
        wci = brieskorn_to_wci(be)
        assert math.gcd(*wci.weights.w) == 1
        assert be.l % be.l2 == 0
        inv = invariants(wci.weights)
        assert inv.a_w == be.l // be.l2
        assert inv.well_formed == (be.l == be.l2)
