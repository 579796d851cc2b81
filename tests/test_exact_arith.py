import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czorb.errors import DomainError
from czorb.exact_arith import Factorization, factorize, is_prime, ord_p


def naive_factor(n: int) -> list[tuple[int, int]]:
    """Plain trial-division oracle, no wheel."""
    pairs = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            pairs.append((d, e))
        d += 1
    if n > 1:
        pairs.append((n, 1))
    return pairs


def test_factorize_examples():
    assert factorize(10).pairs == ((2, 1), (5, 1))
    assert factorize(1).pairs == ()
    assert factorize(1120).pairs == tuple(naive_factor(1120))
    assert factorize(1120).pairs == ((2, 5), (5, 1), (7, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(DomainError):
        factorize(-12)


def test_factorization_accessors():
    f = factorize(1120)
    assert f.value() == 1120
    assert f.ord(2) == 5
    assert f.ord(3) == 0


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_factorize_reconstructs(n):
    f = factorize(n)
    assert f.value() == n
    primes = [p for p, _ in f.pairs]
    assert primes == sorted(primes)
    assert len(set(primes)) == len(primes)
    assert all(is_prime(p) for p in primes)
    assert all(e >= 1 for _, e in f.pairs)


def test_ord_p_examples():
    assert ord_p(8, 2) == 3
    assert ord_p(10, 5) == 1
    assert ord_p(7, 2) == 0


def test_ord_p_rejects_composite_p():
    with pytest.raises(DomainError):
        ord_p(8, 4)
    with pytest.raises(DomainError):
        ord_p(8, 1)


@given(st.lists(st.integers(1, 5000), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_lcm_takes_max_valuation(xs):
    l = math.lcm(*xs)
    seen = set()
    for x in xs:
        for p, _ in factorize(x).pairs:
            seen.add(p)
    for p in seen:
        assert ord_p(l, p) == max(ord_p(x, p) for x in xs)


def test_factorization_is_frozen():
    f = factorize(6)
    with pytest.raises(AttributeError):
        f.pairs = ()
    assert f == Factorization(((2, 1), (3, 1)))
