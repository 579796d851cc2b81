"""Exact integer primitives: factorization and p-adic valuation.

Everything here runs on Python's native big integers, so there is no overflow
to guard against. Rational values throughout czorb are `fractions.Fraction`,
which keeps gcd(|num|, den) = 1 and den >= 1 by construction.
"""

from __future__ import annotations

from .errors import DomainError
from .record import Record


class Factorization(Record):
    """Prime factorization as (prime, exponent) pairs, ascending by prime."""

    __slots__ = ("pairs",)

    def value(self) -> int:
        """Reconstruct the factored integer."""
        n = 1
        for p, e in self.pairs:
            n *= p**e
        return n

    def ord(self, p: int) -> int:
        """Exponent of p in this factorization (0 if p does not occur)."""
        for q, e in self.pairs:
            if q == p:
                return e
        return 0


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality check."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0 or p % 3 == 0:
        return False
    d = 5
    while d * d <= p:
        if p % d == 0 or p % (d + 2) == 0:
            return False
        d += 6
    return True


def factorize(n: int) -> Factorization:
    """Factor a positive integer by trial division with a mod-6 wheel.

    factorize(1) is the empty product.
    """
    if n <= 0:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    pairs = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            e += 1
            n //= p
        if e:
            pairs.append((p, e))
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            if e:
                pairs.append((p, e))
        d += 6
    if n > 1:
        pairs.append((n, 1))
    return Factorization(tuple(pairs))


def ord_p(n: int, p: int) -> int:
    """Largest e with p**e dividing n (the p-adic valuation of n)."""
    if n < 1:
        raise DomainError(f"ord_p requires n >= 1, got {n}")
    if not is_prime(p):
        raise DomainError(f"ord_p requires a prime p, got {p}")
    e = 0
    while n % p == 0:
        e += 1
        n //= p
    return e

