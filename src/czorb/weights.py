"""Weight vectors for weighted projective spaces and their derived invariants.

A weight vector is a list (w_0, ..., w_n) of positive integers, n >= 1, with
gcd 1 overall. From it we derive:

  sum      w_0 + ... + w_n
  product  w_0 * ... * w_n
  d_j      gcd of all weights except w_j
  e_j      lcm of all d_i except d_j
  a_w      lcm of all d_j
  reduced  (w_0/e_0, ..., w_n/e_n)

The space is well-formed exactly when every d_j = 1, equivalently a_w = 1.
As gcd(w) = 1, the d_j are pairwise coprime (a prime dividing d_i and d_j,
i != j, would divide every weight), so a_w is their product and e_j = a_w/d_j;
a WeightVector built by hand with gcd > 1 is outside this contract. For
length-2 vectors, d_0 = w_1, d_1 = w_0, e_0 = d_1 and e_1 = d_0.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError, NonCoprimeError, as_tuple, check_ints
from .record import Record


class WeightVector(Record):
    """Validated weight vector; construct through make_weight_vector."""

    __slots__ = ("w",)

    @property
    def n(self) -> int:
        """Complex dimension of the ambient space (one less than the length)."""
        return len(self.w) - 1

    def __len__(self) -> int:
        return len(self.w)

    def __iter__(self):
        return iter(self.w)

    def __getitem__(self, j: int) -> int:
        return self.w[j]


class WeightInvariants(Record):
    __slots__ = ("sum", "product", "d", "e", "a_w", "reduced", "well_formed")


def make_weight_vector(raw: Iterable[int]) -> WeightVector:
    """Validate and freeze a weight vector; a WeightVector is returned as is.

    Raises DomainError for an argument that is not iterable, lengths < 2 or
    non-positive entries, and NonCoprimeError (carrying the gcd) when the
    entries share a factor.
    """
    if isinstance(raw, WeightVector):
        return raw
    w = as_tuple("weights", raw)
    if len(w) < 2:
        raise DomainError(f"a weight vector needs at least 2 entries, got {len(w)}")
    check_ints("weights", w, 1)
    g = math.gcd(*w)
    if g != 1:
        raise NonCoprimeError(g, w)
    return WeightVector(w)


def invariants(wv: WeightVector | Iterable[int]) -> WeightInvariants:
    """Compute all derived invariants of a weight vector, given as a
    WeightVector or its entries (see make_weight_vector).

    d comes from one prefix and one suffix gcd scan, and e_j = a_w // d_j,
    since make_weight_vector's gcd(w) = 1 makes the d_j pairwise coprime.
    """
    w = make_weight_vector(wv).w
    suffix = list(accumulate(reversed(w), math.gcd, initial=0))
    d = tuple(map(math.gcd, accumulate(w, math.gcd, initial=0), suffix[-2::-1]))
    a_w = math.lcm(*d)
    e = tuple(map(a_w.__floordiv__, d))
    quotients, remainders = zip(*map(divmod, w, e))
    if any(remainders):  # impossible (lcm(d)/d_j divides w_j): a fault, not a truncation
        raise AssertionError(f"e={e} does not divide w={w}")
    reduced = make_weight_vector(quotients)

    return WeightInvariants(
        sum=sum(w),
        product=math.prod(w),
        d=d,
        e=e,
        a_w=a_w,
        reduced=reduced,
        well_formed=a_w == 1,
    )


def symplectic_area(wv: WeightVector | Iterable[int]) -> Fraction:
    """Pairing of the quotient symplectic class with the generating sphere:
    exactly -1 / (product of weights)."""
    return Fraction(-1, math.prod(make_weight_vector(wv).w))
