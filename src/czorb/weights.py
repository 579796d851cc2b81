"""Weight vectors for weighted projective spaces and their derived invariants.

A weight vector is a list (w_0, ..., w_n) of positive integers, n >= 1, with
gcd 1 overall, as WeightVector's constructor checks. From it we derive:

  sum      w_0 + ... + w_n
  product  w_0 * ... * w_n
  d_j      gcd of all weights except w_j
  e_j      lcm of all d_i except d_j
  a_w      lcm of all d_j
  reduced  (w_0/e_0, ..., w_n/e_n)

The space is well-formed exactly when every d_j = 1, equivalently a_w = 1.
As gcd(w) = 1, the d_j are pairwise coprime (a prime dividing d_i and d_j,
i != j, would divide every weight), so a_w is their product and e_j = a_w/d_j.
For length-2 vectors, d_0 = w_1, d_1 = w_0, e_0 = d_1 and e_1 = d_0.

Long vectors take a few C-level passes: the gcd scans stop at the first
prefix of gcd 1, after which every d_j is 1, and the product splits a long
vector in halves, as math.prod's left-to-right product costs time quadratic
in the length.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import accumulate, takewhile
from operator import floordiv, mod

from .errors import DomainError, NonCoprimeError, as_tuple, check_ints
from .record import Record


class WeightVector(Record):
    """A weight vector; its constructor makes w a tuple of at least 2 positive
    integers, else DomainError, of gcd 1, else NonCoprimeError."""

    __slots__ = ("w",)

    @staticmethod
    def _check(w):
        w = as_tuple("weights", w)
        if len(w) < 2:
            raise DomainError(f"a weight vector needs at least 2 entries, got {len(w)}")
        if (g := math.gcd(*check_ints("weights", w, 1))) != 1:
            raise NonCoprimeError(g, w)
        return (w,)

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


def make_weight_vector(raw: WeightVector | Iterable[int]) -> WeightVector:
    """A WeightVector as is, or the WeightVector of the entries `raw`."""
    return raw if isinstance(raw, WeightVector) else WeightVector(raw)


def invariants(wv: WeightVector | Iterable[int]) -> WeightInvariants:
    """Compute all derived invariants of a weight vector, given as a
    WeightVector or its entries (see make_weight_vector).

    d_j is the gcd of the prefix gcd P_j = gcd(w_0..w_{j-1}) and the suffix
    gcd gcd(w_{j+1}..). The prefix scan stops at q, its first P_q = 1; every
    later d_j is 1, so the suffix scan covers only w_1..w_{q-1}, starting
    from gcd(w_q..), and a_w is the lcm of d_0..d_{q-1}. e_j = a_w // d_j,
    since a WeightVector's gcd(w) = 1 makes the d_j pairwise coprime.
    When a_w = 1, e is d and the vector is its own reduction; otherwise each
    w_j/e_j divides w_j, so w/e has gcd 1 and is built unchecked.
    """
    wv = make_weight_vector(wv)
    w = wv.w
    prefix = list(takewhile((1).__ne__, accumulate(w, math.gcd, initial=0)))
    q = len(prefix)
    suffix = list(accumulate(reversed(w[1:q]), math.gcd, initial=math.gcd(*w[q:])))
    head = tuple(map(math.gcd, prefix, reversed(suffix)))
    a_w = math.lcm(*head)
    d = head + (1,) * (len(w) - q)
    if a_w == 1:
        e, reduced = d, wv
    else:
        e = tuple(map(a_w.__floordiv__, head)) + (a_w,) * (len(w) - q)
        if any(map(mod, w, e)):  # impossible (lcm(d)/d_j divides w_j): a fault, not a truncation
            raise AssertionError(f"e={e} does not divide w={w}")
        reduced = WeightVector._unchecked(tuple(map(floordiv, w, e)))

    return WeightInvariants(
        sum=sum(w),
        product=_product(w),
        d=d,
        e=e,
        a_w=a_w,
        reduced=reduced,
        well_formed=a_w == 1,
    )


def _product(w: tuple[int, ...]) -> int:
    """math.prod(w), with a vector of more than 128 entries split in halves,
    so that the big factors meet in a few balanced multiplications. Up to
    that length math.prod alone costs no more."""
    if len(w) <= 128:
        return math.prod(w)
    half = len(w) // 2
    return _product(w[:half]) * _product(w[half:])


def symplectic_area(wv: WeightVector | Iterable[int]) -> Fraction:
    """Pairing of the quotient symplectic class with the generating sphere:
    exactly -1 / (product of weights)."""
    return Fraction(-1, _product(make_weight_vector(wv).w))
