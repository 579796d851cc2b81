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
For length-2 vectors the "omit one" folds degenerate to the single remaining
element: d_0 = w_1, d_1 = w_0, e_0 = d_1, e_1 = d_0.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

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


def _omit_one_folds(values: tuple[int, ...], fold, unit: int) -> tuple[int, ...]:
    """For every j, the fold of all entries except values[j].

    A prefix scan and a suffix scan give out[j] = fold(prefix[j], suffix[j+1])
    in O(n) fold calls. `unit` is the fold's identity (0 for gcd, 1 for lcm),
    so a length-2 input gives each entry the other one.
    """
    n = len(values)
    suffix = [unit] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = fold(values[j], suffix[j + 1])
    out = []
    prefix = unit
    for j in range(n):
        out.append(fold(prefix, suffix[j + 1]))
        prefix = fold(prefix, values[j])
    return tuple(out)


def invariants(wv: WeightVector) -> WeightInvariants:
    """Compute all derived invariants of a weight vector.

    The omit-one folds d and e each take O(n) gcd/lcm calls, from one prefix
    and one suffix scan.
    """
    w = wv.w
    d = _omit_one_folds(w, math.gcd, 0)
    e = _omit_one_folds(d, math.lcm, 1)
    a_w = math.lcm(*d)

    reduced_entries = []
    for wj, ej in zip(w, e):
        if wj % ej != 0:
            # Mathematically impossible for a valid weight vector; treated as
            # an internal inconsistency rather than silently truncated.
            raise AssertionError(f"e_j={ej} does not divide w_j={wj} in {w}")
        reduced_entries.append(wj // ej)
    reduced = make_weight_vector(reduced_entries)

    well_formed = all(dj == 1 for dj in d)
    assert well_formed == (a_w == 1), f"well-formedness characterizations disagree on {w}"

    return WeightInvariants(
        sum=sum(w),
        product=math.prod(w),
        d=d,
        e=e,
        a_w=a_w,
        reduced=reduced,
        well_formed=well_formed,
    )


def symplectic_area(wv: WeightVector) -> Fraction:
    """Pairing of the quotient symplectic class with the generating sphere:
    exactly -1 / (product of weights)."""
    return Fraction(-1, math.prod(wv.w))
