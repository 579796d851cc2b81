"""Conley-Zehnder index of the scalar unitary path, and its oracles.

The closed form for the unit-rate scalar path t -> exp(i*pi*t) on [0, T] is

    T               if T is an even integer,
    2*floor(T/2)+1  otherwise,

and a path of rate lambda on [0, T] reparametrizes to the unit-rate path on
[0, lambda*T]; scalar_index computes it in integers for T = num/den. Two
independent oracles live here as well:

- crossing enumeration for the scalar formula: every crossing time is
  visited, so the count does not use the floor formula;
- determinant winding for loops of diagonal unitaries: the product of one
  root of unity per rate is formed on one fold of [0, 1] and its phase
  unwrapped. Every factor is multiplied at every formed sample, and the
  closed form, the sum of the signed rates, is never computed.

The fold rule. An integer-rate loop P(t) = prod_j exp(2*pi*i*r_j*t),
sampled at t = k/N with 4 | N, has the exact symmetries
P(t + 1/4) = c * P(t) and P(1/4 - t) = c * conj(P(t)) with
c = i**sum(r_j), which is +-1 or +-i: a sign or a swap of the parts, exact
in floats. The shift makes the phase increments arg(P_k / P_{k-1})
periodic with period L = N/4, and the reflection makes the increments
within one period a palindrome; c cancels in every increment and is never
needed. So the products are formed at k = 0..ceil(L/2) only, on [0, 1/8].
The shift by 1/8 is not used: its c = exp(i*pi*sum(r_j)/4) is not exact in
floats, and a shift carried to its end leaves the single increment
N * arg(prod_j exp(2*pi*i*r_j/N)) / (2*pi), the sum of the rates in
disguise. Likewise the root table computes one octant and fills the rest
by exact swaps and mirrors, so every product the kernel skips is exactly
c * P_k or c * conj(P_k) for a product P_k it forms.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .errors import DEFAULT_EVAL_BUDGET, ConvergenceError, DomainError, check_budget, check_ints, is_int, to_float
from .record import Record

RationalLike = Fraction | int


def _positive_duration(T: RationalLike, op: str) -> tuple[int, int]:
    """(numerator, denominator) of T, a positive integer or Fraction."""
    if not (is_int(T) or isinstance(T, Fraction)):
        raise DomainError(f"{op} requires a duration that is an integer or a Fraction, got {T!r}")
    num, den = T.numerator, T.denominator
    if num <= 0:
        raise DomainError(f"{op} requires a positive duration, got {Fraction(num, den)}")
    return num, den


def scalar_index(num: int, den: int) -> int:
    """The scalar closed form for the duration T = num/den > 0, in integers.

    With num = q*(2*den) + r, the form is 2*q when r == 0, which happens
    exactly when T is the even integer 2*q, and 2*q + 1 otherwise, so the
    pair need not be in lowest terms. No validation: see scalar_cz.
    """
    q, r = divmod(num, 2 * den)
    return 2 * q + (r != 0)


def scalar_cz(T: RationalLike) -> int:
    """Index of the unit-rate scalar path on [0, T]."""
    return scalar_index(*_positive_duration(T, "scalar_cz"))


def crossing_oracle_scalar(T: RationalLike, eval_budget: int = DEFAULT_EVAL_BUDGET) -> int:
    """Crossing enumeration oracle for scalar_cz.

    The unit-rate path meets 1 exactly at even integer times. Each endpoint
    crossing contributes half of a +2 signature, each interior crossing the
    full +2. Exact integer arithmetic, still an enumeration of crossings:
    with T = num/den, the crossing at time 2k is visited as 2*k*den <= num,
    so the count stays independent of the closed form. More than
    `eval_budget` crossings raise DomainError before the first is visited;
    the count num // (2*den) + 1 only gates the call.
    """
    num, den = _positive_duration(T, "crossing_oracle_scalar")
    step = 2 * den
    # The count may have too many digits to print, so the refusal omits it.
    check_budget(num // step + 1, eval_budget, "crossing_oracle_scalar needs more crossings")
    index = 0
    for t in range(0, num + 1, step):  # t = 2*k*den for the k-th crossing
        index += 1 if t == 0 or t == num else 2
    return index


class WindingResult(Record):
    __slots__ = ("winding", "residual", "samples")


def _strided(table: list, start: int, step: int, count: int) -> list:
    """table[(start + i*step) % len(table)] for i in range(count), gathered
    by slices that wrap around the end of the table; step != 0."""
    n = len(table)
    out = []
    while len(out) < count:
        first = (start + len(out) * step) % n
        stop = first + (count - len(out)) * step
        out += table[first:stop if stop >= 0 else None:step]
    return out


def _roots(n: int) -> list:
    """The N-th roots of unity, root[m] = exp(2*pi*i*m/N) for m = 0..N-1,
    4 | N, built for the fold rule of the module docstring.

    Only the first octant costs cos/sin pairs, m = 0..floor(N/8). When
    8 | N, root[N/8] is set to complex(sqrt(1/2), sqrt(1/2)), which is its
    own swap; cmath.rect leaves its two parts an ulp apart. The rest of the
    quadrant is the exact swap root[N/4 - m] = 1j * conj(root[m]), equal to
    complex(root[m].imag, root[m].real) since each part is a product by 0
    or 1 plus a zero (and cheaper to form), which makes root[N/4] exactly
    1j. The exact mirrors root[N/2 - m] = -conj(root[m]) and
    root[m + N/2] = -root[m] complete the table; root[m + N/4] then equals
    complex(-root[m].imag, root[m].real) exactly, i * root[m] as a swap and
    negation, and root[N - m] equals conj(root[m]) exactly.
    """
    quarter = n // 4
    count = quarter // 2 + 1
    step = 2.0 * math.pi / n
    head = [cmath.rect(1.0, step * m) for m in range(count)]
    if n % 8 == 0:
        head[-1] = complex(math.sqrt(0.5), math.sqrt(0.5))
    head += [1j * z.conjugate() for z in reversed(head[: quarter - count + 1])]
    head += [-z.conjugate() for z in reversed(head[1:quarter])]
    return head + [-z for z in head]


def unwrapped_winding_phase(rates, samples: int) -> float:
    """Total unwrapped phase of t -> prod_j exp(2*pi*i*r_j*t) over [0, 1].

    Samples the product at the points t = k/N, k = 0..N with N = samples,
    which 4 must divide, folded by the rule of the module docstring: the
    product is formed, factor by factor, only at k = 0..ceil(L/2) with
    L = N/4. Each factor is read from one table of the N-th roots of unity,
    `_roots`: rate r at sample k is root[(r*k) % N], an exact integer
    reduction. Increments 1..floor(L/2) count twice, for odd L the middle
    increment, its own mirror, once, and the period's sum counts 4 times.

    Beside the N-entry root table, each rate's column and the products hold
    ceil(L/2) entries; the increments are added with one math.fsum. The
    caller gives integer rates, at least one, and a sampling dense enough
    that the true step between consecutive samples stays below pi.
    """
    n = samples
    period = n // 4
    half = period // 2
    last = period - half  # ceil(L/2), the last sample whose product is formed
    roots = _roots(n)
    prod = None
    for r in rates:
        column = _strided(roots, r, r, last) if r else [roots[0]] * last
        prod = column if prod is None else list(map(operator.mul, prod, column))
    steps = list(map(cmath.phase, map(operator.truediv, prod, itertools.chain((roots[0],), prod))))
    middle = steps.pop() if last > half else 0.0  # odd L: the middle increment
    return 4 * (2.0 * math.fsum(steps) + middle)


def det_winding(integer_rates: Iterable[int], eval_budget: int = DEFAULT_EVAL_BUDGET) -> WindingResult:
    """Winding number of the determinant loop t -> prod_j exp(2*pi*i*r_j*t)
    on [0, 1], extracted by sampling and phase unwrapping.

    The check is independent of the closed form sum(r_j): the kernel,
    `unwrapped_winding_phase`, multiplies one unit complex number per rate at
    every sample of one fold of [0, 1] and unwraps the phase of the product,
    and the winding is the rounded number of turns. The signed sum of the
    rates is never computed; only sum(|r_j|) enters, as the sample count.
    The fold (module docstring) holds because the rates are integers, as
    checked here.

    The sample count is 4*sum(|r_j|) + 16, a multiple of 4 that keeps the
    true phase step between samples below pi and makes the unwrap exact up
    to rounding; it is reported with the pre-rounding residual. A rate too
    large to convert to float, a budget that is not an integer, and
    samples * len(rates) over `eval_budget` each raise DomainError before
    anything is sampled or allocated.
    """
    rates = check_ints("det_winding rates", integer_rates)
    if not rates:
        raise DomainError("det_winding requires at least one rate")
    for r in rates:
        to_float("det_winding rate", r)
    samples = 4 * sum(abs(r) for r in rates) + 16
    # Every rate passed to_float, so samples has too few digits to fail str().
    work = f"det_winding needs more evaluations ({len(rates)} rates x {samples} samples)"
    check_budget(samples * len(rates), eval_budget, work)
    total = unwrapped_winding_phase(rates, samples)
    turns = total / (2.0 * math.pi)
    winding = round(turns)
    residual = abs(turns - winding)
    if residual > 0.01:
        raise ConvergenceError(f"phase unwrap residual {residual:.4f} exceeds 0.01", achieved_error=residual)
    return WindingResult(winding=winding, residual=residual, samples=samples)
