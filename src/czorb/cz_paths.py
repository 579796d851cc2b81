"""Conley-Zehnder index of the scalar unitary path, and its oracles.

The closed form for the unit-rate scalar path t -> exp(i*pi*t) on [0, T] is

    T               if T is an even integer,
    2*floor(T/2)+1  otherwise,

and a path of rate lambda on [0, T] reparametrizes to the unit-rate path on
[0, lambda*T]. Two independent oracles live here as well:

- crossing enumeration for the scalar formula: every crossing time is
  visited, so the count does not use the floor formula;
- determinant winding for loops of diagonal unitaries: the product of one
  root of unity per rate is formed at every sample of [0, 1/2] and its
  phase unwrapped. For integer rates the loop P(t) is its own conjugate
  mirror, P(1 - t) = conj(P(t)), so the increments on [1/2, 1] repeat those
  on [0, 1/2]; likewise the root table computes half of its entries and
  mirrors the rest. The roots come from one table indexed by an exact
  integer reduction, but the closed form, the sum of the signed rates, is
  never computed.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .errors import ConvergenceError, DomainError, check_int, check_ints, is_int, to_float
from .numeric_verify import DEFAULT_EVAL_BUDGET
from .record import Record

RationalLike = Fraction | int


def _positive_duration(T: RationalLike, op: str) -> Fraction:
    if not (is_int(T) or isinstance(T, Fraction)):
        raise DomainError(f"{op} requires a duration that is an integer or a Fraction, got {T!r}")
    T = Fraction(T)
    if T <= 0:
        raise DomainError(f"{op} requires a positive duration, got {T}")
    return T


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
    T = _positive_duration(T, "scalar_cz")
    return scalar_index(T.numerator, T.denominator)


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
    T = _positive_duration(T, "crossing_oracle_scalar")
    num, den = T.numerator, T.denominator
    step = 2 * den
    if num // step + 1 > check_int("evaluation budget", eval_budget):
        # The count may have too many digits to print.
        raise DomainError(f"crossing_oracle_scalar needs more crossings than the evaluation budget {eval_budget}")
    index = 0
    t = 0  # 2*k*den for the k-th crossing
    while t <= num:
        if t == 0 or t == num:
            index += 1
        else:
            index += 2
        t += step
    return index


class WindingResult(Record):
    __slots__ = ("winding", "residual", "samples")

    def __init__(self, winding: int, residual: float, samples: int):
        object.__setattr__(self, "winding", winding)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "samples", samples)


# Samples per block: the root table is the only list of the sample count's size.
_BLOCK = 4096


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


def unwrapped_winding_phase(rates, samples: int) -> float:
    """Total unwrapped phase of t -> prod_j exp(2*pi*i*r_j*t) over [0, 1].

    Samples the product at the points t = k/N, k = 0..N with N = samples.
    Each factor is read from one table of the N-th roots of unity: rate r at
    sample k is root[(r*k) % N], an exact integer reduction. Only the first
    floor(N/2) + 1 roots cost a cos/sin pair; the rest of the table is their
    exact conjugate mirror, root[N - m] = conj(root[m]).

    For integer rates the loop reflects onto itself: P(1 - t) = conj(P(t)),
    so the phase increment arg(P_k / P_{k-1}) at sample N - k + 1 equals the
    one at sample k. The product is therefore formed, factor by factor, only
    at the samples k = 0..ceil(N/2) on [0, 1/2]; increments 1..floor(N/2)
    count twice, and for odd N the middle increment, its own mirror, once.
    The rates are never added. The increments are added with math.fsum, one
    block of samples at a time. The caller gives integer rates, at least one,
    and a sampling dense enough that the true step between consecutive
    samples stays below pi.
    """
    n = samples
    half = n // 2
    last = n - half  # ceil(N/2), the last sample whose product is formed
    angle = 2.0 * math.pi / n
    head = list(map(cmath.rect, itertools.repeat(1.0, half + 1), map(angle.__mul__, range(half + 1))))
    roots = head + [z.conjugate() for z in reversed(head[1:last])]
    block_sums = []
    middle = 0.0
    prev = roots[0]  # P_0 = 1
    for k0 in range(1, last + 1, _BLOCK):
        count = min(_BLOCK, last + 1 - k0)
        prod = None
        for r in rates:
            values = _strided(roots, r * k0, r, count) if r else [roots[0]] * count
            prod = values if prod is None else list(map(operator.mul, prod, values))
        steps = list(map(cmath.phase, map(operator.truediv, prod, itertools.chain((prev,), prod))))
        if k0 + count - 1 > half:  # odd N: this block ends at the middle sample
            middle = steps.pop()
        block_sums.append(math.fsum(steps))
        prev = prod[-1]
    return 2.0 * math.fsum(block_sums) + middle


def det_winding(
    integer_rates: Iterable[int], samples: int | None = None, eval_budget: int = DEFAULT_EVAL_BUDGET
) -> WindingResult:
    """Winding number of the determinant loop t -> prod_j exp(2*pi*i*r_j*t)
    on [0, 1], extracted by sampling and phase unwrapping.

    The check is independent of the closed form sum(r_j): the kernel,
    `unwrapped_winding_phase`, multiplies one unit complex number per rate at
    every sample of [0, 1/2] and unwraps the phase of the product, and the
    winding is the rounded number of turns. The signed sum of the rates is
    never computed; only sum(|r_j|) enters, as the sample count. What the
    kernel relies on is the reflection P(1 - t) = conj(P(t)), which holds
    because the rates are integers, as checked here: the increments on
    [1/2, 1] are those on [0, 1/2], counted a second time.

    `samples` defaults to the minimum 4*sum(|r_j|) + 16, which keeps the true
    phase step between samples below pi and makes the unwrap exact up to
    rounding. The pre-rounding residual is reported alongside the integer.
    A rate too large to convert to float, a sample count or budget that is
    not an integer, a sample count below the minimum, and
    samples * len(rates) over `eval_budget` each raise DomainError before
    anything is sampled or allocated.
    """
    rates = check_ints("det_winding rates", integer_rates)
    if not rates:
        raise DomainError("det_winding requires at least one rate")
    for r in rates:
        to_float("det_winding rate", r)
    min_samples = 4 * sum(abs(r) for r in rates) + 16
    if samples is None:
        samples = min_samples
    elif check_int("det_winding samples", samples) < min_samples:
        raise DomainError(
            f"samples={samples} is below the unwrap-safe minimum {min_samples} for these rates"
        )
    if samples * len(rates) > check_int("evaluation budget", eval_budget):
        # The sample count may have too many digits to print.
        raise DomainError(
            f"det_winding needs more evaluations ({len(rates)} rates x samples) "
            f"than the evaluation budget {eval_budget}"
        )
    total = unwrapped_winding_phase(rates, samples)
    turns = total / (2.0 * math.pi)
    winding = round(turns)
    residual = abs(turns - winding)
    if residual > 0.01:
        raise ConvergenceError(
            f"phase unwrap residual {residual:.4f} exceeds 0.01; rerun with a higher sample count",
            achieved_error=residual,
        )
    return WindingResult(winding=winding, residual=residual, samples=samples)
