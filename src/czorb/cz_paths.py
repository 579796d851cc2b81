"""Conley-Zehnder index of the scalar unitary path, and its oracles.

The closed form for the unit-rate scalar path t -> exp(i*pi*t) on [0, T] is

    T               if T is an even integer,
    2*floor(T/2)+1  otherwise,

and a path of rate lambda on [0, T] reparametrizes to the unit-rate path on
[0, lambda*T]. Two independent oracles live here as well:

- crossing enumeration for the scalar formula: every crossing time is
  visited, so the count does not use the floor formula;
- determinant winding for loops of diagonal unitaries: the product of one
  root of unity per rate is formed at every sample of [0, 1/4] ([0, 1/2]
  for an odd sample count) and its phase unwrapped. An integer-rate loop
  P(t) has two exact symmetries, the half-period shift
  P(t + 1/2) = (-1)^(sum r_j) * P(t) and the reflection
  P(1/2 - t) = (-1)^(sum r_j) * conj(P(t)); the sign cancels in every phase
  increment, so those increments give all the others (on an odd grid only
  the reflection P(1 - t) = conj(P(t)) falls on samples). Likewise the root
  table computes one quadrant (half, for an odd count) and mirrors the
  rest exactly. No shift by 1/g with g > 2 is used: its factor is not +-1,
  and carried to its end it is the sum of the rates in disguise. Every
  factor is multiplied at every formed sample, and the closed form, the sum
  of the signed rates, is never computed.
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


def _roots(n: int) -> list:
    """The N-th roots of unity, root[m] = exp(2*pi*i*m/N) for m = 0..N-1.

    For even N only the first quadrant costs cos/sin pairs, m = 0..floor(N/4).
    When 4 | N, root[N/4] is set to 1j, which is its own mirror
    -conj(root[N/4]); cmath.rect leaves a real part of about 6e-17 there.
    The rest is filled by the exact mirrors root[N/2 - m] = -conj(root[m])
    and root[m + N/2] = -root[m]. For odd N the pairs are m = 0..floor(N/2)
    and the rest is the conjugate mirror. Either way root[N - m] equals
    conj(root[m]) exactly for every m.
    """
    half = n // 2
    count = half + 1 if n % 2 else n // 4 + 1
    head = list(map(cmath.rect, itertools.repeat(1.0, count), map((2.0 * math.pi / n).__mul__, range(count))))
    if n % 2:
        return head + [z.conjugate() for z in reversed(head[1:])]
    if n % 4 == 0:
        head[-1] = 1j
    head += [-z.conjugate() for z in reversed(head[1 : half - count + 1])]
    return head + [-z for z in head]


def unwrapped_winding_phase(rates, samples: int) -> float:
    """Total unwrapped phase of t -> prod_j exp(2*pi*i*r_j*t) over [0, 1].

    Samples the product at the points t = k/N, k = 0..N with N = samples.
    Each factor is read from one table of the N-th roots of unity, `_roots`:
    rate r at sample k is root[(r*k) % N], an exact integer reduction.

    An integer-rate loop has two exact symmetries. The half-period shift
    P(t + 1/2) = (-1)^(sum r_j) * P(t) makes the phase increments
    arg(P_k / P_{k-1}) periodic with period L = N/2 for even N (L = N for
    odd N), and the reflection P(L/N - t) = +-conj(P(t)) makes the
    increments within one period a palindrome. The product is therefore
    formed, factor by factor, only at the samples k = 0..ceil(L/2);
    increments 1..floor(L/2) count twice, for odd L the middle increment,
    its own mirror, once, and the period's sum counts N/L times. The sign
    (-1)^(sum r_j) cancels in every ratio, so it is never needed and the
    rates are never added. With the table of `_roots`, every product the
    kernel skips is exactly +-P_k or +-conj(P_k) for a product P_k it forms,
    so no rounding of the table or of the products enters the fold.

    No shift P(t + 1/g) = c * P(t) with g > 2 is used: its c is not +-1, so
    the skipped products would not be exact mirrors, and carried to its end
    it leaves the single increment N * arg(prod_j exp(2*pi*i*r_j/N)) / (2*pi),
    which is the sum of the rates in disguise.

    The increments are added with math.fsum, one block of samples at a time.
    The caller gives integer rates, at least one, and a sampling dense
    enough that the true step between consecutive samples stays below pi.
    """
    n = samples
    period = n if n % 2 else n // 2
    half = period // 2
    last = period - half  # ceil(L/2), the last sample whose product is formed
    roots = _roots(n)
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
        if k0 + count - 1 > half:  # odd L: this block ends at the middle sample
            middle = steps.pop()
        block_sums.append(math.fsum(steps))
        prev = prod[-1]
    return n // period * (2.0 * math.fsum(block_sums) + middle)


def det_winding(
    integer_rates: Iterable[int], samples: int | None = None, eval_budget: int = DEFAULT_EVAL_BUDGET
) -> WindingResult:
    """Winding number of the determinant loop t -> prod_j exp(2*pi*i*r_j*t)
    on [0, 1], extracted by sampling and phase unwrapping.

    The check is independent of the closed form sum(r_j): the kernel,
    `unwrapped_winding_phase`, multiplies one unit complex number per rate at
    every sample of [0, 1/4] ([0, 1/2] for an odd sample count) and unwraps
    the phase of the product, and the winding is the rounded number of
    turns. The signed sum of the rates is never computed; only sum(|r_j|)
    enters, as the sample count. What the kernel relies on are the shift
    P(t + 1/2) = +-P(t) and the reflection P(1/2 - t) = +-conj(P(t)), which
    hold because the rates are integers, as checked here: the sign cancels
    in every phase increment, so the increments on [0, 1/4] give those on
    the rest of [0, 1].

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
