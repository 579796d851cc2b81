"""Conley-Zehnder index of the scalar unitary path, and its oracles.

The closed form for the unit-rate scalar path t -> exp(i*pi*t) on [0, T] is

    T               if T is an even integer,
    2*floor(T/2)+1  otherwise,

and a path of rate lambda on [0, T] reparametrizes to the unit-rate path on
[0, lambda*T]. Two independent oracles live here as well:

- crossing enumeration for the scalar formula: every crossing time is
  visited, so the count does not use the floor formula;
- determinant winding for loops of diagonal unitaries: the product of one
  root of unity per rate is formed at every sample and its phase unwrapped.
  The roots come from one table indexed by an exact integer reduction, but
  the closed form, the sum of the signed rates, is never computed.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import ConvergenceError, DomainError
from .numeric_verify import DEFAULT_EVAL_BUDGET

RationalLike = Union[Fraction, int]


def _positive_duration(T: RationalLike, op: str) -> Fraction:
    T = Fraction(T)
    if T <= 0:
        raise DomainError(f"{op} requires a positive duration, got {T}")
    return T


def scalar_cz(T: RationalLike) -> int:
    """Index of the unit-rate scalar path on [0, T]."""
    T = _positive_duration(T, "scalar_cz")
    if T.denominator == 1 and T.numerator % 2 == 0:
        return T.numerator
    return 2 * (T.numerator // (2 * T.denominator)) + 1


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
    if num // step + 1 > eval_budget:
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


@dataclass(frozen=True)
class WindingResult:
    winding: int
    residual: float
    samples: int


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
    sample k is root[(r*k) % N], an exact integer reduction, so the table
    costs one cos/sin pair per sample whatever the rates. The product is
    still formed factor by factor at every sample, and its phase is unwrapped
    from the increments arg(P_k / P_{k-1}); the rates are never added. The
    increments are added with math.fsum, one block of samples at a time.
    The caller guarantees the sampling is dense enough that the true step
    between consecutive samples stays below pi, and gives at least one rate.
    """
    n = samples
    angle = 2.0 * math.pi / n
    roots = list(map(cmath.rect, itertools.repeat(1.0, n), map(angle.__mul__, range(n))))
    block_sums = []
    prev = roots[0]  # P_0 = 1
    for k0 in range(1, n + 1, _BLOCK):
        count = min(_BLOCK, n + 1 - k0)
        prod = None
        for r in rates:
            values = _strided(roots, r * k0, r, count) if r else [roots[0]] * count
            prod = values if prod is None else list(map(operator.mul, prod, values))
        steps = map(operator.truediv, prod, itertools.chain((prev,), prod))
        block_sums.append(math.fsum(map(cmath.phase, steps)))
        prev = prod[-1]
    return math.fsum(block_sums)


def det_winding(
    integer_rates: Iterable[int], samples: int | None = None, eval_budget: int = DEFAULT_EVAL_BUDGET
) -> WindingResult:
    """Winding number of the determinant loop t -> prod_j exp(2*pi*i*r_j*t)
    on [0, 1], extracted by sampling and phase unwrapping.

    The check is independent of the closed form sum(r_j): the kernel,
    `unwrapped_winding_phase`, multiplies one unit complex number per rate at
    every sample and unwraps the phase of the product, and the winding is the
    rounded number of turns. The signed sum of the rates is never computed;
    only sum(|r_j|) enters, as the sample count.

    `samples` defaults to the minimum 4*sum(|r_j|) + 16, which keeps the true
    phase step between samples below pi and makes the unwrap exact up to
    rounding. The pre-rounding residual is reported alongside the integer.
    A rate too large to convert to float, a sample count below the minimum,
    and samples * len(rates) over `eval_budget` each raise DomainError
    before anything is sampled or allocated.
    """
    rates = tuple(integer_rates)
    if not rates:
        raise DomainError("det_winding requires at least one rate")
    for r in rates:
        if not isinstance(r, int) or isinstance(r, bool):
            raise DomainError(f"det_winding rates must be integers, got {r!r}")
        try:
            float(r)
        except OverflowError:
            raise DomainError(
                f"det_winding rate of {r.bit_length()} bits is outside the float range"
            ) from None
    min_samples = 4 * sum(abs(r) for r in rates) + 16
    if samples is None:
        samples = min_samples
    elif samples < min_samples:
        raise DomainError(
            f"samples={samples} is below the unwrap-safe minimum {min_samples} for these rates"
        )
    work = samples * len(rates)
    if work > eval_budget:
        raise DomainError(
            f"det_winding needs {samples} samples x {len(rates)} rates = {work} evaluations, "
            f"over the evaluation budget {eval_budget}"
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
