"""Conley-Zehnder indices of scalar and diagonal unitary paths.

The closed form for the unit-rate scalar path t -> exp(i*pi*t) on [0, T] is

    T               if T is an even integer,
    2*floor(T/2)+1  otherwise,

and a path of rate lambda on [0, T] reparametrizes to the unit-rate path on
[0, lambda*T]. Diagonal paths add componentwise. Two independent oracles live
here as well: crossing enumeration for the scalar formula, and numeric
determinant winding for loops of diagonal unitaries.

Only positive rotation rates are covered; negative rates are rejected rather
than guessed, since no convention for them is pinned down by a worked case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import ConvergenceError, DomainError, UncoveredCaseError

RationalLike = Union[Fraction, int]


def _positive_duration(T: RationalLike, op: str) -> Fraction:
    T = Fraction(T)
    if T <= 0:
        raise DomainError(f"{op} requires a positive duration, got {T}")
    return T


@dataclass(frozen=True)
class ScalarPath:
    """The path t -> exp(i*pi*rate*t) for t in [0, duration]."""

    rate: Fraction
    duration: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rate", Fraction(self.rate))
        object.__setattr__(self, "duration", Fraction(self.duration))
        if self.duration <= 0:
            raise DomainError(f"scalar path duration must be positive, got {self.duration}")
        if self.rate == 0:
            raise DomainError("rate 0 is a degenerate constant path")


@dataclass(frozen=True)
class DiagonalPath:
    """Direct sum of scalar paths sharing one duration."""

    components: tuple[ScalarPath, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise DomainError("diagonal path needs at least one component")
        durations = {c.duration for c in self.components}
        if len(durations) > 1:
            raise DomainError(f"diagonal path components must share one duration, got {durations}")


def scalar_cz(T: RationalLike) -> int:
    """Index of the unit-rate scalar path on [0, T]."""
    T = _positive_duration(T, "scalar_cz")
    if T.denominator == 1 and T.numerator % 2 == 0:
        return T.numerator
    return 2 * (T.numerator // (2 * T.denominator)) + 1


def scalar_cz_rated(p: ScalarPath) -> int:
    """Index of a scalar path of arbitrary positive rate, by reparametrizing
    to the unit-rate path on [0, rate*duration]."""
    if p.rate <= 0:
        raise UncoveredCaseError(
            f"only positively rotating scalar paths are covered, got rate {p.rate}"
        )
    return scalar_cz(p.rate * p.duration)


def diagonal_cz(p: DiagonalPath) -> int:
    """Index of a diagonal unitary path: the sum over components."""
    return sum(scalar_cz_rated(c) for c in p.components)


def loop_cz_from_maslov(maslov: int) -> int:
    """Index contribution of a loop of winding number `maslov`: twice it."""
    return 2 * maslov


def crossing_oracle_scalar(T: RationalLike) -> int:
    """Crossing enumeration oracle for scalar_cz.

    The unit-rate path meets 1 exactly at even integer times. Each endpoint
    crossing contributes half of a +2 signature, each interior crossing the
    full +2. Exact integer arithmetic, still an enumeration of crossings:
    with T = num/den, the crossing at time 2k is visited as 2*k*den <= num,
    so the count stays independent of the closed form.
    """
    T = _positive_duration(T, "crossing_oracle_scalar")
    num, den = T.numerator, T.denominator
    step = 2 * den
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


def unwrapped_winding_phase(rates, samples: int) -> float:
    """Total unwrapped phase of t -> prod_j exp(2*pi*i*r_j*t) over [0, 1].

    Samples the product at samples+1 uniform points, takes the principal
    phase of each complex value, and accumulates the wrapped increments.
    The caller guarantees the sampling is dense enough that the true step
    between consecutive samples stays below pi.
    """
    two_pi = 2.0 * math.pi
    total = 0.0
    prev = 0.0
    for k in range(1, samples + 1):
        t = k / samples
        re = 1.0
        im = 0.0
        for r in rates:
            ang = two_pi * r * t
            c = math.cos(ang)
            s = math.sin(ang)
            re, im = re * c - im * s, re * s + im * c
        phase = math.atan2(im, re)
        d = phase - prev
        if d > math.pi:
            d -= two_pi
        elif d <= -math.pi:
            d += two_pi
        total += d
        prev = phase
    return total


def det_winding(integer_rates: Iterable[int], samples: int | None = None) -> WindingResult:
    """Winding number of the determinant loop t -> prod_j exp(2*pi*i*r_j*t)
    on [0, 1], extracted by sampling and phase unwrapping.

    `samples` defaults to the minimum 4*sum(|r_j|) + 16, which keeps the true
    phase step between samples below pi and makes the unwrap exact up to
    rounding. The pre-rounding residual is reported alongside the integer.
    A rate too large to convert to float raises DomainError.
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
