"""Numerical verification of the two-weight chart integral and the exact
bookkeeping chain from it down to the symplectic class value -1/||w||.

The chart integral

    -(1/pi) * int_0^{2pi} int_0^inf  w1*r / (w0*r^2 + w1)^2  dr dtheta

equals -1/w0 exactly. The angular factor is constant and handled
analytically; `chart_radial` evaluates the radial improper integral by an
exp-sinh double-exponential rule (Takahasi & Mori, 1974): the substitution
r = 2**m * exp((pi/2)*sinh(t)) and the trapezoid rule in t, its step halved
level by level. m is the integer nearest log2(w1/w0)/2, so for every pair
of weights the integrand's peak at r* = sqrt(w1/(3*w0)) lies at
s = r*/2**m between 0.40 and 0.82, where one node grid in t, fixed for all
weights, is equally dense.

What the oracle still checks independently: the chart integrand itself,
evaluated at nodes that sit a weight-dependent fraction of an octave from
the peak, and summed until two successive levels agree to the tolerance.
The exact value 1/(2*w0) is never used. What it assumes: that the rescaling
by 2**m is exact. It is for a power of two in floating point, and the
scaled ratio alpha = w0*4**m/w1 is formed from integers with one correctly
rounded division.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import repeat
from operator import truediv

from .errors import DEFAULT_EVAL_BUDGET, ConvergenceError, DomainError, check_budget, is_int, to_float
from .record import Record
from .weights import WeightVector, _product, make_weight_vector, symplectic_area

# The window |t| <= asinh(80/pi) keeps ln(s) = (pi/2)*sinh(t) within +-40;
# beyond it the integrand's s**2 and s**-2 tails are below e**-80.
_T_MAX = math.asinh(80.0 / math.pi)
# Level l has step 2**-(l + 1); level 8 brings the rule to 4025 evaluations.
_MAX_LEVEL = 8
# No estimate falls below this many ulps of the trapezoid value, so a
# tolerance under double precision cannot converge.
_ERROR_FLOOR_ULPS = 4


@functools.cache
def _level(level: int) -> tuple[list[float], list[float]]:
    """The nodes that trapezoid level `level` adds, built on first use.

    Level 0 holds every multiple of 1/2 in the window, each later level the
    odd multiples of its step 2**-(level + 1). For each node t the tables
    hold s**-2 and (pi/2)*cosh(t) * s**-2, with s = exp((pi/2)*sinh(t)).
    """
    h = 0.5 ** (level + 1)
    k_max = int(_T_MAX / h)
    ts = [k * h for k in range(-k_max, k_max + 1) if level == 0 or k % 2]
    inv_s2 = [math.exp(-math.pi * math.sinh(t)) for t in ts]
    weight = [0.5 * math.pi * math.cosh(t) * x for t, x in zip(ts, inv_s2)]
    return inv_s2, weight


def chart_radial(w0: int, w1: int, tol: float, max_evals: int):
    """Exp-sinh value of the radial chart integral
    int_0^inf w1*r / (w0*r^2 + w1)^2 dr, whose exact value is 1/(2*w0).

    With r = 2**m * s, s = exp((pi/2)*sinh(t)) and alpha = w0*4**m/w1, the
    integrand in t is (alpha/w0) * s**2*(pi/2)*cosh(t) / (alpha*s**2 + 1)**2,
    evaluated here as (alpha/w0) * (pi/2)*cosh(t)*s**-2 / (alpha + s**-2)**2,
    which cannot overflow for any weights in the float range. m is the
    integer nearest log2(w1/w0)/2, so alpha lies in [1/2, 2].

    The trapezoid sum T_l of level l reuses every node of the levels before
    it. The result has converged at level l >= 2 when
    |T_l - T_(l-1)| <= tol * |T_l|, with that difference floored at a few
    ulps of |T_l| as the error estimate (T_(-1) = 0, so the estimate is
    |T_0| while only level 0 exists); scaled back, it is raised to the
    smallest positive float, still an upper bound, where it would underflow.
    A level is formed only if its nodes fit in `max_evals`, and the rule
    stops after level 8 (4025 evaluations).

    Returns (value, error_estimate, evaluations, converged).
    """
    m = round((math.log2(w1) - math.log2(w0)) / 2)
    alpha = (w0 << 2 * m) / w1 if m >= 0 else w0 / (w1 << -2 * m)
    node_sum = trapezoid = err = 0.0
    evals = 0
    converged = False
    for level in range(_MAX_LEVEL + 1):
        inv_s2, weight = _level(level)
        if evals + len(inv_s2) > max_evals:
            break
        evals += len(inv_s2)
        node_sum += math.fsum(map(truediv, weight, map(pow, map(alpha.__add__, inv_s2), repeat(2.0))))
        previous, trapezoid = trapezoid, node_sum * 0.5 ** (level + 1)
        err = max(abs(trapezoid - previous), _ERROR_FLOOR_ULPS * math.ulp(trapezoid))
        if level >= 2 and err <= tol * abs(trapezoid):
            converged = True
            break
    scale = alpha / w0
    return scale * trapezoid, max(scale * err, math.ulp(0.0)), evals, converged


class QuadratureResult(Record):
    __slots__ = ("value", "estimated_error", "evaluations")


def chart_integral(w0: int, w1: int, tol: float, eval_budget: int = DEFAULT_EVAL_BUDGET) -> QuadratureResult:
    """Numerically evaluate the chart integral. `tol` is relative: the
    quadrature has converged when its error estimate is at most tol times
    the value, 1/w0 in magnitude.

    Raises DomainError for a weight too large to convert to float, a `tol`
    that is not a number and a budget that is not an integer of at least 16, and
    ConvergenceError (carrying the achieved error estimate) if the rule's
    levels or the evaluation budget run out first.
    """
    if not (is_int(w0) and is_int(w1)) or w0 < 1 or w1 < 1:
        raise DomainError(f"chart_integral requires positive integer weights, got ({w0}, {w1})")
    for w in (w0, w1):
        to_float("chart_integral weight", w)
    if not 0 < to_float("tol", tol) <= 1e-4:
        raise DomainError(f"tol must be in (0, 1e-4], got {tol}")
    check_budget(16, eval_budget, "chart_integral needs more evaluations")
    # The final value is -2 * (radial integral), with the same relative error.
    radial, err, evals, converged = chart_radial(w0, w1, tol, eval_budget)
    if not converged:
        raise ConvergenceError(
            f"quadrature did not reach relative tol={tol} within {evals} evaluations "
            f"(achieved error estimate {2.0 * err:.3e})",
            achieved_error=2.0 * err,
        )
    return QuadratureResult(value=-2.0 * radial, estimated_error=2.0 * err, evaluations=evals)


def area_chain(full_w: WeightVector | Iterable[int]) -> Fraction:
    """Exact factor chain from the two-weight chart value to the symplectic
    class of the full space.

    Starting from the chart value -1/w0: dividing by the order w1/gcd(w0,w1)
    of the chart's uniformizing group gives -gcd(w0,w1)/(w0*w1), and dividing
    by the degree ||w||*gcd(w0,w1)/(w0*w1) of the two-weight embedding gives
    -1/||w||. Every factor is an exact rational; the quadrature enters only
    as a cross-check of the first link.
    """
    full_w = make_weight_vector(full_w)
    w0, w1 = full_w[0], full_w[1]
    g = math.gcd(w0, w1)
    chart_value = Fraction(-1, w0)
    chamber = chart_value / Fraction(w1, g)
    embedding_degree = Fraction(_product(full_w.w) * g, w0 * w1)
    total = chamber / embedding_degree
    assert total == symplectic_area(full_w)
    return total
