"""Numerical verification of the two-weight chart integral and the exact
bookkeeping chain from it down to the symplectic class value -1/||w||.

The chart integral

    -(1/pi) * int_0^{2pi} int_0^inf  w1*r / (w0*r^2 + w1)^2  dr dtheta

equals -1/w0 exactly. The angular factor is constant and handled
analytically; the radial improper integral is compactified by u = r/(1+r)
and evaluated by adaptive Simpson quadrature in `chart_radial`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ConvergenceError, DomainError
from .weights import WeightVector, make_weight_vector, symplectic_area

DEFAULT_EVAL_BUDGET = 10**6

# Bisection depth at which an interval is accepted regardless of its error
# estimate; [0,1] halved 60 times is already below double-precision spacing.
_MAX_DEPTH = 60


def chart_radial(w0: int, w1: int, tol: float, max_evals: int):
    """Adaptive-Simpson value of the compactified radial chart integral.

    Integrates u -> f(r(u)) * r'(u) over [0, 1], where r = u/(1-u) maps the
    unit interval onto [0, inf) and f(r) = w1*r / (w0*r^2 + w1)^2. The exact
    value is 1/(2*w0).

    Intervals are bisected while the Simpson error estimate |S_l + S_r - S|/15
    exceeds the per-interval tolerance (halved on each split); accepted
    intervals use Richardson extrapolation. The evaluation budget is checked
    between refinements, so the final count can exceed it by a few calls.

    Returns (value, error_estimate, evaluations, converged).
    """

    def g(u: float) -> float:
        if u >= 1.0:
            return 0.0
        one_minus = 1.0 - u
        r = u / one_minus
        denom = w0 * r * r + w1
        return w1 * r / (denom * denom) / (one_minus * one_minus)

    fa = g(0.0)
    fm = g(0.5)
    fb = g(1.0)
    evals = 3
    whole = (fa + 4.0 * fm + fb) / 6.0

    total = 0.0
    err_total = 0.0
    converged = True
    # Each frame: (a, b, fa, fm, fb, simpson(a, b), tol, depth)
    stack = [(0.0, 1.0, fa, fm, fb, whole, tol, 0)]
    while stack:
        a, b, fa, fm, fb, s_whole, tol_i, depth = stack.pop()
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = g(lm)
        frm = g(rm)
        evals += 2
        h12 = (b - a) / 12.0
        s_left = h12 * (fa + 4.0 * flm + fm)
        s_right = h12 * (fm + 4.0 * frm + fb)
        delta = s_left + s_right - s_whole
        if abs(delta) <= 15.0 * tol_i or depth >= _MAX_DEPTH or evals >= max_evals:
            total += s_left + s_right + delta / 15.0
            err_total += abs(delta) / 15.0
            if abs(delta) > 15.0 * tol_i:
                converged = False
        else:
            half_tol = 0.5 * tol_i
            stack.append((m, b, fm, frm, fb, s_right, half_tol, depth + 1))
            stack.append((a, m, fa, flm, fm, s_left, half_tol, depth + 1))
    return total, err_total, evals, converged


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    estimated_error: float
    evaluations: int


def chart_integral(w0: int, w1: int, tol: float, eval_budget: int = DEFAULT_EVAL_BUDGET) -> QuadratureResult:
    """Numerically evaluate the chart integral; the result is within tol of
    -1/w0 when the quadrature converges.

    Raises DomainError for a weight too large to convert to float, and
    ConvergenceError (carrying the achieved error estimate) if the evaluation
    budget runs out first.
    """
    if w0 < 1 or w1 < 1:
        raise DomainError(f"chart_integral requires positive integer weights, got ({w0}, {w1})")
    for w in (w0, w1):
        try:
            float(w)
        except OverflowError:
            raise DomainError(
                f"chart_integral weight of {w.bit_length()} bits is outside the float range"
            ) from None
    if not 0 < tol <= 1e-4:
        raise DomainError(f"tol must be in (0, 1e-4], got {tol}")
    if eval_budget < 16:
        raise DomainError(f"evaluation budget too small: {eval_budget}")
    # The final value is -2 * (radial integral), so run the kernel at tol/2.
    radial, err, evals, converged = chart_radial(w0, w1, tol / 2.0, eval_budget)
    if not converged:
        raise ConvergenceError(
            f"quadrature did not reach tol={tol} within {eval_budget} evaluations "
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
    if not isinstance(full_w, WeightVector):
        full_w = make_weight_vector(full_w)
    w0, w1 = full_w[0], full_w[1]
    g = math.gcd(w0, w1)
    chart_value = Fraction(-1, w0)
    chamber = chart_value / Fraction(w1, g)
    embedding_degree = Fraction(math.prod(full_w.w) * g, w0 * w1)
    total = chamber / embedding_degree
    assert total == symplectic_area(full_w)
    return total
