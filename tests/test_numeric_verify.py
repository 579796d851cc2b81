import math
import random
from fractions import Fraction

import pytest

from czorb.errors import ConvergenceError, DomainError
from czorb.numeric_verify import area_chain, chart_integral, chart_radial
from czorb.weights import make_weight_vector, symplectic_area


def test_chart_integral_examples():
    for w0, w1 in ((2, 3), (1, 1), (7, 4)):
        result = chart_integral(w0, w1, 1e-8)
        assert abs(result.value - (-1.0 / w0)) <= 1e-8
        assert result.estimated_error >= 0
        assert result.evaluations < 10**6


def test_chart_integral_random_pairs():
    rng = random.Random(31415)
    for _ in range(50):
        w0 = rng.randint(1, 30)
        w1 = rng.randint(1, 30)
        result = chart_integral(w0, w1, 1e-8)
        assert abs(result.value - (-1.0 / w0)) <= 1e-8, (w0, w1)
        assert result.evaluations < 10**6


def test_chart_integral_validation():
    with pytest.raises(DomainError):
        chart_integral(0, 3, 1e-8)
    with pytest.raises(DomainError):
        chart_integral(2, 3, 0.0)
    with pytest.raises(DomainError):
        chart_integral(2, 3, 1e-3)  # tol capped at 1e-4
    with pytest.raises(DomainError):
        chart_integral(2, 3, 1e-8, eval_budget=4)
    with pytest.raises(DomainError):
        chart_integral(10**400, 3, 1e-8)  # outside the float range


def test_chart_integral_budget_exhaustion():
    with pytest.raises(ConvergenceError) as excinfo:
        chart_integral(29, 17, 1e-8, eval_budget=21)
    assert excinfo.value.achieved_error is not None
    assert excinfo.value.achieved_error > 0


def test_chart_radial_values_are_sane():
    value, err, evals, converged = chart_radial(2, 3, 5e-9, 10**6)
    assert converged
    assert abs(value - 0.25) <= 1e-8
    assert evals >= 5


def test_chart_radial_golden_value():
    # Exact float equality: any change in the order of the arithmetic fails.
    assert chart_radial(2, 3, 5e-9, 10**6) == (0.24999999998373737, 1.5091277055341694e-09, 201, True)


def test_area_chain_examples():
    assert area_chain(make_weight_vector([4, 4, 5, 14])) == Fraction(-1, 1120)
    assert area_chain(make_weight_vector([1, 1])) == -1
    assert area_chain(make_weight_vector([1, 2, 3])) == Fraction(-1, 6)
    assert area_chain([2, 3]) == Fraction(-1, 6)


def test_area_chain_matches_symplectic_area_random():
    rng = random.Random(2718)
    for _ in range(300):
        while True:
            w = [rng.randint(1, 60) for _ in range(rng.randint(2, 8))]
            if math.gcd(*w) == 1:
                break
        wv = make_weight_vector(w)
        assert area_chain(wv) == symplectic_area(wv)


def test_chain_cross_checks_quadrature():
    # the first chain factor is the chart value; confirm numerically
    rng = random.Random(999)
    for _ in range(10):
        w0 = rng.randint(1, 20)
        w1 = rng.randint(1, 20)
        numeric = chart_integral(w0, w1, 1e-8).value
        assert abs(numeric - float(Fraction(-1, w0))) <= 1e-8
