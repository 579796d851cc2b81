import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from czorb import numeric_verify
from czorb.cli import compute_verify_lemma42
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


@pytest.mark.parametrize("tol", ["x", None, Fraction(1, 10**9)])
def test_chart_integral_refuses_a_tol_that_is_not_a_number(tol):
    with pytest.raises(DomainError, match="tol must be a number"):
        chart_integral(2, 3, tol)


@pytest.mark.parametrize("eval_budget", ["x", None, 1e6, True])
def test_chart_integral_refuses_a_budget_that_is_not_an_integer(eval_budget):
    with pytest.raises(DomainError, match="evaluation budget must be an integer"):
        chart_integral(2, 3, 1e-8, eval_budget=eval_budget)


@pytest.mark.parametrize("w0", [1.5, True])
def test_chart_integral_refuses_non_integer_weights(w0):
    with pytest.raises(DomainError, match="requires positive integer weights"):
        chart_integral(w0, 2, 1e-8)


def test_error_estimate_does_not_underflow_near_the_top_of_the_float_range():
    # The value is about 1e-308, so its relative error scales below the
    # smallest positive float; the estimate stays an upper bound above 0.
    with pytest.raises(ConvergenceError) as excinfo:
        chart_integral(10**308, 1, 1e-30)
    assert excinfo.value.achieved_error > 0
    assert "0.000e+00" not in str(excinfo.value)


def test_chart_integral_budget_floor_goes_through_the_shared_budget_rule():
    with pytest.raises(DomainError, match="^chart_integral needs more evaluations than the evaluation budget 15$"):
        chart_integral(2, 3, 1e-8, eval_budget=15)
    # 16 passes the floor, and level 0 alone (15 evaluations) cannot converge.
    with pytest.raises(ConvergenceError):
        chart_integral(2, 3, 1e-8, eval_budget=16)


def test_chart_integral_budget_exhaustion():
    # Level 0 takes 15 evaluations and level 1 another 16, so a budget of 21
    # leaves level 0 alone, with nothing to compare it with.
    with pytest.raises(ConvergenceError) as excinfo:
        chart_integral(29, 17, 1e-8, eval_budget=21)
    assert math.isfinite(excinfo.value.achieved_error)
    assert excinfo.value.achieved_error > 0


def test_chart_radial_never_exceeds_its_budget():
    for budget in range(16, 4100, 7):
        value, err, evals, converged = chart_radial(29, 17, 1e-30, budget)
        assert evals <= budget
        assert math.isfinite(err) and err > 0
        assert not converged


def test_tolerance_below_double_precision_is_a_convergence_error():
    with pytest.raises(ConvergenceError) as excinfo:
        chart_integral(2, 3, 1e-30)
    assert math.isfinite(excinfo.value.achieved_error)


def test_chart_radial_values_are_sane():
    value, err, evals, converged = chart_radial(2, 3, 5e-9, 10**6)
    assert converged
    assert abs(value - 0.25) <= 1e-8
    assert evals >= 5


def test_chart_radial_golden_value():
    # Exact float equality: any change in the order of the arithmetic fails.
    assert chart_radial(2, 3, 5e-9, 10**6) == (0.25, 1.3174276484543648e-12, 63, True)


def test_no_false_verdict_over_log_uniform_pairs_and_extreme_ratios():
    # A rule that misses the integrand's peak reports a value near 0 on
    # pairs such as (1, 10**10); the verdict must hold on each pair.
    rng = random.Random(20001)

    def draw():
        return round(math.exp(rng.uniform(0.0, math.log(1e12))))

    pairs = [(draw(), draw()) for _ in range(400)]
    pairs += [(1, 10**10), (10**6, 1), (3, 10**12), (1, 10**300), (2**1023, 1), (2**1023, 2**1023)]
    for w0, w1 in pairs:
        for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            payload = compute_verify_lemma42(w0, w1, tol)
            assert payload["ok"], (w0, w1, tol)
            assert abs(Fraction(payload["value"]) + Fraction(1, w0)) <= Fraction(tol) / w0, (w0, w1, tol)
            assert payload["evaluations"] <= 125


def test_node_levels_are_built_on_first_use():
    # Importing builds no level, and a call builds only the levels it reaches.
    code = (
        "import czorb.numeric_verify as nv; f = nv._level; print(f.cache_info().currsize); "
        "nv.chart_radial(2, 3, 1e-8, 10**6); print(f.cache_info().currsize); "
        "nv.chart_radial(2, 3, 1e-30, 10**6); print(*(len(f(n)[0]) for n in range(f.cache_info().currsize)))"
    )
    src = os.path.dirname(os.path.dirname(numeric_verify.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "3", "15", "16", "32", "62", "126", "252", "504", "1006", "2012"]


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
