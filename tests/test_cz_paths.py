import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czorb import cz_paths
from czorb.cz_paths import (
    _BLOCK,
    crossing_oracle_scalar,
    det_winding,
    scalar_cz,
    unwrapped_winding_phase,
)
from czorb.errors import DomainError
from czorb.numeric_verify import DEFAULT_EVAL_BUDGET


def test_scalar_cz_examples():
    assert scalar_cz(2) == 2
    assert scalar_cz(Fraction(7, 2)) == 3
    assert scalar_cz(Fraction(5, 4)) == 1
    assert scalar_cz(5) == 5  # odd integers fall through to the floor branch


def test_scalar_cz_rejects_nonpositive():
    with pytest.raises(DomainError):
        scalar_cz(0)
    with pytest.raises(DomainError):
        scalar_cz(Fraction(-3, 2))


def test_crossing_oracle_examples():
    assert crossing_oracle_scalar(4) == 4  # crossings at 0, 2, 4
    assert crossing_oracle_scalar(3) == 3  # crossings at 0, 2
    assert crossing_oracle_scalar(Fraction(3, 2)) == 1  # crossing at 0 only
    with pytest.raises(DomainError):
        crossing_oracle_scalar(0)


def test_crossing_oracle_refuses_counts_over_the_budget():
    # T = 2000 has the 1001 crossings 0, 2, ..., 2000.
    assert crossing_oracle_scalar(2000, eval_budget=1001) == 2000
    with pytest.raises(DomainError, match="budget 1000"):
        crossing_oracle_scalar(2000, eval_budget=1000)
    with pytest.raises(DomainError, match=f"budget {DEFAULT_EVAL_BUDGET}"):
        crossing_oracle_scalar(Fraction(10**100))


def test_crossing_oracle_agrees_with_closed_form():
    rng = random.Random(61043)
    for _ in range(1000):
        T = Fraction(rng.randint(1, 400), rng.randint(1, 40))
        assert crossing_oracle_scalar(T) == scalar_cz(T), f"disagreement at T={T}"


def fraction_crossing_count(T: Fraction) -> int:
    """The crossing enumeration in Fraction arithmetic: each even time in
    [0, T] adds 1 at an endpoint and 2 in the interior."""
    index = 0
    t = Fraction(0)
    while t <= T:
        index += 1 if t == 0 or t == T else 2
        t += 2
    return index


@given(st.integers(1, 4000), st.integers(1, 50))
@settings(max_examples=500)
def test_crossing_oracle_matches_fraction_enumeration(num, den):
    T = Fraction(num, den)
    assert crossing_oracle_scalar(T) == fraction_crossing_count(T)


@pytest.mark.parametrize(
    "T",
    [Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(199, 100)]  # T < 2
    + [Fraction(2), Fraction(4), Fraction(100)]  # even integers
    + [Fraction(3), Fraction(5), Fraction(101)]  # odd integers
    + [2 * k + Fraction(s, den) for k in (1, 2, 37) for den in (2, 7, 1000) for s in (-1, 1)],
)
def test_crossing_oracle_edge_cases(T):
    assert crossing_oracle_scalar(T) == fraction_crossing_count(T) == scalar_cz(T)


def test_parity():
    rng = random.Random(7321)
    for _ in range(500):
        T = Fraction(rng.randint(1, 400), rng.randint(1, 40))
        even = scalar_cz(T) % 2 == 0
        assert even == (T.denominator == 1 and T.numerator % 2 == 0)


def test_monotone_step_sweep():
    values = [scalar_cz(Fraction(k, 10)) for k in range(1, 201)]
    for prev, cur in zip(values, values[1:]):
        assert cur - prev in (0, 1)
    # +1 on reaching an even integer, +1 on crossing it: +2 per full period
    for m in range(1, 10):
        assert scalar_cz(Fraction(20 * m - 1, 10)) == 2 * m - 1
        assert scalar_cz(2 * m) == 2 * m
        assert scalar_cz(Fraction(20 * m + 1, 10)) == 2 * m + 1
    for k in range(1, 201):
        if k % 10 == 0:
            assert values[k - 1] == k // 10


def test_det_winding_examples():
    assert det_winding([4, 4, 5, 14]).winding == 27
    assert det_winding([1]).winding == 1
    assert det_winding([3, -3]).winding == 0


def test_det_winding_validation():
    with pytest.raises(DomainError):
        det_winding([])
    with pytest.raises(DomainError):
        det_winding([2, "x"])
    with pytest.raises(DomainError):
        det_winding([4, 4, 5, 14], samples=10)  # below the unwrap-safe minimum
    with pytest.raises(DomainError):
        det_winding([10**400])  # outside the float range


def test_det_winding_reports_residual_and_samples():
    result = det_winding([4, 4, 5, 14])
    assert result.samples == 4 * 27 + 16
    assert 0 <= result.residual < 0.01
    bigger = det_winding([4, 4, 5, 14], samples=1000)
    assert bigger.winding == 27
    assert bigger.samples == 1000


def test_det_winding_random_vectors():
    rng = random.Random(90125)
    for _ in range(200):
        n = rng.randint(1, 6)
        rates = [rng.randint(-50, 50) for _ in range(n)]
        result = det_winding(rates)
        assert result.winding == sum(rates)
        assert result.residual < 0.01


def test_unwrapped_winding_phase_golden_value():
    # Exact float equality: any change in the order of the arithmetic fails.
    # The value is float(27 * 2*pi): the increments add up exactly.
    assert unwrapped_winding_phase((4, 4, 5, 14), 124) == 169.64600329384882 == 27 * 2 * math.pi


def trig_loop_winding_phase(rates, samples):
    """The kernel as a cos/sin/atan2 loop over (sample, rate): each factor
    computed from its angle, each sample's phase unwrapped against the last."""
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


@given(
    st.lists(st.integers(-100, 100), min_size=1, max_size=24),
    st.integers(0, 3 * _BLOCK),
)
@settings(max_examples=60, deadline=None)
def test_winding_kernel_matches_the_trig_loop(rates, extra):
    # From the unwrap-safe minimum up to three more blocks, so sample counts
    # that are not a multiple of the block size are drawn.
    samples = 4 * sum(map(abs, rates)) + 16 + extra
    turns = unwrapped_winding_phase(rates, samples) / (2 * math.pi)
    assert round(turns) == round(trig_loop_winding_phase(rates, samples) / (2 * math.pi)) == sum(rates)
    assert abs(turns - round(turns)) < 1e-9


@pytest.mark.parametrize(
    "rates, samples",
    [
        ([10**20], None),  # 4e20 samples
        ([1] * 2000, None),  # 8016 samples x 2000 rates
        ([4, 4, 5, 14], 250_001),  # 4 rates x 250 001 samples
    ],
)
def test_det_winding_refuses_work_over_the_budget_before_sampling(monkeypatch, rates, samples):
    def kernel_must_not_run(rates, samples):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(cz_paths, "unwrapped_winding_phase", kernel_must_not_run)
    with pytest.raises(DomainError, match=f"budget {DEFAULT_EVAL_BUDGET}"):
        det_winding(rates, samples)
