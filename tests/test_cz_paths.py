import cmath
import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czorb import cz_paths
from czorb.cz_paths import (
    _roots,
    _strided,
    crossing_oracle_scalar,
    det_winding,
    scalar_cz,
    scalar_index,
    unwrapped_winding_phase,
)
from czorb.errors import ConvergenceError, DomainError
from czorb.numeric_verify import DEFAULT_EVAL_BUDGET


def test_scalar_cz_examples():
    assert scalar_cz(2) == 2
    assert scalar_cz(Fraction(7, 2)) == 3
    assert scalar_cz(Fraction(5, 4)) == 1
    assert scalar_cz(5) == 5  # odd integers fall through to the floor branch


@pytest.mark.parametrize(
    "num, den",
    [(2, 1), (4, 1), (100, 1)]  # even integers
    + [(1, 1), (3, 1), (101, 1)]  # odd integers
    + [(1, 3), (3, 2), (199, 100)]  # T < 2
    + [(2 * k * den + sign, den) for k in (1, 7) for den in (2, 3, 10) for sign in (1, -1)],  # 2k +- 1/den
)
@pytest.mark.parametrize("g", [1, 2, 6, 35])
def test_scalar_index_on_unreduced_pairs_matches_scalar_cz(num, den, g):
    assert scalar_index(num * g, den * g) == scalar_cz(Fraction(num, den))


def test_scalar_cz_rejects_nonpositive():
    with pytest.raises(DomainError):
        scalar_cz(0)
    with pytest.raises(DomainError):
        scalar_cz(Fraction(-3, 2))


@pytest.mark.parametrize("T", ["x", True, 2.5, None])
def test_scalar_cz_refuses_a_duration_that_is_not_an_int_or_fraction(T):
    # A bool is not an integer: scalar_cz(True) must not answer 1.
    with pytest.raises(DomainError, match="requires a duration that is an integer or a Fraction"):
        scalar_cz(T)


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


@pytest.mark.parametrize("T, eval_budget", [("x", 10), (3, "x"), (3, None), (3, True)])
def test_crossing_oracle_refuses_a_duration_or_budget_of_the_wrong_type(T, eval_budget):
    with pytest.raises(DomainError):
        crossing_oracle_scalar(T, eval_budget)


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
        det_winding([10**400])  # outside the float range


def test_det_winding_reports_residual_and_samples():
    result = det_winding([4, 4, 5, 14])
    assert result.samples == 4 * 27 + 16
    assert 0 <= result.residual < 0.01
    assert det_winding([3, -3, 0]).samples == 4 * 6 + 16


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
    # The value is one ulp above float(27 * 2*pi).
    value = unwrapped_winding_phase((4, 4, 5, 14), 124)
    assert value == 169.64600329384885 == math.nextafter(27 * 2 * math.pi, math.inf)


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
    st.integers(0, 3_072),
)
@settings(max_examples=60, deadline=None)
def test_winding_kernel_matches_the_trig_loop(rates, extra):
    # Multiples of 4 from the unwrap-safe minimum up to 12 288 more samples,
    # so columns of up to about 4000 entries are drawn.
    samples = 4 * sum(map(abs, rates)) + 16 + 4 * extra
    turns = unwrapped_winding_phase(rates, samples) / (2 * math.pi)
    assert round(turns) == round(trig_loop_winding_phase(rates, samples) / (2 * math.pi)) == sum(rates)
    assert abs(turns - round(turns)) < 1e-9


def full_loop_winding_phase(rates, samples):
    """The kernel before any fold: the product is formed at
    every sample k = 1..N from a root table of N cos/sin pairs, and all N
    increments are added."""
    n = samples
    angle = 2.0 * math.pi / n
    roots = list(map(cmath.rect, itertools.repeat(1.0, n), map(angle.__mul__, range(n))))
    prod = None
    for r in rates:
        values = _strided(roots, r, r, n) if r else [roots[0]] * n
        prod = values if prod is None else list(map(operator.mul, prod, values))
    steps = map(operator.truediv, prod, itertools.chain((roots[0],), prod))
    return math.fsum(map(cmath.phase, steps))


def assert_folded_matches_the_full_loop(rates, samples):
    folded = unwrapped_winding_phase(rates, samples) / (2 * math.pi)
    full = full_loop_winding_phase(rates, samples) / (2 * math.pi)
    assert round(folded) == round(full) == sum(rates)
    assert abs(folded - round(folded)) < 1e-9
    assert abs(full - round(full)) < 1e-9


@given(
    st.lists(st.integers(-100, 100), min_size=1, max_size=24),
    st.integers(0, 3_072),
)
@settings(max_examples=60, deadline=None)
def test_half_loop_kernel_matches_the_full_loop(rates, extra):
    # Sample counts of both residues mod 8, from the unwrap-safe minimum up
    # to 12 288 more.
    assert_folded_matches_the_full_loop(rates, 4 * sum(map(abs, rates)) + 16 + 4 * extra)


@pytest.mark.parametrize(
    "rates, samples",
    [
        ((4, 4, 5, 14), 4 * 27 + 16),  # the minimum, L = 31
        ((7,), 48),  # a single rate, L = 12
        ((-7,), 44),
        ((0, 0, 9, 0), 52),  # all rates zero but one
        ((0, -3, 0), 28),
    ]
    # L = N/4 from 2045 to 2050: ceil(L/2) across 1024, with both parities.
    + [((3, -1, 5), n) for n in range(8180, 8204, 4)]
    # ceil(L/2) near 2048 from N = 4c (L = c), and near 8192 from N = 16c.
    + [((3, -1, 5), n) for c in range(4095, 4098) for n in (4 * c, 16 * c)]
    # Long columns: ceil(L/2) at 4095, 4096 and 4097 from N = 8c (L = 2c)
    # and N = 8c - 4 (L = 2c - 1), with the lone middle increment at
    # N = 32772.
    + [((3, -1, 5), n) for c in range(4095, 4098) for n in (8 * c, 8 * c - 4)],
)
def test_half_loop_kernel_edge_cases(rates, samples):
    assert_folded_matches_the_full_loop(rates, samples)


@pytest.mark.parametrize(
    "samples, gathered",
    [
        (4 * 15 + 16, 3 * 10),  # N = 76: L = 19
        (4 * 15 + 20, 3 * 10),  # N = 80: L = 20
        (32768, 3 * 4096),
    ],
)
def test_winding_kernel_gathers_half_a_period(monkeypatch, samples, gathered):
    # The increments have period L = N/4, and a period is a palindrome, so
    # each nonzero rate is gathered at the samples 1..ceil(L/2) only.
    rates = (3, 0, -5, 7, 0)
    counts = []

    def counting_strided(table, start, step, count):
        values = _strided(table, start, step, count)
        counts.append(len(values))
        return values

    monkeypatch.setattr(cz_paths, "_strided", counting_strided)
    turns = unwrapped_winding_phase(rates, samples) / (2 * math.pi)
    assert round(turns) == sum(rates)
    assert sum(counts) == gathered


def test_root_table_mirrors_are_exact():
    for n in [*range(4, 260, 4), 16380, 16384, 9996]:
        roots = _roots(n)
        assert len(roots) == n
        assert all(abs(z - cmath.rect(1.0, 2 * math.pi * m / n)) < 1e-14 for m, z in enumerate(roots)), n
        assert all(roots[(n - m) % n] == roots[m].conjugate() for m in range(n)), n
        h = n // 2
        assert all(roots[(m + h) % n] == -roots[m] for m in range(n)), n
        assert all(roots[(h - m) % n] == -roots[m].conjugate() for m in range(n)), n
        q = n // 4
        assert all(roots[(m + q) % n] == complex(-roots[m].imag, roots[m].real) for m in range(n)), n


@given(
    st.lists(st.integers(-100, 100), min_size=1, max_size=8),
    st.integers(0, 16),
)
@settings(max_examples=60, deadline=None)
def test_skipped_products_are_exact_mirrors_of_formed_ones(rates, extra):
    # P_k formed as the kernel forms it: one table root per rate, multiplied
    # in rate order. P_{N/2-k} = s*conj(P_k) and P_{k+N/2} = s*P_k with
    # s = (-1)^(sum of rates), and P_{N/4-k} = c*conj(P_k) and
    # P_{k+N/4} = c*P_k with c = i^(sum of rates), applied as a swap and
    # negation of the parts. Equal as floats, not merely close: no rounding
    # of the table or of the products enters the fold.
    n = 4 * sum(map(abs, rates)) + 16 + 4 * extra
    roots = _roots(n)
    loop = [functools.reduce(operator.mul, [roots[r * k % n] for r in rates]) for k in range(n)]
    h = n // 2
    sign = operator.neg if sum(rates) % 2 else operator.pos
    assert all(loop[(h - k) % n] == sign(loop[k].conjugate()) for k in range(n))
    assert all(loop[(k + h) % n] == sign(loop[k]) for k in range(n))
    q = n // 4
    turn = [
        operator.pos,
        lambda z: complex(-z.imag, z.real),
        operator.neg,
        lambda z: complex(z.imag, -z.real),
    ][sum(rates) % 4]
    assert all(loop[(q - k) % n] == turn(loop[k].conjugate()) for k in range(n))
    assert all(loop[(k + q) % n] == turn(loop[k]) for k in range(n))


@pytest.mark.parametrize("eval_budget", [None, "x", 1.5e6])
def test_det_winding_refuses_a_budget_that_is_not_an_integer(eval_budget):
    with pytest.raises(DomainError, match="evaluation budget must be an integer"):
        det_winding([1], eval_budget)


def test_det_winding_refuses_rates_that_are_not_a_list():
    with pytest.raises(DomainError, match="det_winding rates must be a list of integers, not int"):
        det_winding(5)


@pytest.mark.parametrize(
    "rates, eval_budget",
    [
        ([10**20], None),  # 4e20 samples
        ([1] * 2000, None),  # 8016 samples x 2000 rates
        ([4, 4, 5, 14], 495),  # 4 rates x 124 samples, one over the budget
    ],
)
def test_det_winding_refuses_work_over_the_budget_before_sampling(monkeypatch, rates, eval_budget):
    def kernel_must_not_run(rates, samples):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(cz_paths, "unwrapped_winding_phase", kernel_must_not_run)
    budget = eval_budget or DEFAULT_EVAL_BUDGET
    samples = 4 * sum(rates) + 16
    match = rf"\({len(rates)} rates x {samples} samples\) than the evaluation budget {budget}$"
    with pytest.raises(DomainError, match=match):
        det_winding(rates, budget)


def test_det_winding_refuses_a_phase_that_is_not_a_whole_number_of_turns(monkeypatch):
    # A kernel 0.2*pi off the true phase 2*pi*27 leaves a residual of a tenth of a turn.
    monkeypatch.setattr(cz_paths, "unwrapped_winding_phase", lambda rates, samples: 2 * math.pi * 27.1)
    with pytest.raises(ConvergenceError, match="phase unwrap residual 0.1000 exceeds 0.01") as info:
        det_winding([4, 4, 5, 14])
    assert info.value.achieved_error == pytest.approx(0.1)
