import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czorb.errors import DomainError, NonCoprimeError
from czorb.weights import (
    _product,
    invariants,
    make_weight_vector,
    symplectic_area,
)

# random lists normalized by their gcd: always a valid weight vector
weight_vectors = st.lists(st.integers(1, 200), min_size=2, max_size=8).map(
    lambda xs: make_weight_vector([x // math.gcd(*xs) for x in xs])
)


@st.composite
def clustered_weight_vectors(draw):
    """Lengths 2-40; each drawn prime multiplies every entry but one, so
    the omitted entry's d_j picks up that prime."""
    xs = draw(st.lists(st.integers(1, 60), min_size=2, max_size=40))
    for p in draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=3)):
        skip = draw(st.integers(0, len(xs) - 1))
        xs = [x if j == skip else p * x for j, x in enumerate(xs)]
    g = math.gcd(*xs)
    return make_weight_vector([x // g for x in xs])


def _omit(values, j):
    return values[:j] + values[j + 1 :]


def test_make_weight_vector_examples():
    assert make_weight_vector([4, 4, 5, 14]).w == (4, 4, 5, 14)
    assert make_weight_vector([1, 7]).w == (1, 7)
    with pytest.raises(NonCoprimeError) as excinfo:
        make_weight_vector([2, 4, 6])
    assert excinfo.value.gcd == 2
    assert excinfo.value.weights == (2, 4, 6)
    assert str(excinfo.value) == "weights in (2, 4, 6) share a common factor: gcd=2"


def test_non_coprime_error_requires_its_weights():
    with pytest.raises(TypeError):
        NonCoprimeError(2)


def test_make_weight_vector_rejects_bad_input():
    with pytest.raises(DomainError):
        make_weight_vector([5])
    with pytest.raises(DomainError):
        make_weight_vector([])
    with pytest.raises(DomainError):
        make_weight_vector([0, 3])
    with pytest.raises(DomainError):
        make_weight_vector([-1, 2])


def test_make_weight_vector_refuses_an_argument_that_is_not_a_list():
    with pytest.raises(DomainError, match="weights must be a list of integers, not int"):
        make_weight_vector(5)


def test_make_weight_vector_returns_a_weight_vector_unchanged():
    wv = make_weight_vector([4, 4, 5, 14])
    assert make_weight_vector(wv) is wv


def test_a_weight_vector_reads_as_the_sequence_of_its_weights():
    wv = make_weight_vector([4, 4, 5, 14])
    assert list(wv) == list(wv.w)
    assert len(wv) == len(wv.w) == 4
    assert wv[-1] == wv.w[-1] == 14
    assert list(invariants(wv).reduced) == list(invariants(wv).reduced.w)


def test_invariants_worked_example():
    inv = invariants(make_weight_vector([4, 4, 5, 14]))
    assert inv.sum == 27
    assert inv.product == 1120
    assert inv.d == (1, 1, 2, 1)
    assert inv.e == (2, 2, 1, 2)
    assert inv.a_w == 2
    assert inv.reduced.w == (2, 2, 5, 7)
    assert inv.well_formed is False


def test_invariants_all_ones():
    inv = invariants(make_weight_vector([1, 1, 1]))
    assert inv.d == (1, 1, 1)
    assert inv.a_w == 1
    assert inv.reduced.w == (1, 1, 1)
    assert inv.well_formed is True


def test_invariants_teardrop():
    inv = invariants(make_weight_vector([1, 5]))
    assert inv.d == (5, 1)
    assert inv.e == (1, 5)
    assert inv.a_w == 5
    assert inv.reduced.w == (1, 1)
    assert inv.well_formed is False


def test_symplectic_area_examples():
    assert symplectic_area(make_weight_vector([1, 1])) == -1
    assert symplectic_area(make_weight_vector([4, 4, 5, 14])) == Fraction(-1, 1120)
    assert symplectic_area(make_weight_vector([1, 3])) == Fraction(-1, 3)


@given(weight_vectors)
@settings(max_examples=300)
def test_d_pairwise_coprime_and_a_w_product(wv):
    inv = invariants(wv)
    for i in range(len(inv.d)):
        for j in range(i + 1, len(inv.d)):
            assert math.gcd(inv.d[i], inv.d[j]) == 1
    assert inv.a_w == math.prod(inv.d)


@given(weight_vectors)
@settings(max_examples=300)
def test_e_divides_w(wv):
    inv = invariants(wv)
    for wj, ej in zip(wv.w, inv.e):
        assert wj % ej == 0


@given(weight_vectors)
@settings(max_examples=300)
def test_reduction_closure(wv):
    inv = invariants(wv)
    assert math.gcd(*inv.reduced.w) == 1
    assert invariants(inv.reduced).well_formed is True


@given(weight_vectors)
@settings(max_examples=300)
def test_well_formed_characterizations_agree(wv):
    inv = invariants(wv)
    assert inv.well_formed == all(dj == 1 for dj in inv.d)
    assert inv.well_formed == (inv.a_w == 1)
    assert inv.well_formed == (inv.reduced.w == wv.w)


@given(weight_vectors)
@settings(max_examples=300)
def test_area_times_degree_is_minus_one(wv):
    assert symplectic_area(wv) * math.prod(wv.w) == -1


def assert_invariants_match_the_omit_one_definition(wv):
    w = wv.w
    d = tuple(math.gcd(*_omit(w, j)) for j in range(len(w)))
    e = tuple(math.lcm(*_omit(d, j)) for j in range(len(d)))
    inv = invariants(wv)
    assert inv.sum == sum(w)
    assert inv.product == math.prod(w)
    assert inv.d == d
    assert inv.e == e
    assert inv.a_w == math.lcm(*d)
    assert inv.reduced.w == tuple(wj // ej for wj, ej in zip(w, e))
    assert inv.well_formed == all(dj == 1 for dj in d)


@given(clustered_weight_vectors())
@settings(max_examples=300)
def test_invariants_match_the_omit_one_definition(wv):
    assert_invariants_match_the_omit_one_definition(wv)


def _long_vector(seed, shared_prime, j0=None, length=500):
    """Built like the benchmark's long invariants inputs: entries up to
    10**4, and with a prime that divides every entry but the one at j0
    (drawn when not given), so that d_j0 is that prime and a_w > 1."""
    rng = random.Random(seed)
    w = [rng.randint(1, 10**4) for _ in range(length)]
    if shared_prime is not None:
        j0 = rng.randrange(len(w)) if j0 is None else j0
        w = [x if j == j0 else x * shared_prime for j, x in enumerate(w)]
        while w[j0] % shared_prime == 0:
            w[j0] += 1
    return make_weight_vector([x // math.gcd(*w) for x in w])


@pytest.mark.parametrize("shared_prime", [None, 7])
def test_invariants_of_a_long_vector_match_the_omit_one_definition(shared_prime):
    wv = _long_vector(f"long/{shared_prime}", shared_prime)
    assert_invariants_match_the_omit_one_definition(wv)
    assert invariants(wv).well_formed is (shared_prime is None)


@pytest.mark.parametrize("j0", [0, 1, 498, 499])
def test_invariants_with_the_odd_entry_at_an_edge_of_the_prefix_scan(j0):
    # The prefix gcds stay multiples of 5 up to the odd entry j0, so the
    # prefix scan stops within the first three entries (j0 = 0, 1) or runs
    # to the last one (j0 = 498, 499).
    wv = _long_vector(f"edge/{j0}", 5, j0)
    assert_invariants_match_the_omit_one_definition(wv)
    assert invariants(wv).d[j0] % 5 == 0


def test_invariants_of_a_well_formed_vector_reduce_to_the_vector_itself():
    wv = make_weight_vector([2, 3, 5, 7])
    inv = invariants(wv)
    assert inv.e == inv.d == (1, 1, 1, 1)
    assert inv.reduced is wv


@given(st.lists(st.integers(-(10**6), 10**6), max_size=300))
@settings(max_examples=200)
def test_product_is_math_prod(xs):
    assert _product(tuple(xs)) == math.prod(xs)


def test_product_of_a_long_vector_is_math_prod():
    rng = random.Random("product/3000")
    w = tuple(rng.randint(1, 10**4) for _ in range(3000))
    assert _product(w) == math.prod(w)


class _Int(int):
    pass


def _long_entries(seed):
    """2000 entries past check_ints' short-input length; the leading 1 makes
    their gcd 1."""
    rng = random.Random(seed)
    return [1] + [rng.randint(1, 10**4) for _ in range(1999)]


@pytest.mark.parametrize("where", [0, 1000, 1999])
@pytest.mark.parametrize(
    "bad, message",
    [
        (True, "weights must be integers, got True"),
        (0, "weights must be positive, got 0"),
        (_Int(0), "weights must be positive, got 0"),
    ],
)
def test_a_bad_entry_of_a_long_vector_is_named(where, bad, message):
    w = _long_entries(where)
    w[where] = bad
    with pytest.raises(DomainError, match=f"^{message}$"):
        make_weight_vector(w)


@pytest.mark.parametrize("where", [0, 1000, 1999])
def test_a_long_vector_accepts_an_int_subclass(where):
    w = _long_entries(where)
    w[where] = _Int(w[where])
    assert make_weight_vector(w).w == tuple(w)
