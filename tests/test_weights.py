import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czorb.errors import DomainError, NonCoprimeError
from czorb.weights import (
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


def test_make_weight_vector_rejects_bad_input():
    with pytest.raises(DomainError):
        make_weight_vector([5])
    with pytest.raises(DomainError):
        make_weight_vector([])
    with pytest.raises(DomainError):
        make_weight_vector([0, 3])
    with pytest.raises(DomainError):
        make_weight_vector([-1, 2])


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


@given(clustered_weight_vectors())
@settings(max_examples=300)
def test_invariants_match_the_omit_one_definition(wv):
    w = wv.w
    d = tuple(math.gcd(*_omit(w, j)) for j in range(len(w)))
    e = tuple(math.lcm(*_omit(d, j)) for j in range(len(d)))
    inv = invariants(wv)
    assert inv.d == d
    assert inv.e == e
    assert inv.a_w == math.lcm(*d)
    assert inv.reduced.w == tuple(wj // ej for wj, ej in zip(w, e))
    assert inv.well_formed == all(dj == 1 for dj in d)
