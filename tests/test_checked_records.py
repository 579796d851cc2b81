"""A WeightVector, WCISpace or BrieskornExponents is checked where it is
built, by its constructor, with the refusals of make_weight_vector,
make_wci_space and make_brieskorn_exponents; every route then trusts it."""

import copy
import math
import pickle

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from czorb import (
    BrieskornExponents,
    WCISpace,
    WeightVector,
    check_theorem_hypotheses,
    compute_l2,
    invariants,
    make_brieskorn_exponents,
    make_wci_space,
    make_weight_vector,
    mu_orbit_wps,
    mu_principal,
    symplectic_area,
)
from czorb.errors import DomainError, NonCoprimeError


def outcome(build):
    """What build() returns, or the (type, message) of its refusal. Any other
    exception fails the test."""
    try:
        return build()
    except DomainError as exc:
        return type(exc), str(exc)


# Each call once answered, or failed with an error other than a refusal, on a
# record built by hand; it is now refused where the record is built, as the
# make_* call beside it refuses the same fields. The calls are lambdas, so no
# bad record is built at import time.
REFUSED = {
    "mu_principal-gcd-2": (lambda: mu_principal(WeightVector((2, 4))), lambda: make_weight_vector([2, 4])),
    "mu_principal-negative": (lambda: mu_principal(WeightVector((-1, 3, 5))), lambda: make_weight_vector([-1, 3, 5])),
    "mu_principal-negative-degree": (
        lambda: mu_principal(WCISpace(WeightVector((1, 1, 1, 1)), (-5,))),
        lambda: make_wci_space([1, 1, 1, 1], [-5]),
    ),
    "check_theorem_hypotheses-codimension": (
        lambda: check_theorem_hypotheses(WCISpace(WeightVector((1, 1)), (2,))),
        lambda: make_wci_space([1, 1], [2]),
    ),
    "invariants-gcd-2": (lambda: invariants(WeightVector((2, 4))), lambda: make_weight_vector([2, 4])),
    "invariants-one-weight": (lambda: invariants(WeightVector((3,))), lambda: make_weight_vector([3])),
    "symplectic_area-zero": (lambda: symplectic_area(WeightVector((0, 3))), lambda: make_weight_vector([0, 3])),
    "mu_orbit_wps-float": (
        lambda: mu_orbit_wps(WeightVector((4, 4.0, 5, 14)), [0, 1]),
        lambda: make_weight_vector([4, 4.0, 5, 14]),
    ),
    "mu_principal-empty": (lambda: mu_principal(WeightVector(())), lambda: make_weight_vector([])),
    "invariants-gcd-2-of-three": (lambda: invariants(WeightVector((4, 6, 10))), lambda: make_weight_vector([4, 6, 10])),
    "mu_principal-no-degree": (
        lambda: mu_principal(WCISpace(WeightVector((1,) * 5), ())),
        lambda: make_wci_space([1] * 5, []),
    ),
}


@pytest.mark.parametrize("case", REFUSED)
def test_a_bad_hand_built_record_is_refused_where_it_is_built(case):
    call, made = REFUSED[case]
    refusal = outcome(made)
    assert refusal[0] in (DomainError, NonCoprimeError)
    assert outcome(call) == refusal


def test_a_wci_space_built_by_hand_holds_what_make_wci_space_builds():
    made = make_wci_space([1] * 5, [3])
    by_hand = [WCISpace(WeightVector((1,) * 5), [3]), WCISpace((1,) * 5, (3,)), WCISpace(iter([1] * 5), iter([3]))]
    for wci in by_hand:
        assert wci == made and hash(wci) == hash(made)
        assert type(wci.weights) is WeightVector and wci.degrees == (3,)
        assert mu_principal(wci) == mu_principal(made)
    assert mu_principal(made).index == 4


def test_a_record_built_around_its_check_is_refused_when_copied():
    # WeightVector._unchecked is for builders that proved the rule; copying rebuilds through the class.
    bad = WeightVector._unchecked((2, 4))
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        with pytest.raises(NonCoprimeError, match=r"weights in \(2, 4\) share a common factor: gcd=2"):
            clone(bad)


# Raw fields as a caller might pass them: entries of every kind, vectors of
# every length, gcd > 1, and arguments that are not lists at all.
entries = st.one_of(
    st.integers(-2, 40),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-5, max_value=50),
    st.text(max_size=2),
)
scalars = st.one_of(st.integers(-2, 5), st.none(), st.floats(allow_nan=False, allow_infinity=False))
positive = st.lists(st.integers(1, 40), max_size=7)
raw_weights = st.one_of(
    st.lists(entries, max_size=7),
    positive,
    positive.map(lambda w: [3 * x for x in w]),  # gcd >= 3
    st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=7),
    scalars,
)
raw_degrees = st.one_of(st.lists(st.one_of(st.integers(-2, 20), st.booleans(), st.floats(0, 9)), max_size=4), scalars)
raw_exponents = st.one_of(
    st.lists(entries, max_size=7),
    st.lists(st.integers(1, 40), max_size=7),
    st.lists(st.integers(2, 40), min_size=4, max_size=7),
    scalars,
)
containers = st.sampled_from([list, tuple, iter])


def fresh(raw, container):
    """A new container of the drawn entries (an iterator is used up once)."""
    return container(raw) if isinstance(raw, list) else raw


def _ints(what, values, minimum):
    """The rule for a list of integers, written out: the tuple, or the refusal
    at the first bad entry."""
    if not isinstance(values, (list, tuple)):
        return DomainError, f"{what} must be a list of integers, not {type(values).__name__}"
    for x in values:
        if type(x) is not int:
            return DomainError, f"{what} must be integers, got {x!r}"
        if x < minimum:
            return DomainError, f"{what} must be {'positive' if minimum == 1 else f'>= {minimum}'}, got {x}"
    return tuple(values)


def refused(expected) -> bool:
    """Whether a rule's answer is a (type, message) refusal."""
    return bool(expected) and isinstance(expected[0], type)


def weights_rule(raw):
    if isinstance(raw, (list, tuple)) and len(raw) < 2:
        return DomainError, f"a weight vector needs at least 2 entries, got {len(raw)}"
    w = _ints("weights", raw, 1)
    if not refused(w) and math.gcd(*w) != 1:
        return NonCoprimeError, f"weights in {w} share a common factor: gcd={math.gcd(*w)}"
    return w


def wci_rule(weights, degrees):
    w = weights_rule(weights)
    if refused(w):
        return w
    degs = _ints("degrees", degrees, 1)
    if refused(degs):
        return degs
    if not degs:
        return DomainError, "a complete intersection needs at least one degree"
    n = len(w) - 1
    if len(degs) > n - 2:
        return DomainError, f"codimension r={len(degs)} exceeds n-2={n - 2}; complex dimension would drop below 2"
    return w, degs


def exponents_rule(raw):
    if isinstance(raw, (list, tuple)) and len(raw) < 4:
        return DomainError, f"a Brieskorn exponent vector needs at least 4 entries, got {len(raw)}"
    return _ints("Brieskorn exponents", raw, 2)


def round_trips(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record and hash(clone) == hash(record)


@seed(20817)
@settings(max_examples=400, deadline=None)
@given(raw_weights, containers)
def test_a_weight_vector_built_by_hand_is_the_one_make_weight_vector_builds(raw, container):
    by_hand = outcome(lambda: WeightVector(fresh(raw, container)))
    assert by_hand == outcome(lambda: make_weight_vector(fresh(raw, container)))
    expected = weights_rule(raw)
    if refused(expected):
        assert by_hand == expected
    else:
        assert by_hand.w == expected and type(by_hand.w) is tuple
        assert make_weight_vector(by_hand) is by_hand
        round_trips(by_hand)


@seed(20817)
@settings(max_examples=400, deadline=None)
@given(raw_weights, raw_degrees, containers, st.booleans())
def test_a_wci_space_built_by_hand_is_the_one_make_wci_space_builds(raw, degrees, container, as_record):
    def weights():
        if as_record and not refused(weights_rule(raw)):
            return WeightVector(raw)
        return fresh(raw, container)

    by_hand = outcome(lambda: WCISpace(weights(), fresh(degrees, container)))
    assert by_hand == outcome(lambda: make_wci_space(weights(), fresh(degrees, container)))
    expected = wci_rule(raw, degrees)
    if refused(expected):
        assert by_hand == expected
    else:
        assert type(by_hand.weights) is WeightVector
        assert (by_hand.weights.w, by_hand.degrees) == expected
        round_trips(by_hand)


@seed(20817)
@settings(max_examples=400, deadline=None)
@given(raw_exponents, containers)
def test_a_brieskorn_record_built_by_hand_is_the_one_make_brieskorn_exponents_builds(raw, container):
    by_hand = outcome(lambda: BrieskornExponents(fresh(raw, container)))
    assert by_hand == outcome(lambda: make_brieskorn_exponents(fresh(raw, container)))
    expected = exponents_rule(raw)
    if refused(expected):
        assert by_hand == expected
    else:
        assert by_hand.a == expected and type(by_hand.a) is tuple
        assert (by_hand.l, by_hand.l2) == (math.lcm(*raw), compute_l2(raw))
        assert make_brieskorn_exponents(by_hand) is by_hand
        round_trips(by_hand)
