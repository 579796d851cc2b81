import copy
import math
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import czorb
from czorb.cz_indices import mu_orbit_brieskorn, mu_principal_brieskorn
from czorb.errors import DomainError
from czorb.spaces import (
    BrieskornExponents,
    WCISpace,
    b_constant,
    brieskorn_to_wci,
    check_theorem_hypotheses,
    compute_l2,
    make_brieskorn_exponents,
    make_wci_space,
)
from czorb.weights import WeightVector, invariants, make_weight_vector


def test_compute_l2_examples():
    assert compute_l2([4, 4, 4]) == 4
    assert compute_l2([2, 3, 5, 7]) == 1
    assert compute_l2([2, 4, 8]) == 4
    assert compute_l2([12, 12, 5]) == 12  # tied maximum at 2 and 3
    assert compute_l2([8, 8, 8, 3]) == 8  # tied maximum; 3 divides one entry
    assert compute_l2([2, 3, 5, 49]) == 1  # each prime divides one entry
    assert compute_l2([4, 6, 9, 10]) == 6  # 5 divides one entry
    assert compute_l2([7]) == 1
    for c in (2, 360, 2 * 3 * 5 * 7 * 11):  # constant vectors: l2 = lcm
        assert compute_l2([c] * 3) == c


def test_compute_l2_rejects_bad_input():
    with pytest.raises(DomainError):
        compute_l2([])
    with pytest.raises(DomainError):
        compute_l2([1, 2, 3])


def test_compute_l2_refuses_an_argument_that_is_not_a_list():
    with pytest.raises(DomainError, match="compute_l2 entries must be a list of integers, not int"):
        compute_l2(5)


@pytest.mark.parametrize("bad", [2.5, True])
def test_compute_l2_refuses_non_integers(bad):
    with pytest.raises(DomainError, match=f"compute_l2 entries must be integers, got {bad!r}"):
        compute_l2([bad, 3])


def brute_force_l2(a) -> int:
    """Second-largest p-adic valuation per prime of lcm(a), by trial and
    repeated division, with no helper from czorb."""
    primes = set()
    for x in a:
        p = 2
        while p * p <= x:
            while x % p == 0:
                primes.add(p)
                x //= p
            p += 1
        if x > 1:
            primes.add(x)
    l2 = 1
    for p in primes:
        vals = []
        for x in a:
            v = 0
            while x % p == 0:
                x //= p
                v += 1
            vals.append(v)
        vals.sort(reverse=True)
        if len(vals) > 1:
            l2 *= p ** vals[1]
    return l2


_prime_powers = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 3)), min_size=1, max_size=3
).map(lambda pes: math.prod(p**e for p, e in pes))
l2_vectors = st.lists(_prime_powers.filter(lambda x: x >= 2), min_size=1, max_size=8)


@given(l2_vectors)
@settings(max_examples=300)
def test_compute_l2_matches_brute_force_valuations(a):
    assert compute_l2(a) == brute_force_l2(a)


def test_compute_l2_of_large_primes_needs_no_factoring():
    # Each of four primes near 10**12 divides two entries, so l2 = p*q*r*s.
    # Run in a child so that a factoring regression times out, not hangs.
    p, q, r, s = 999999999989, 999999999959, 999999999937, 1000000000039
    probe = f"from czorb.spaces import compute_l2; print(compute_l2([{p * q}, {p * r}, {q * s}, {r * s}]))"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(czorb.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=20)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == p * q * r * s


def test_make_brieskorn_exponents():
    be = make_brieskorn_exponents([2, 2, 2, 5])
    assert be.l == 10
    assert be.l2 == 2
    assert make_brieskorn_exponents(be) is be
    with pytest.raises(DomainError):
        make_brieskorn_exponents([2, 2, 5])  # too short
    with pytest.raises(DomainError):
        make_brieskorn_exponents([1, 2, 2, 2])  # exponent 1 is a coordinate change


@given(st.lists(_prime_powers.filter(lambda x: x >= 2), min_size=4, max_size=8))
@settings(max_examples=300)
def test_make_brieskorn_exponents_works_out_l_and_l2_from_the_exponents(a):
    be = make_brieskorn_exponents(a)
    assert be == BrieskornExponents(tuple(a))
    assert (be.l, be.l2) == (math.lcm(*a), brute_force_l2(a))


@pytest.mark.parametrize("bad", [2.5, True, "3"])
def test_make_brieskorn_exponents_refuses_non_integers(bad):
    with pytest.raises(DomainError, match=f"Brieskorn exponents must be integers, got {bad!r}"):
        make_brieskorn_exponents([bad, 3, 4, 5])


def test_make_brieskorn_exponents_refuses_an_argument_that_is_not_a_list():
    with pytest.raises(DomainError, match="Brieskorn exponents must be a list of integers, not int"):
        make_brieskorn_exponents(5)


@pytest.mark.parametrize("bad", [2.5, True, 1.0])
def test_make_wci_space_refuses_non_integer_degrees(bad):
    with pytest.raises(DomainError, match=f"degrees must be integers, got {bad!r}"):
        make_wci_space([1, 1, 1, 1], [bad])


def test_make_wci_space_refuses_degrees_that_are_not_a_list():
    with pytest.raises(DomainError, match="degrees must be a list of integers, not int"):
        make_wci_space([1, 1, 1, 1, 1], 5)


def test_brieskorn_to_wci_examples():
    wci = brieskorn_to_wci(make_brieskorn_exponents([2, 2, 2, 5]))
    assert wci.weights.w == (5, 5, 5, 2)
    assert wci.degrees == (10,)

    wci = brieskorn_to_wci(make_brieskorn_exponents([3, 3, 3, 3]))
    assert wci.weights.w == (1, 1, 1, 1)
    assert wci.degrees == (3,)

    wci = brieskorn_to_wci(make_brieskorn_exponents([2, 3, 5, 7]))
    assert wci.weights.w == (105, 70, 42, 30)
    assert wci.degrees == (210,)


def test_wci_codimension_bound():
    with pytest.raises(DomainError):
        make_wci_space([1, 1, 1, 1], [2, 2])  # r=2 > n-2=1
    ok = make_wci_space([1, 1, 1, 1, 1], [2, 2])  # r=2 <= n-2=2
    assert ok.r == 2
    with pytest.raises(DomainError):
        make_wci_space([1, 1, 1, 1], [])
    with pytest.raises(DomainError):
        make_wci_space([1, 1, 1, 1], [0])


def test_check_theorem_hypotheses_wps():
    report = check_theorem_hypotheses(make_weight_vector([4, 4, 5, 14]))
    assert report.b == 27
    assert report.simply_connected is True
    assert report.manifold_condition == "assumed, not checked"


def test_check_theorem_hypotheses_wci():
    report = check_theorem_hypotheses(make_wci_space([5, 5, 5, 2], [10]))
    assert report.b == 7
    assert report.simply_connected is True


def test_check_theorem_hypotheses_refuses_other_types():
    with pytest.raises(DomainError, match="not BrieskornExponents"):
        check_theorem_hypotheses(make_brieskorn_exponents([2, 2, 2, 5]))


def random_exponents(rng: random.Random) -> list[int]:
    n = rng.randint(3, 8)
    return [rng.randint(2, 30) for _ in range(n + 1)]


def test_converted_weights_properties_random():
    # brieskorn_to_wci does not check the weights it builds; this is the
    # property it relies on, on small exponents and on library-sized ones:
    # 4 to 40 exponents, each a product of two primes up to 5000.
    rng = random.Random(20817)
    primes = [p for p in range(2, 5001) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    small = [random_exponents(rng) for _ in range(2000)]
    wide = [[rng.choice(primes) * rng.choice(primes) for _ in range(rng.randint(4, 40))] for _ in range(200)]
    for a in small + wide:
        be = make_brieskorn_exponents(a)
        wci = brieskorn_to_wci(be)
        assert math.gcd(*wci.weights.w) == 1
        assert b_constant(be) == sum(be.l // x for x in be.a) - be.l
        assert be.l % be.l2 == 0
        inv = invariants(wci.weights)
        assert inv.a_w == be.l // be.l2
        assert inv.well_formed == (be.l == be.l2)


BRIESKORN_ROUTES = {
    "mu_principal_brieskorn": mu_principal_brieskorn,
    "mu_orbit_brieskorn": lambda be: mu_orbit_brieskorn(be, [0, 1, 2], True),
    "brieskorn_to_wci": brieskorn_to_wci,
    "b_constant": b_constant,
}


# Every way a record comes into being goes through its class, and so through
# its check: the constructor, by position or keyword, and copy, deepcopy and
# pickle of a record built around the check.
BUILDERS = {
    "positional": lambda cls, *fields: cls(*fields),
    "keyword": lambda cls, *fields: cls(**dict(zip(cls._fields, fields))),
    "copy": lambda cls, *fields: copy.copy(cls._unchecked(*fields)),
    "deepcopy": lambda cls, *fields: copy.deepcopy(cls._unchecked(*fields)),
    "pickle": lambda cls, *fields: pickle.loads(pickle.dumps(cls._unchecked(*fields))),
}


# The exponents of a bad record, not the record: building one refuses it.
@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize(
    "a, message",
    [
        ((-2, 3, 5, 7), "Brieskorn exponents must be >= 2, got -2"),
        ((2, 3, 5), "a Brieskorn exponent vector needs at least 4 entries, got 3"),
        ((1, 2, 3, 5), "Brieskorn exponents must be >= 2, got 1"),
        ((2, 3, 5, "7"), "Brieskorn exponents must be integers, got '7'"),
        (5, "Brieskorn exponents must be a list of integers, not int"),
    ],
    ids=["negative", "three-exponents", "exponent-1", "str-exponent", "int-a"],
)
def test_a_bad_brieskorn_record_is_refused_where_it_is_built(builder, a, message):
    with pytest.raises(DomainError) as refusal:
        BUILDERS[builder](BrieskornExponents, a)
    assert str(refusal.value) == message
    with pytest.raises(DomainError) as listed:
        make_brieskorn_exponents(a)
    assert str(listed.value) == message


def test_a_brieskorn_record_takes_no_l_or_l2():
    # l and l2 are worked out from the exponents, so a stale l2 cannot be stored.
    with pytest.raises(TypeError):
        BrieskornExponents((2, 3, 5, 7), 210, 999)
    a = [4, 6, 9, 10]
    records = [BrieskornExponents(a), BrieskornExponents(iter(a)), BrieskornExponents(tuple(a))]
    records.append(make_brieskorn_exponents(a))
    for be in records:
        assert be == records[0] and hash(be) == hash(records[0])
        assert (be.a, be.l, be.l2) == ((4, 6, 9, 10), math.lcm(*a), brute_force_l2(a)) == ((4, 6, 9, 10), 180, 6)
    with pytest.raises(AttributeError):
        records[0].l2 = 1


# Each call form that passed an l or an l2 before a record worked them out.
@pytest.mark.parametrize(
    "args, kwargs",
    [
        (((2, 3, 5, 7), 210), {}),
        (((2, 3, 5, 7), 210, 1), {}),
        (((2, 3, 5, 7),), {"l": 210}),
        (((2, 3, 5, 7),), {"l2": 1}),
        ((), {"a": (2, 3, 5, 7), "l": 210, "l2": 1}),
    ],
    ids=["positional-l", "positional-l-l2", "keyword-l", "keyword-l2", "keyword-a-l-l2"],
)
def test_a_brieskorn_record_refuses_an_l_or_l2_in_every_call_form(args, kwargs):
    with pytest.raises(TypeError):
        BrieskornExponents(*args, **kwargs)


# Whichever way a good record comes into being, it holds its checked
# exponents alone and works out l and l2 from them.
@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize(
    "a, l, l2",
    [((2, 3, 5, 7), 210, 1), ((4, 6, 9, 10), 180, 6), ((12, 12, 12, 12), 12, 12)],
    ids=["pairwise-coprime", "l2-below-l", "constant"],
)
def test_a_brieskorn_record_from_every_builder_works_out_l_and_l2(builder, a, l, l2):
    be = BUILDERS[builder](BrieskornExponents, list(a))
    made = make_brieskorn_exponents(list(a))
    assert type(be) is BrieskornExponents and be.a == a and type(be.a) is tuple
    assert be == made and hash(be) == hash(made)
    assert (be.l, be.l2) == (l, l2) == (math.lcm(*a), brute_force_l2(a))
    for name in ("l", "l2"):
        with pytest.raises(AttributeError):
            setattr(be, name, 1)


# Criterion 4 reads l2 only through a_w: the weights l/a_j have a_w = l/l2,
# and they are well-formed exactly when l2 = l.
@pytest.mark.parametrize(
    "a, l, l2, weights",
    [
        ((2, 3, 5, 7), 210, 1, (105, 70, 42, 30)),
        ((2, 3, 5, 49), 1470, 1, (735, 490, 294, 30)),
        ((4, 6, 9, 10), 180, 6, (45, 30, 20, 18)),
        ((2, 4, 8, 16), 16, 8, (8, 4, 2, 1)),
        ((2, 2, 2, 2), 2, 2, (1, 1, 1, 1)),
        ((12, 12, 5, 5), 60, 60, (5, 5, 12, 12)),
        ((6, 10, 15, 30), 30, 30, (5, 3, 2, 1)),
    ],
)
def test_a_w_of_the_brieskorn_weights_is_l_over_l2(a, l, l2, weights):
    be = BrieskornExponents(a)
    assert (be.l, be.l2) == (l, l2)
    wv = brieskorn_to_wci(be).weights
    assert wv.w == weights
    inv = invariants(wv)
    assert inv.a_w == l // l2
    assert inv.well_formed == (l2 == l)


def test_make_brieskorn_exponents_returns_any_record_as_is():
    assert make_brieskorn_exponents(make_brieskorn_exponents([2, 3, 5, 7])) == BrieskornExponents((2, 3, 5, 7))
    hand_built = BrieskornExponents((2, 3, 5, 7))
    assert make_brieskorn_exponents(hand_built) is hand_built
    with pytest.raises(DomainError, match="Brieskorn exponents must be a list of integers, not NoneType"):
        make_brieskorn_exponents(None)


@pytest.mark.parametrize("route", BRIESKORN_ROUTES)
@pytest.mark.parametrize("container", [iter, list, tuple])
def test_a_hand_built_record_answers_from_its_checked_exponents(route, container):
    # An iterator a is used up by the check, so the record must hold the checked tuple.
    expected = BRIESKORN_ROUTES[route](make_brieskorn_exponents([2, 3, 5, 7]))
    assert BRIESKORN_ROUTES[route](BrieskornExponents(container([2, 3, 5, 7]))) == expected


def test_a_hand_built_record_answers_the_values_of_its_exponents():
    assert mu_principal_brieskorn(BrieskornExponents(iter([2, 3, 5, 7]))).index == 74
    assert b_constant(BrieskornExponents(iter([2, 3, 5, 7]))) == 37


def brieskorn_outcome(route, be):
    try:
        return BRIESKORN_ROUTES[route](be)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


_PRIMES_TO_5000 = [p for p in range(2, 5001) if all(p % q for q in range(2, math.isqrt(p) + 1))]
# Shaped like perfbench's library_wide Brieskorn inputs.
library_exponents = st.lists(
    st.tuples(st.sampled_from(_PRIMES_TO_5000), st.sampled_from(_PRIMES_TO_5000)).map(math.prod),
    min_size=4,
    max_size=40,
)


@given(library_exponents)
@settings(max_examples=100, deadline=None)
def test_a_hand_built_record_answers_as_its_list_on_every_route(a):
    be = make_brieskorn_exponents(a)
    hand_built = BrieskornExponents(list(a))
    assert hand_built == be
    for route in BRIESKORN_ROUTES:
        outcome = brieskorn_outcome(route, be)
        assert brieskorn_outcome(route, hand_built) == outcome
        if route != "b_constant":  # b_constant reads a list as projective weights
            assert brieskorn_outcome(route, list(a)) == outcome


def test_a_record_keeps_its_own_tuple_after_the_callers_list_changes():
    exponents, weights, degrees = [2, 3, 5, 7], [1, 1, 1, 1, 1], [3]
    be = BrieskornExponents(exponents)
    wv = WeightVector(weights)
    wci = WCISpace(weights, degrees)
    before = [brieskorn_outcome(route, be) for route in BRIESKORN_ROUTES]
    exponents[3], weights[0], degrees[0] = -7, 2, -3
    assert [brieskorn_outcome(route, be) for route in BRIESKORN_ROUTES] == before
    assert be.a == (2, 3, 5, 7)
    assert wv.w == (1, 1, 1, 1, 1) and wci.weights == wv and wci.degrees == (3,)
