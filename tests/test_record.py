"""The value classes keep the semantics of frozen dataclasses: repr,
equality, hashing, immutability, copy, pickle and constructor parameters."""

import copy
import inspect
import pickle

import pytest

from czorb import (
    AbelianGroupDescriptor,
    Branch,
    BrieskornExponents,
    CZReport,
    QuadratureResult,
    TheoremCheck,
    WCISpace,
    WeightInvariants,
    WeightVector,
    WindingResult,
)
from czorb.errors import DomainError
from czorb.exact_arith import Factorization

# One builder per class, and the repr that the frozen dataclass printed for
# the record it builds.
CASES = {
    "WeightVector": (lambda: WeightVector((4, 4, 5, 14)), "WeightVector(w=(4, 4, 5, 14))"),
    "WeightInvariants": (
        lambda: WeightInvariants(5, 6, (3, 2), (2, 3), 6, WeightVector((1, 1)), False),
        "WeightInvariants(sum=5, product=6, d=(3, 2), e=(2, 3), a_w=6, reduced=WeightVector(w=(1, 1)), "
        "well_formed=False)",
    ),
    "WCISpace": (
        lambda: WCISpace(WeightVector((1, 1, 1, 1, 1)), (3,)),
        "WCISpace(weights=WeightVector(w=(1, 1, 1, 1, 1)), degrees=(3,))",
    ),
    "BrieskornExponents": (
        lambda: BrieskornExponents((2, 3, 5, 6)),
        "BrieskornExponents(a=(2, 3, 5, 6))",
    ),
    "TheoremCheck": (
        lambda: TheoremCheck(b=27, simply_connected=True, simply_connected_reason="orbifolds"),
        "TheoremCheck(b=27, simply_connected=True, simply_connected_reason='orbifolds', "
        "manifold_condition='assumed, not checked')",
    ),
    "WindingResult": (lambda: WindingResult(-1, 0.25, 28), "WindingResult(winding=-1, residual=0.25, samples=28)"),
    "QuadratureResult": (
        lambda: QuadratureResult(value=-0.5, estimated_error=2.5e-12, evaluations=63),
        "QuadratureResult(value=-0.5, estimated_error=2.5e-12, evaluations=63)",
    ),
    "CZReport": (
        lambda: CZReport(8, Branch.NONPRINCIPAL_WPS, notes=("a note",)),
        "CZReport(index=8, branch=<Branch.NONPRINCIPAL_WPS: 'nonprincipal-wps'>, extrapolated=False, "
        "b_constant=None, notes=('a note',))",
    ),
    "Factorization": (
        lambda: Factorization(((2, 3), (3, 2), (5, 1))),
        "Factorization(pairs=((2, 3), (3, 2), (5, 1)))",
    ),
    "AbelianGroupDescriptor": (
        lambda: AbelianGroupDescriptor("cyclic", order=3),
        "AbelianGroupDescriptor(kind='cyclic', rank=0, order=3)",
    ),
}
NAMES = sorted(CASES)

# The constructor parameters of each class, in order, with their defaults.
EMPTY = inspect.Parameter.empty
SIGNATURES = {
    "WeightVector": [("w", EMPTY)],
    "WeightInvariants": [(name, EMPTY) for name in ("sum", "product", "d", "e", "a_w", "reduced", "well_formed")],
    "WCISpace": [("weights", EMPTY), ("degrees", EMPTY)],
    "BrieskornExponents": [("a", EMPTY)],
    "TheoremCheck": [
        ("b", EMPTY),
        ("simply_connected", EMPTY),
        ("simply_connected_reason", EMPTY),
        ("manifold_condition", "assumed, not checked"),
    ],
    "WindingResult": [("winding", EMPTY), ("residual", EMPTY), ("samples", EMPTY)],
    "QuadratureResult": [("value", EMPTY), ("estimated_error", EMPTY), ("evaluations", EMPTY)],
    "CZReport": [("index", EMPTY), ("branch", EMPTY), ("extrapolated", False), ("b_constant", None), ("notes", ())],
    "Factorization": [("pairs", EMPTY)],
    "AbelianGroupDescriptor": [("kind", EMPTY), ("rank", 0), ("order", 0)],
}


def _subclass(name: str) -> type:
    """A module-level subclass that names no new field, so pickle finds it."""
    sub = type(f"Sub{name}", (type(CASES[name][0]()),), {"__slots__": ()})
    globals()[sub.__name__] = sub
    return sub


SUBCLASSES = {name: _subclass(name) for name in NAMES}

# A last field that differs from the one CASES builds; the classes with a
# rule need one that passes it.
OTHER_LAST = {"WeightVector": (1, 2), "WCISpace": (2,), "BrieskornExponents": (2, 3, 5, 7)}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_frozen_dataclass_text(name):
    build, text = CASES[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_records_with_equal_hashes(name):
    build, _ = CASES[name]
    one, two = build(), build()
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_a_record_equals_no_other_class_and_no_tuple(name):
    build, _ = CASES[name]
    record = build()
    fields = _fields(record)

    class Other(type(record)):
        __slots__ = ()

    assert record != Other(*fields) and Other(*fields) != record
    assert record != fields and fields != record
    for other_name in NAMES:
        if other_name != name:
            assert record != CASES[other_name][0]()


@pytest.mark.parametrize("name", NAMES)
def test_a_subclass_without_new_fields_keeps_its_parents(name):
    build, text = CASES[name]
    record = build()
    fields = _fields(record)
    sub = SUBCLASSES[name](*fields)
    assert repr(sub) == "Sub" + text
    assert sub == SUBCLASSES[name](*fields)
    assert sub != SUBCLASSES[name](*fields[:-1], OTHER_LAST.get(name, "other"))
    assert hash(sub) == hash(record)
    clone = pickle.loads(pickle.dumps(sub))
    assert type(clone) is type(sub) and clone == sub and repr(clone) == repr(sub)


@pytest.mark.parametrize("name", NAMES)
def test_constructor_signature(name):
    record = CASES[name][0]()
    cls = type(record)
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in params] == SIGNATURES[name]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    required = _fields(record)[: sum(p.default is EMPTY for p in params)]
    cls(*required)
    with pytest.raises(TypeError):
        cls(*required[:-1])
    with pytest.raises(TypeError):
        cls(*required, unknown=0)


def test_a_record_class_that_would_be_built_wrong_is_refused():
    from czorb.record import Record

    def init(self, w):
        pass

    with pytest.raises(TypeError, match="writes no __init__"):
        type("OwnInit", (Record,), {"__slots__": ("w",), "__init__": init})
    with pytest.raises(TypeError, match="adds no fields"):
        type("MoreFields", (WeightVector,), {"__slots__": ("extra",)})


def test_records_of_two_classes_with_the_same_field_values_differ():
    assert WindingResult(1, 0.5, 3) != QuadratureResult(1, 0.5, 3)
    assert WindingResult(1, 0.5, 3) != WindingResult(1, 0.5, 4)


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, text = CASES[name]
    record = build()
    for field in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert repr(record) == text


@pytest.mark.parametrize("name", NAMES)
def test_copy_deepcopy_and_pickle_give_an_equal_record(name):
    build, _ = CASES[name]
    record = build()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record
        assert hash(clone) == hash(record)


@pytest.mark.parametrize("cls", [WeightVector, WCISpace, BrieskornExponents])
def test_a_refusal_frame_names_the_record_being_built(cls):
    filename = f"<czorb record {cls.__qualname__}>"
    assert cls.__init__.__code__.co_filename == cls._unchecked.__func__.__code__.co_filename == filename
    with pytest.raises(DomainError) as refusal:
        cls(*[()] * len(cls._fields))
    frames = []
    tb = refusal.value.__traceback__
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_filename)
        tb = tb.tb_next
    assert filename in frames and "<string>" not in frames
