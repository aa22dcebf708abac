"""The frozen value classes against a ``dataclasses`` reference.

Every result type of the package is made by ``numerics._frozen``, which
generates no code.  Each test here builds, from the class's own
namespace, the ``dataclass(frozen=True)`` it replaced and holds the two
to the same construction, equality, hash and repr, and checks what a
value class must keep on its own: refused assignment, cached reads
outside the fields, and copy and pickle round-trips.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import practica
from practica import (
    ExhaustionStep,
    HeronIdentityReport,
    Interval,
    MeanPropProblem,
    MeanPropResult,
    PiBounds,
    Point2,
    PointBounds,
    PolygonBounds,
    Precision,
    RatioVerdict,
    RootExtraction,
    SpecialNumbers,
    TriangleSides,
    TriangleVertices,
    exhaustion_report,
    extract_root,
    solve_philo,
    verify_heron_identity,
)
from practica.root_extraction import TraceStep


def _fields_of(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__match_args__)


_REPORT = verify_heron_identity(TriangleVertices(Point2(0, 0), Point2(14, 0), Point2(5, 12)), Precision(10))
_SWAPPED = MeanPropProblem(Fraction(1, 2), Fraction(3), Fraction(1, 10 ** 6))
_EXTRACTION = extract_root(239483190, 3)

#: Constructor arguments for each value class, as a caller passes them.
ARGUMENTS = {
    Precision: (30,),
    Interval: (1, Fraction(22, 7)),
    Point2: (Fraction(1, 3), 2),
    PointBounds: (Interval(0, 1), Interval(1, 2)),
    TriangleSides: (3, 4, Fraction(5)),
    TriangleVertices: (Point2(0, 0), Point2(4, 0), Point2(0, 3)),
    HeronIdentityReport: _fields_of(_REPORT),
    PolygonBounds: (6, Interval(3, 3), Interval(Fraction(7, 2), 4)),
    PiBounds: (Fraction(223, 71), Fraction(22, 7), 96, Precision(1)),
    RatioVerdict: (Interval(Fraction(3, 4), Fraction(4, 5)),),
    ExhaustionStep: _fields_of(exhaustion_report(1, Precision(10))[0]),
    MeanPropProblem: (Fraction(1, 2), 3, Fraction(1, 10 ** 6)),
    MeanPropResult: _fields_of(solve_philo(_SWAPPED)),
    SpecialNumbers: (3, (300, 30)),
    TraceStep: _fields_of(_EXTRACTION.steps[1]),
    RootExtraction: _fields_of(_EXTRACTION),
}
CLASSES = list(ARGUMENTS)

#: What the class decorator adds; the rest of the namespace is the class body.
_ADDED = {
    "__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
    "__getstate__", "__setstate__", "__match_args__", "_fields",
    "__slots__", "__dict__", "__weakref__",
}


def _reference(cls):
    """The ``dataclass(frozen=True)`` with the class's body: its derived
    fields are ``init=False``, and a class with ``__slots__`` is slotted."""
    own = vars(cls)
    slotted = "__slots__" in own
    body = {name: value for name, value in own.items()
            if name not in _ADDED and not (slotted and name in own["__slots__"])}
    for name in set(cls._fields) - set(cls.__match_args__):
        body[name] = dataclasses.field(init=False, default=own[name])
    return dataclasses.dataclass(frozen=True, slots=slotted)(type(cls.__name__, (), body))


REFERENCES = {cls: _reference(cls) for cls in CLASSES}


def _pair(cls):
    args = ARGUMENTS[cls]
    return cls(*args), REFERENCES[cls](*args)


def test_every_value_class_is_covered():
    found = {
        value
        for module in (practica.numerics, practica.geometry, practica.heron,
                       practica.circle_measurement, practica.mean_proportionals,
                       practica.root_extraction)
        for value in vars(module).values()
        if isinstance(value, type) and "_fields" in vars(value)
    }
    assert found == set(CLASSES)
    assert len(CLASSES) == 16


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_and_match_args_are_the_references(cls):
    reference = REFERENCES[cls]
    assert cls._fields == tuple(f.name for f in dataclasses.fields(reference))
    assert cls.__match_args__ == reference.__match_args__


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_construction_equality_hash_and_repr_match_the_reference(cls):
    value, expected = _pair(cls)
    assert repr(value) == repr(expected)
    assert _fields_of(value) == _fields_of(expected)
    assert hash(value) == hash(expected) == hash(tuple(getattr(value, n) for n in cls._fields))
    keywords = dict(zip(cls.__match_args__, ARGUMENTS[cls]))
    assert cls(**keywords) == value
    assert hash(cls(**keywords)) == hash(value)
    assert not cls(**keywords) != value
    # only instances of the same class compare equal
    assert value != expected and not value == expected
    assert value != _fields_of(value)
    assert all(value != other(*ARGUMENTS[other]) for other in CLASSES if other is not cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_bad_arguments_raise_type_error_like_the_reference(cls):
    args = ARGUMENTS[cls]
    first = cls.__match_args__[0]
    calls = {
        "none": ((), {}),
        "extra": ((*args, 0), {}),
        "unknown": (args, {"unknown": 0}),
        "repeated": (args, {first: args[0]}),
    }
    last = [f for f in dataclasses.fields(REFERENCES[cls]) if f.init][-1]
    if last.default is dataclasses.MISSING:
        calls["missing"] = (args[:-1], {})
    for positional, keywords in calls.values():
        for make in (cls, REFERENCES[cls]):
            with pytest.raises(TypeError):
                make(*positional, **keywords)


def test_defaults_and_derived_fields_match_the_reference():
    value, expected = MeanPropProblem(3, Fraction(1, 2)), REFERENCES[MeanPropProblem](3, Fraction(1, 2))
    assert repr(value) == repr(expected)
    assert value.tol == MeanPropProblem.tol == Fraction(1, 10 ** 12)
    assert (value.swapped, _SWAPPED.swapped) == (False, True)
    assert repr(_SWAPPED) == repr(REFERENCES[MeanPropProblem](*ARGUMENTS[MeanPropProblem]))
    assert _SWAPPED != MeanPropProblem(3, Fraction(1, 2), Fraction(1, 10 ** 6))
    with pytest.raises(TypeError):
        MeanPropProblem(Fraction(1, 2), 3, swapped=True)
    with pytest.raises(TypeError):
        REFERENCES[MeanPropProblem](Fraction(1, 2), 3, swapped=True)


def test_post_init_still_checks_and_converts():
    assert Interval(1, 2).lo.__class__ is Fraction
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(ValueError):
        Precision(0)
    with pytest.raises(ValueError):
        TriangleSides(1, 2, 3)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise_attribute_error(cls):
    value = cls(*ARGUMENTS[cls])
    for name in (*cls._fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == repr(cls(*ARGUMENTS[cls]))


def test_layouts_are_kept():
    step = TraceStep(*ARGUMENTS[TraceStep])
    assert not hasattr(step, "__dict__")
    assert TraceStep.__slots__ == TraceStep._fields
    made = Interval._of(Fraction(1), Fraction(2))
    assert made.__dict__ == {"lo": Fraction(1), "hi": Fraction(2)}
    assert made == Interval(1, 2) and hash(made) == hash(Interval(1, 2))


def test_cached_reads_leave_equality_and_hash_unchanged():
    problem, fresh = (MeanPropProblem(*ARGUMENTS[MeanPropProblem]) for _ in range(2))
    extraction, fresh_extraction = (RootExtraction(*ARGUMENTS[RootExtraction]) for _ in range(2))
    before = [(repr(v), hash(v)) for v in (problem, extraction)]
    assert problem.width_target and problem._lines and problem._digits
    assert extraction.steps == _EXTRACTION.steps
    assert [(repr(v), hash(v)) for v in (problem, extraction)] == before
    assert problem == fresh and extraction == fresh_extraction


def _round_trips(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_compare_equal(cls):
    value = cls(*ARGUMENTS[cls])
    for twin in _round_trips(value):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def test_a_swapped_problem_and_a_slotted_step_survive_copies():
    # rebuilding a problem from its arguments would lose swapped=True
    for twin in _round_trips(_SWAPPED):
        assert twin.swapped and twin == _SWAPPED
    step = _EXTRACTION.steps[1]
    for twin in _round_trips(step):
        assert twin == step and not hasattr(twin, "__dict__")
        assert (twin.point_value, twin.subtrahend) == (step.point_value, step.subtrahend)
