"""The frozen records behave as the frozen dataclasses they replace.

Every record is checked against a frozen dataclass built by
`dataclasses.make_dataclass` from the same field names and values: the same
repr, equality by class and fields, a hash that agrees with it, and
`AttributeError` on assignment or deletion.  Memos kept in `__dict__` must
take no part in equality or hashing.  The potentials' records compare by
identity, as their `eq=False` dataclasses did, and `KernelLattice` by its
basis and component group.
"""

import inspect
import pickle
from dataclasses import make_dataclass

import numpy as np
import pytest

from sasakit import (
    CalabiYauData,
    FaceDescriptor,
    GoodnessReport,
    IntMatrix,
    KernelLattice,
    MinimizationResult,
    PotentialSample,
    ReebVector,
    SnfDecomposition,
    SymplecticPotential,
    ToricDiagram,
    TopologyReport,
    TruncatedPolytope,
    compute_gamma,
    kernel_lattice,
    lens,
    smith_normal_form,
    z5_lens,
)
from sasakit.cones import ConeSkeleton, cone_skeleton, torsion
from sasakit.lattice import Record


def _fields_of(record):
    return tuple(getattr(record, f) for f in record._fields)


def _potential(diagram):
    weights = np.full(diagram.d, 0.5)
    return (diagram, weights, np.array(diagram.normals, dtype=float), ())


def _sample():
    return tuple(np.full(shape, 0.5) for shape in [(3,), (), (3,), (3, 3), ()])


# (class, fresh field values, other field values); None marks identity equality
CASES = [
    (ToricDiagram, lambda: (3, lens(2).normals), lambda: (3, lens(3).normals)),
    (FaceDescriptor, lambda: ("edge", (0, 1), (1, 1, 1)), lambda: ("edge", (0, 2), (1, 1, 1))),
    (
        ConeSkeleton,
        lambda: _fields_of(cone_skeleton(lens(2))),
        lambda: _fields_of(cone_skeleton(z5_lens())),
    ),
    (GoodnessReport, lambda: (False, (0, 1), "why"), lambda: (True, None, None)),
    (IntMatrix, lambda: (2, 2, ((1, 2), (3, 4))), lambda: (2, 2, ((1, 2), (3, 5)))),
    (
        SnfDecomposition,
        lambda: _fields_of(smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))),
        lambda: _fields_of(smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 3]]))),
    ),
    (
        CalabiYauData,
        lambda: _fields_of(compute_gamma(lens(2))),
        lambda: _fields_of(compute_gamma(z5_lens())),
    ),
    (
        KernelLattice,
        lambda: (lens(2), torsion(lens(2))),
        lambda: (lens(3), torsion(lens(3))),
    ),
    (ReebVector, lambda: ((1.0, 2.0, 3.0),), lambda: ((1.0, 2.0, 4.0),)),
    (
        TruncatedPolytope,
        lambda: (((0, 0, 0), (1, 0, 0)),),
        lambda: (((0, 0, 0), (0, 1, 0)),),
    ),
    (
        MinimizationResult,
        lambda: (ReebVector((2.0, 2.0, 2.0)), 1 / 12, 0.0, 0, True),
        lambda: (ReebVector((2.0, 2.0, 2.0)), 1 / 12, 0.0, 0, False),
    ),
    (
        TopologyReport,
        lambda: ((2,), 0, None, "lens-type: pi1 = Z_2"),
        lambda: ((), 0, None, "S5"),
    ),
    (SymplecticPotential, lambda: _potential(lens(2)), None),
    (PotentialSample, _sample, None),
]
IDS = [case[0].__name__ for case in CASES]
BY_IDENTITY = {cls for cls, _, other in CASES if other is None}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_cases_are_every_record_and_none_writes_its_own_init():
    # every record the package defines gets the checks below, and each one's
    # __init__ is the one Record compiled from its annotations
    import sasakit.potentials  # noqa: F401  its records load only with numpy

    records = {cls for cls in _subclasses(Record) if cls.__module__.startswith("sasakit.")}
    assert records == {cls for cls, _, _ in CASES}
    for cls in records:
        assert cls.__dict__["__init__"].__code__.co_filename == "<string>", cls


def _reference(cls, values):
    """A frozen dataclass of the same name and fields, holding the same values."""
    ref = make_dataclass(cls.__name__, cls._fields, frozen=True, eq=cls not in BY_IDENTITY)
    return ref(*values)


@pytest.mark.parametrize("cls, make, other", CASES, ids=IDS)
def test_init_takes_the_annotated_fields(cls, make, other):
    params = list(inspect.signature(cls.__init__).parameters)
    assert params == ["self", *cls._fields]
    values = make()
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    for f, v in zip(cls._fields, values):
        assert getattr(by_position, f) is v
        assert getattr(by_keyword, f) is v


def test_defaults():
    assert _fields_of(GoodnessReport(good=True)) == (True, None, None)
    assert _fields_of(GoodnessReport(False, (0, 1))) == (False, (0, 1), None)
    diagram, weights, forms, _ = _potential(lens(2))
    assert SymplecticPotential(diagram, weights, forms).extras == ()


@pytest.mark.parametrize("cls, make, other", CASES, ids=IDS)
def test_wrong_arguments_raise_type_error(cls, make, other):
    values = make()
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)


@pytest.mark.parametrize("cls, make, other", CASES, ids=IDS)
def test_equality_and_hash(cls, make, other):
    a, b = cls(*make()), cls(*make())
    assert a == a and hash(a) == hash(a)
    if other is None:
        assert a != b
        return
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != cls(*other())
    # same field values in another class are not equal
    assert a != _reference(cls, make())
    assert a != _fields_of(a)


@pytest.mark.parametrize("cls, make, other", CASES, ids=IDS)
def test_memos_take_no_part_in_equality(cls, make, other):
    a, b = cls(*make()), cls(*make())
    h = hash(a)
    a.__dict__["memo"] = object()
    assert hash(a) == h
    assert (a == b) == (other is not None)
    assert repr(a) == repr(b)


def test_real_memos_take_no_part_in_equality():
    d = lens(2)
    h = hash(d)
    cone_skeleton(d)
    assert "cone_skeleton" in d.__dict__
    assert d == lens(2) and hash(d) == h
    cy = compute_gamma(d)
    h = hash(cy)
    cy.normalizer
    assert "normalizer" in cy.__dict__
    assert cy == compute_gamma(lens(2)) and hash(cy) == h
    kl = kernel_lattice(d)
    kl.basis
    assert kl == kernel_lattice(lens(2)) and hash(kl) == hash(kernel_lattice(lens(2)))


@pytest.mark.parametrize("cls, make, other", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, make, other):
    values = make()
    a = cls(*values)
    for name in (*cls._fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert all(x is v for x, v in zip(_fields_of(a), values))


@pytest.mark.parametrize("cls, make, other", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, make, other):
    values = make()
    assert repr(cls(*values)) == repr(_reference(cls, values))


@pytest.mark.parametrize(
    "record", [lens(2), IntMatrix.from_rows([[1, 2], [3, 4]])], ids=["ToricDiagram", "IntMatrix"]
)
def test_pickle_round_trip(record):
    assert pickle.loads(pickle.dumps(record)) == record
    if isinstance(record, ToricDiagram):
        cone_skeleton(record)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and cone_skeleton(copy) == cone_skeleton(record)
