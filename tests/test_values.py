"""The package's value classes behave as frozen dataclasses with the same
fields would: construction, equality, hashing, printing, immutability and
copying.  They are built on ``config.Frozen``, which the package uses so that
no command imports ``dataclasses``; the tests compare against the real thing.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from clustertubes.arcs import PeriodicDiagram
from clustertubes.config import Frozen
from clustertubes.pieces import Cell
from clustertubes.polygons import CellKind, PolygonDiagram
from clustertubes.qpolys import QPoly
from clustertubes.series import Poly3, PowerSeries
from clustertubes.sieving import SieveRecord
from clustertubes.torsion import TorsionPair, WingDecomposition, decompose

HALF = PeriodicDiagram.from_arcs(4, [(1, 3), (0, 4)])
VALUES = [
    HALF,
    Cell((0, 1, 2), CellKind.TRIANGLE),
    PolygonDiagram(4, ((0, 2), (0, 3))),
    QPoly((1, 2, 3)),
    Poly3((((1, 0, 0), 2), ((0, 1, 1), -1))),
    PowerSeries(2, (0, 1, 2)),
    SieveRecord(6, 2, 2, 0, 0, 5, 5, True),
    TorsionPair(4, HALF, "left"),
    decompose(HALF),
    decompose(HALF).pointed_cycle(),
]
IDS = [type(value).__name__ for value in VALUES]


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


def twin(value):
    """The frozen dataclass with the value's class name, fields and values."""
    cls = dataclasses.make_dataclass(type(value).__name__, type(value).__slots__, frozen=True)
    return cls(*fields(value))


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_value_class_behaves_as_a_frozen_dataclass(value):
    cls, reference = type(value), twin(value)
    assert repr(value) == repr(reference)
    if cls is not Poly3:  # Poly3 keeps its own hash, of its terms
        assert hash(value) == hash(reference)
    assert cls.__match_args__ == reference.__match_args__
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    same = cls(*fields(value))
    assert same == value and hash(same) == hash(value)
    # The one unchecked builder is Frozen's, and builds the same value.
    assert (cls._canonical(*fields(value)) == value
            and cls._canonical.__func__ is Frozen._canonical.__func__)
    assert value != reference  # another class compares unequal
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is cls and other == value


def test_fields_differ_so_values_differ():
    assert PolygonDiagram(4, ((0, 2),)) != PolygonDiagram(4, ((0, 3),))
    assert PolygonDiagram(4) == PolygonDiagram(4, ())
    assert QPoly((1, 2, 0, 0)) == QPoly((1, 2))  # normalized as built
