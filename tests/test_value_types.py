"""Semantics of the immutable value types: group specs, subgroups, spectrum
nodes and the Burnside and ghost element vectors."""

import pytest

from btspec.burnside import BurnsideElement, GhostElement
from btspec.groups import GroupSpec
from btspec.lattice import Subgroup
from btspec.spectrum import SpectrumNode

# (type, field values by keyword) for each value type.
VALUES = [
    (GroupSpec, {"kind": "perm", "parameters": (), "generators": ((1, 0),)}),
    (Subgroup, {"members": 0b1011, "order": 3}),
    (SpectrumNode, {"node_id": 4, "fiber": "2", "residual_class": 1, "member_classes": (1, 3)}),
    (BurnsideElement, {"level": 2, "coeffs": (1, 0, -1)}),
    (GhostElement, {"level": 2, "values": (5, 3, 1)}),
]
IDS = [cls.__name__ for cls, _ in VALUES]


@pytest.mark.parametrize("cls, fields", VALUES, ids=IDS)
class TestValueTypes:
    def test_keyword_construction(self, cls, fields):
        value = cls(**fields)
        assert {name: getattr(value, name) for name in fields} == fields
        assert value == cls(*fields.values())

    def test_frozen(self, cls, fields):
        value = cls(**fields)
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        assert {name: getattr(value, name) for name in fields} == fields

    def test_equal_fields_hash_equal(self, cls, fields):
        a, b = cls(**fields), cls(**fields)
        assert a == b and not a != b and hash(a) == hash(b)
        assert len({a, b}) == 1
        first = next(iter(fields))
        other = cls(**dict(fields, **{first: fields[first] + fields[first]}))
        assert other != a and not other == a


def test_group_spec_defaults():
    assert GroupSpec("cyclic") == GroupSpec("cyclic", (), None)


def test_burnside_and_ghost_elements_never_equal():
    b, g = BurnsideElement(0, (1,)), GhostElement(0, (1,))
    assert b != g and g != b and not b == g and not g == b
    assert b != (0, (1,)) and (0, (1,)) != b
    assert len({b, g}) == 2
