import pytest

from btspec.ghost import GhostSystem
from btspec.groups import group_from_text
from btspec.names import class_labels

_SYSTEMS: dict[str, GhostSystem] = {}
_LABELS: dict[str, list[str]] = {}

# The axiom-verification corpus (criterion groups); C2xC2 and C3xC3 are given
# by explicit generators since the spec grammar has no direct-product syntax.
CORPUS = [
    "C1",
    "C2",
    "C4",
    "C6",
    "perm:(0 1);(2 3)",
    "S3",
    "D4",
    "Q8",
    "perm:(0 1 2);(3 4 5)",
    "D6",
    "A4",
    "S4",
]

# C2^3, the abelian group of the verify golden data.
C2_3 = "perm:(0 1);(2 3);(4 5)"
# Many-class abelian groups: C2^3 x C105 (128 classes) and C2^5 (374 classes).
C840 = "perm:(0 1);(2 3);(4 5);(6 7 8)(9 10 11 12 13)(14 15 16 17 18 19 20)"
C2_5 = "perm:(0 1);(2 3);(4 5);(6 7);(8 9)"
# C2^6 (2825 classes) and C3^5 (2664 classes), each class one subgroup.
C2_6 = "perm:(0 1);(2 3);(4 5);(6 7);(8 9);(10 11)"
C3_5 = "perm:(0 1 2);(3 4 5);(6 7 8);(9 10 11);(12 13 14)"
# C2 x S6: 5825 subgroups in 194 classes, the largest lattice in the tests.
C2_S6 = "perm:(0 1);(2 3 4 5 6 7);(2 3)"
# C2^7: 29,212 subgroups, more than lattice.MAX_SUBGROUPS.
C2_7 = "perm:(0 1);(2 3);(4 5);(6 7);(8 9);(10 11);(12 13)"


def system_for(text: str) -> GhostSystem:
    if text not in _SYSTEMS:
        _SYSTEMS[text] = GhostSystem(group_from_text(text))
    return _SYSTEMS[text]


def labels_for(text: str) -> list[str]:
    if text not in _LABELS:
        s = system_for(text)
        _LABELS[text] = class_labels(s.group, s.lattice)
    return _LABELS[text]


@pytest.fixture(scope="session")
def sys_s3():
    return system_for("S3")


@pytest.fixture(scope="session")
def sys_a4():
    return system_for("A4")


@pytest.fixture(scope="session")
def sys_q8():
    return system_for("Q8")


@pytest.fixture(scope="session")
def sys_c6():
    return system_for("C6")


@pytest.fixture(scope="session")
def sys_gl32():
    return system_for("GL3_2")
