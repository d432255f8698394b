"""Class names: the closed-form fingerprints against candidate groups built
and fingerprinted by brute force."""

import pytest

from btspec import names
from btspec.groups import parse_group_spec, realize
from btspec.lattice import bits_iter

from conftest import C2_5, C840, system_for


def _candidate_specs(order: int) -> list[tuple[str, str]]:
    """(spec text, display name) of each named group of the given order."""
    out = [(f"C{order}", "e" if order == 1 else f"C{order}")]
    if order == 4:
        out.append(("perm:(0 1);(2 3)", "K4"))
    if order == 9:
        out.append(("perm:(0 1 2);(3 4 5)", "C3xC3"))
    if order == 6:
        out.append(("S3", "S3"))
    if order == 12:
        out.append(("A4", "A4"))
    if order == 21:
        out.append(("perm:(0 1 2 3 4 5 6);(1 2 4)(3 6 5)", "C7:C3"))
    if order == 24:
        out.append(("S4", "S4"))
    if order % 2 == 0 and order >= 8:
        out.append((f"D{order // 2}", f"D{order // 2}"))
    if order % 4 == 0 and order >= 8:
        out.append((f"Q{order}", f"Q{order}"))
    return out


def _brute_fingerprint(group, bits: int) -> tuple:
    """(abelian by all-pairs commutation, sorted element-order histogram)."""
    members = list(bits_iter(bits))
    orders = [group.element_order(x) for x in members]
    histogram = tuple(sorted((o, orders.count(o)) for o in set(orders)))
    mul = group.mul_table
    abelian = all(mul[a][b] == mul[b][a] for a in members for b in members)
    return abelian, histogram


_TABLES: dict[int, dict[tuple, str]] = {}


def _oracle_table(order: int) -> dict[tuple, str]:
    if order not in _TABLES:
        table: dict[tuple, str] = {}
        for spec_text, name in _candidate_specs(order):
            group = realize(parse_group_spec(spec_text), max_order=order)
            assert group.order == order
            fp = _brute_fingerprint(group, (1 << order) - 1)
            assert fp not in table, (name, table[fp])
            table[fp] = name
        _TABLES[order] = table
    return _TABLES[order]


def _oracle_tag(group, bits: int, order: int):
    return _oracle_table(order).get(_brute_fingerprint(group, bits))


ORDERS = sorted(set(range(1, 201)) | {d for d in range(1, 841) if 840 % d == 0})


def test_closed_form_table_matches_built_candidates():
    for order in ORDERS:
        assert names._named_fingerprints(order) == _oracle_table(order), order


@pytest.mark.parametrize(
    "spec",
    ["A4", "Q8", "D9", "S4", "A5", "S5", "GL3_2", "A6", "D60", "Q24", "C2_5", "C840", "S6"],
)
def test_class_labels_match_oracle_route(monkeypatch, spec):
    system = system_for({"C2_5": C2_5, "C840": C840}.get(spec, spec))
    labels = names.class_labels(system.group, system.lattice)
    monkeypatch.setattr(names, "structure_tag", _oracle_tag)
    assert labels == names.class_labels(system.group, system.lattice)
