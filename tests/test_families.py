"""Closed-form counts over whole families of groups, on a deterministic sample.

Each formula is derived by hand, independently of the enumeration:

- D_n (n >= 3, order 2n): the subgroups are the cyclic <r^(n/d)>, one per
  divisor d of n, and the dihedral <r^(n/d), r^i s>, n/d of them per divisor
  d, so tau(n) + sigma(n) in all.  The cyclic ones are normal; the dihedral
  ones of a given d form one class when n/d is odd and two when it is even,
  so there are 2 tau(n) classes for odd n and 2 tau(n) + tau(n/2) for even n.
- C_p^k: a subgroup is an F_p-subspace, so there are sum_j [k choose j]_p of
  them (Gaussian binomials), each its own class.
- C_n: one subgroup C_d per divisor d.  Its spectrum (Calle and Ginnett) has
  Krull dimension Omega(n) + 1, one more than the Omega(n) steps of a maximal
  chain of divisors.  O^p(C_d) is C_(d_p'), so the fiber over p has one node
  per divisor of n_p', tau(n_p') in all, and fibers 0, GENERIC and a prime
  not dividing n have tau(n).  The mark of C_n/C_d at C_e is n/d when e
  divides d, else 0.
"""

import pytest

from btspec.ghost import GhostSystem
from btspec.groups import group_from_text
from btspec.lattice import subgroup_lattice
from btspec.spectrum import GENERIC, enumerate_spectrum


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def tau(n: int) -> int:
    return len(divisors(n))


def sigma(n: int) -> int:
    return sum(divisors(n))


def prime_power_parts(n: int) -> dict[int, int]:
    """{p: the exponent of p in n} by trial division."""
    parts, p = {}, 2
    while n > 1:
        while n % p == 0:
            parts[p] = parts.get(p, 0) + 1
            n //= p
        p += 1
    return parts


def gaussian_binomial(k: int, j: int, q: int) -> int:
    num = den = 1
    for i in range(j):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def elementary_abelian(p: int, k: int) -> str:
    return "perm:" + ";".join(
        "(" + " ".join(str(p * i + j) for j in range(p)) + ")" for i in range(k)
    )


DIHEDRAL = list(range(3, 25)) + [30, 36, 45, 60, 64, 97, 100, 210, 1000]
CYCLIC = list(range(1, 41)) + [48, 60, 64, 97, 210, 360, 720, 1000, 1155]


@pytest.mark.parametrize("n", DIHEDRAL)
def test_dihedral_subgroups_and_classes(n):
    lattice = subgroup_lattice(group_from_text(f"D{n}"))
    assert len(lattice.subgroups) == tau(n) + sigma(n)
    assert lattice.num_classes == 2 * tau(n) + (tau(n // 2) if n % 2 == 0 else 0)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4),
                                 (5, 2), (5, 3), (7, 2)])
def test_elementary_abelian_subgroup_count(p, k):
    lattice = subgroup_lattice(group_from_text(elementary_abelian(p, k)))
    count = sum(gaussian_binomial(k, j, p) for j in range(k + 1))
    assert len(lattice.subgroups) == lattice.num_classes == count


@pytest.mark.parametrize("n", CYCLIC)
def test_cyclic_spectrum(n):
    system = GhostSystem(group_from_text(f"C{n}"))
    parts = prime_power_parts(n)
    extra = 7 if n % 7 else 11 if n % 11 else 13
    poset = enumerate_spectrum(system, extra_primes=[extra])
    assert poset.krull_dimension == sum(parts.values()) + 1
    assert list(poset.fibers) == ["0", *map(str, sorted(parts)), str(extra), GENERIC]
    for fiber, ids in poset.fibers.items():
        p = int(fiber) if fiber.isdigit() else 1  # fibers 0 and GENERIC: tau(n)
        assert len(ids) == tau(n // p ** parts.get(p, 0)), fiber


@pytest.mark.parametrize("n", [1, 2, 6, 12, 30, 64, 97, 210])
def test_cyclic_table_of_marks(n):
    system = GhostSystem(group_from_text(f"C{n}"))
    ring = system.level(system.lattice.top_index)
    orders = [ring.class_rep_subgroup(c).order for c in range(ring.num_classes)]
    assert orders == divisors(n)
    assert ring.marks_matrix == [[n // d if d % e == 0 else 0 for e in orders] for d in orders]
