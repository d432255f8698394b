"""Persistent lattice cache.

Lattice enumeration is the only expensive step, so the CLI persists it as a
JSON file keyed by a hash of the canonical spec text and max_order.  Format 2
stores every bitset as a hex string: ``subgroups`` (one per subgroup, in
lattice order), ``class_of``, and ``below`` (one subconjugacy row per class,
as ``SubgroupLattice.below``).  Bytes that are not UTF-8 JSON, or nest too
deep to parse, are ignored with a one-line stderr note.  An entry whose header
does not match the freshly realized group (format version, spec hash, order,
degree, generators) is a silent miss, so entries of an older format are
replaced, and one of more than ``lattice.MAX_SUBGROUPS`` subgroups is refused
before any bitset is read.  Past the header the load rebuilds the classes.
The bitsets must rise strictly in (order, bitset) order from the identity to
the whole group.  Walked in that order, each bitset that no orbit holds yet
must be a subgroup (within the group, identity bit set, order dividing |G|,
and the span that ``lattice.generating_set`` grows from its elements equal to
itself, so its generating set is kept on the group as a by-product), and its
orbit under conjugation by the generators (``lattice.conjugates``) is the
next class.  The walk stops once its orbits hold more bitsets than the entry
lists, and the classes it numbers must equal the stored ``class_of``.  The
cyclic subgroups must hold |G| generators in all (one per element), and for
each p^k dividing |G| the subgroups of order p^k must number 1 mod p
(Frobenius).  ``below`` must hold one row per class, with its own class and
only classes whose order divides its class's order.  An entry that fails any
of these is ignored with the one-line note "ignoring corrupt cache entry" and
recomputed.  Trusted, not re-derived: that no class is missing of non-cyclic
subgroups of an order not a prime power, or of p^k-subgroups with a multiple
of p members, and that the rows are exactly subconjugacy.  Writes are atomic
(temp file + rename).  ``hashlib`` and ``tempfile`` are imported where used,
so a ``--no-cache`` run loads neither.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from .errors import ContainmentError
from .groups import FiniteGroup, prime_factors
from . import lattice as lattice_mod
from .lattice import SubgroupLattice, conjugates, generating_set

CACHE_FORMAT_VERSION = 2
CACHE_ENV_VAR = "BTSPEC_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "btspec"


def spec_cache_key(spec_text: str, max_order: int) -> str:
    import hashlib  # loads OpenSSL's _hashlib: only when the cache is used

    return hashlib.sha256(f"{spec_text}\n{max_order}".encode()).hexdigest()


def cache_path(cache_dir: Path, key: str) -> Path:
    return Path(cache_dir) / f"lattice-{key}.json"


def cache_store(path: Path, group: FiniteGroup, lattice: SubgroupLattice, key: str) -> None:
    import tempfile  # imports shutil and random: only when an entry is written

    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "spec_hash": key,
        "spec": group.name,
        "order": group.order,
        "degree": group.degree,
        "generators": [list(g) for g in group.generators],
        "subgroups": [f"{s.members:x}" for s in lattice.subgroups],
        "class_of": list(lattice.class_of),
        "below": [f"{row:x}" for row in lattice.below],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_subgroup(group: FiniteGroup, bits: int) -> bool:
    """True iff the bitset lies in the group, holds the identity, its order
    divides |G|, and the span that ``generating_set`` grows from its elements
    is itself."""
    if bits >> group.order or group.order % bits.bit_count() or not bits & 1:
        return False
    try:
        generating_set(group, bits)
    except ContainmentError:
        return False
    return True


def cache_load(path: Path, group: FiniteGroup, key: str) -> SubgroupLattice | None:
    """Rebuild a lattice from cache; returns None (with a stderr note on
    corruption) whenever the entry cannot be fully validated."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (FileNotFoundError, NotADirectoryError):  # no entry: a plain miss
        return None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        print(f"btspec: ignoring unreadable cache entry {path}", file=sys.stderr)
        return None
    try:
        if raw["format_version"] != CACHE_FORMAT_VERSION or raw["spec_hash"] != key:
            return None
        if raw["order"] != group.order or raw["degree"] != group.degree:
            return None
        if raw["generators"] != [list(g) for g in group.generators]:
            return None
        if len(raw["subgroups"]) > lattice_mod.MAX_SUBGROUPS:
            return None  # refused unread: recomputing it stops at the bound
        members = [int(h, 16) for h in raw["subgroups"]]
        below = [int(h, 16) for h in raw["below"]]
        keys = [(b.bit_count(), b) for b in members]
        if members[0] != 1 or members[-1] != (1 << group.order) - 1 or any(
                a >= b for a, b in zip(keys, keys[1:])):  # strictly increasing: no duplicates
            raise ValueError("not the identity to the whole group in (order, bitset) order")
        # Walked in order, each bitset that no orbit holds yet is the least
        # member of the next class: a subgroup, whose orbit is that class.
        found: dict[int, int] = {}  # bitset -> class, for every orbit walked
        class_of: list[int] = []
        orders: list[int] = []  # class -> order of its members
        of_order: dict[int, int] = {}  # order -> bitset of the classes of that order
        counts: dict[int, int] = {}  # order -> number of subgroups of that order
        n, generators, masks = group.order, 0, group.order_masks
        for b in members:
            c = found.get(b)
            if c is None:
                if not _is_subgroup(group, b):
                    raise ValueError("a stored bitset is not a subgroup")
                c, order, orbit = len(orders), b.bit_count(), conjugates(group, b)
                found.update(dict.fromkeys(orbit, c))
                if len(found) > len(members):  # found holds every member: it ends equal
                    raise ValueError("an orbit holds a bitset the entry lacks")
                orders.append(order)
                of_order[order] = of_order.get(order, 0) | 1 << c
                counts[order] = counts.get(order, 0) + len(orbit)
                # Only a cyclic subgroup holds elements of its own order: its generators.
                generators += len(orbit) * (b & masks.get(order, 0)).bit_count()
            class_of.append(c)
        if class_of != raw["class_of"]:
            raise ValueError("the stored classes are not the conjugacy classes")
        if generators != n or any(counts.get(p**k, 0) % p != 1 for p in prime_factors(n)
                                  for k in range(1, n.bit_length()) if n % p**k == 0):
            raise ValueError("a class of subgroups is missing")
        if len(below) != len(orders):
            raise ValueError("not one subconjugacy row per class")
        for c, (row, order) in enumerate(zip(below, orders)):
            dividing = sum(bits for o, bits in of_order.items() if order % o == 0)
            if not row >> c & 1 or row & ~dividing:
                raise ValueError("subconjugacy is not reflexive or breaks divisibility")
        return SubgroupLattice(group, members, class_of, below)
    except (KeyError, TypeError, ValueError, IndexError):
        print(f"btspec: ignoring corrupt cache entry {path}", file=sys.stderr)
        return None
