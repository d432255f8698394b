"""Persistent lattice cache.

Lattice enumeration is the only expensive step, so the CLI persists it as a
JSON file keyed by a hash of the canonical spec text and max_order.  Format 2
stores every bitset as a hex string: ``subgroups`` (one per subgroup, in
lattice order), ``class_of``, and ``below`` (one subconjugacy row per class,
as ``SubgroupLattice.below``).  Bytes that are not UTF-8 JSON, or nest too
deep to parse, are ignored with a one-line stderr note.  An entry is checked
against the freshly realized group (spec hash, order, degree, generators) and
for shape (format version, at most ``lattice.MAX_SUBGROUPS`` subgroups, counted
before any bitset is read, bitsets within the group, the whole group last,
strictly increasing (order, bitset) order, classes numbered 0, 1, ... in order
of first appearance, one row per class); an entry that fails is ignored and
recomputed, so entries of an older format are silently replaced.  Each
class's least member must be a subgroup (identity bit set, order dividing |G|,
and the span that ``lattice.generating_set`` grows from its elements equal to
itself, so its generating set is kept on the group as a by-product).  Each
class must be that member's orbit under conjugation by the group's generators
(``lattice.conjugates``), in an abelian group that member alone, so every
stored bitset is a subgroup and the classes are the group's conjugacy classes.
The identity must come first, the cyclic subgroups must hold |G| generators
in all (one per element), and for each p^k dividing |G| the subgroups of order
p^k must number 1 mod p (Frobenius).  Each row of ``below`` must hold its own
class and only classes whose order divides its class's order.  An entry that
fails these is ignored with a one-line stderr note.  Trusted, not re-derived:
that no class is missing of non-cyclic subgroups of an order not a prime
power, or of p^k-subgroups with a multiple of p members, and that the rows are
exactly subconjugacy.  Writes are atomic (temp file + rename).  ``hashlib``
and ``tempfile`` are imported where used, so a ``--no-cache`` run loads neither.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from .errors import ContainmentError
from .groups import FiniteGroup, prime_factors
from . import lattice as lattice_mod
from .lattice import Subgroup, SubgroupLattice, conjugates, generating_set

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


def _is_subgroup(group: FiniteGroup, s: Subgroup) -> bool:
    """True iff the bitset holds the identity, its order divides |G|, and the
    span that ``generating_set`` grows from its elements is itself."""
    if group.order % s.order or not s.members & 1:
        return False
    try:
        generating_set(group, s.members)
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
        gens = [list(g) for g in group.generators]
        if raw["generators"] != gens:
            return None
        if len(raw["subgroups"]) > lattice_mod.MAX_SUBGROUPS:
            return None  # refused unread: recomputing it stops at the bound
        bits_list = [int(h, 16) for h in raw["subgroups"]]
        class_of = [int(c) for c in raw["class_of"]]
        below = [int(h, 16) for h in raw["below"]]
        if len(class_of) != len(bits_list):
            return None
        full = (1 << group.order) - 1
        if bits_list[-1] != full or any(b & ~full for b in bits_list):
            return None
        if bits_list[0] != 1:
            raise ValueError("the identity is not stored first")
        subgroups = [Subgroup(b, b.bit_count()) for b in bits_list]
        keys = [(s.order, s.members) for s in subgroups]
        if any(a >= b for a, b in zip(keys, keys[1:])):  # strictly increasing: no duplicates
            return None
        class_reps: list[int] = []  # classes numbered 0, 1, ... by first appearance
        for i, c in enumerate(class_of):
            if c == len(class_reps):
                class_reps.append(i)
            elif not 0 <= c < len(class_reps):
                return None
        nclasses = len(class_reps)
        if len(below) != nclasses or any(r >> nclasses for r in below):
            return None
        if not all(_is_subgroup(group, subgroups[r]) for r in class_reps):
            raise ValueError("a stored bitset is not a subgroup")
        classes: list[list[int]] = [[] for _ in class_reps]
        for s, c in zip(subgroups, class_of):
            classes[c].append(s.members)
        of_order: dict[int, int] = {}  # order -> bitset of the classes of that order
        counts: dict[int, int] = {}  # order -> number of subgroups of that order
        n, generators, masks = group.order, 0, group.order_masks
        for c, (r, members) in enumerate(zip(class_reps, classes)):
            orbit = sorted(conjugates(group, members[0]))
            if members != orbit:  # the orbit of a subgroup, its least member
                raise ValueError("a stored class is not a conjugacy class")
            order = subgroups[r].order
            of_order[order] = of_order.get(order, 0) | 1 << c
            counts[order] = counts.get(order, 0) + len(members)
            # Only a cyclic subgroup holds elements of its own order: its generators.
            generators += len(members) * (members[0] & masks.get(order, 0)).bit_count()
        if generators != n or any(counts.get(p**k, 0) % p != 1 for p in prime_factors(n)
                                  for k in range(1, n.bit_length()) if n % p**k == 0):
            raise ValueError("a class of subgroups is missing")
        for c, row in enumerate(below):
            order = subgroups[class_reps[c]].order
            dividing = sum(bits for o, bits in of_order.items() if order % o == 0)
            if not row >> c & 1 or row & ~dividing:
                raise ValueError("subconjugacy is not reflexive or breaks divisibility")
        index_of = {s.members: i for i, s in enumerate(subgroups)}
        return SubgroupLattice(group, subgroups, index_of, class_of, class_reps, below)
    except (KeyError, TypeError, ValueError, IndexError):
        print(f"btspec: ignoring corrupt cache entry {path}", file=sys.stderr)
        return None
