"""Persistent lattice cache.

Lattice enumeration is the only expensive step, so the CLI persists it as a
JSON file keyed by a hash of the canonical spec text and max_order.  An entry
is checked against the freshly realized group (spec hash, order, degree,
generators) and for shape (format version, bitsets within the group, the
whole group last, (order, bitset) order, class and subconjugacy table
sizes); an entry that fails is ignored and recomputed.  Each stored bitset
must be a subgroup (identity bit set, order dividing |G|, and the closure of
its elements equal to itself), and the subconjugacy table must be reflexive
and put a class below another only when its order divides the other's; an
entry that fails these is ignored with a one-line stderr note.  That the
classes are conjugacy classes and the table is exactly subconjugacy is
trusted, not re-derived.  Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from itertools import compress
from pathlib import Path

from .groups import FiniteGroup
from .lattice import Subgroup, SubgroupLattice, closure, generating_set

CACHE_FORMAT_VERSION = 1
CACHE_ENV_VAR = "BTSPEC_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "btspec"


def spec_cache_key(spec_text: str, max_order: int) -> str:
    return hashlib.sha256(f"{spec_text}\n{max_order}".encode()).hexdigest()


def cache_path(cache_dir: Path, key: str) -> Path:
    return Path(cache_dir) / f"lattice-{key}.json"


def cache_store(path: Path, group: FiniteGroup, lattice: SubgroupLattice, key: str) -> None:
    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "spec_hash": key,
        "spec": group.name,
        "order": group.order,
        "degree": group.degree,
        "generators": [list(group.elements[i].images) for i in group.gen_indices],
        "subgroups": [f"{s.members:x}" for s in lattice.subgroups],
        "class_of": list(lattice.class_of),
        "subconj": [[1 if v else 0 for v in row] for row in lattice.subconj],
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
    closure of its elements is itself."""
    if group.order % s.order or not s.members >> group.identity_index & 1:
        return False
    return closure(group, generating_set(group, s.members)) == s.members


def cache_load(path: Path, group: FiniteGroup, key: str) -> SubgroupLattice | None:
    """Rebuild a lattice from cache; returns None (with a stderr note on
    corruption) whenever the entry cannot be fully validated."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError):
        print(f"btspec: ignoring unreadable cache entry {path}", file=sys.stderr)
        return None
    try:
        if raw["format_version"] != CACHE_FORMAT_VERSION or raw["spec_hash"] != key:
            return None
        if raw["order"] != group.order or raw["degree"] != group.degree:
            return None
        gens = [list(group.elements[i].images) for i in group.gen_indices]
        if raw["generators"] != gens:
            return None
        bits_list = [int(h, 16) for h in raw["subgroups"]]
        class_of = [int(c) for c in raw["class_of"]]
        subconj = [[bool(v) for v in row] for row in raw["subconj"]]
        if len(class_of) != len(bits_list):
            return None
        full = (1 << group.order) - 1
        if bits_list[-1] != full or any(b & ~full for b in bits_list):
            return None
        subgroups = [Subgroup(b, bin(b).count("1")) for b in bits_list]
        if subgroups != sorted(subgroups, key=lambda s: (s.order, s.members)):
            return None
        nclasses = max(class_of) + 1
        if len(subconj) != nclasses or any(len(r) != nclasses for r in subconj):
            return None
        class_reps = [-1] * nclasses
        for i, c in enumerate(class_of):
            if class_reps[c] == -1:
                class_reps[c] = i
        if any(r < 0 for r in class_reps):
            return None
        if not all(_is_subgroup(group, s) for s in subgroups):
            raise ValueError("a stored bitset is not a subgroup")
        orders = [subgroups[r].order for r in class_reps]
        for c1, row in enumerate(subconj):
            if not row[c1] or any(orders[c2] % orders[c1] for c2 in compress(range(nclasses), row)):
                raise ValueError("subconjugacy is not reflexive or breaks divisibility")
        index_of = {s.members: i for i, s in enumerate(subgroups)}
        return SubgroupLattice(
            group, subgroups, index_of, class_of, class_reps, subconj
        )
    except (KeyError, TypeError, ValueError, IndexError):
        print(f"btspec: ignoring corrupt cache entry {path}", file=sys.stderr)
        return None
