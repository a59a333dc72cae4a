"""Maps between finite groups and full automorphism-group enumeration.

Aut(G) is enumerated as Inn(G) acting on the automorphisms that send
the first generator g1 of a small generating set to the least element
of a conjugacy class. Those are found by backtracking over the images
of the generating set. Candidate images are pre-filtered by a cheap
invariant fingerprint (element order, centralizer size, number of
square and cube roots), partial assignments are extended by closure
over the generated subgroup, and any contradiction or collision prunes
the branch. A complete consistent closure over a generating set of G is
already a verified automorphism, so no post-validation is needed. Each
found b then gives one member x -> t^-1 b(x) t per conjugate t^-1 b(g1) t,
built by table lookup; an inner automorphism composed with a verified
automorphism is one, so no member is re-checked.

The disk cache stores the generator images of the found b only. A load
proves each one through the same closure and expands it the same way.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

from .errors import CapExceeded, NotAutomorphism, NotInvariant
from .groups import FiniteGroup, Subgroup


@dataclass(frozen=True)
class GroupMap:
    """A total map on element indices; images[x] is the image of x."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __post_init__(self):
        if len(self.images) != self.source.order:
            raise NotAutomorphism("image array length differs from the source order")

    @property
    def is_identity(self) -> bool:
        return all(self.images[x] == x for x in range(self.source.order))

    def homomorphism_witness(self) -> Optional[tuple]:
        """None if the map respects products, else a violating pair.

        The law is checked on the pairs (a, g) with g in the source's
        generating set; by induction over words that gives it for all
        pairs, once 0 maps to 0. For a nontrivial source the law already
        forces that, but the trivial group has no generators."""
        tgt, img = self.target.table, self.images
        if img[0] != 0:
            return (0, 0)
        gens = self.source.generating_set
        for a, row in enumerate(self.source.table):
            trow = tgt[img[a]]
            for g in gens:
                if img[row[g]] != trow[img[g]]:
                    return (a, g)
        return None

    @property
    def is_bijective(self) -> bool:
        return len(set(self.images)) == self.source.order


def is_homomorphism(m: GroupMap) -> bool:
    return m.homomorphism_witness() is None


def is_automorphism(m: GroupMap) -> bool:
    return (m.source is m.target and m.is_bijective
            and m.homomorphism_witness() is None)


def identity_map(group: FiniteGroup) -> GroupMap:
    return GroupMap(group, group, tuple(range(group.order)))


def power_map(group: FiniteGroup, n: int) -> GroupMap:
    """The map x -> x^n (negative n goes through the inverse)."""
    return GroupMap(group, group, tuple(group.pow(x, n) for x in group.elements()))


def is_n_abelian(group: FiniteGroup, n: int) -> bool:
    """True iff x -> x^n is an endomorphism."""
    return is_homomorphism(power_map(group, n))


def inner_automorphism(group: FiniteGroup, g: int) -> GroupMap:
    """Conjugation x -> g^-1 x g."""
    return GroupMap(group, group, tuple(group.conjugate(x, g) for x in group.elements()))


def compose(first: GroupMap, then: GroupMap) -> GroupMap:
    """Apply ``first``, then ``then`` (matching right-action notation)."""
    if first.target is not then.source:
        raise NotAutomorphism("maps are not composable")
    return GroupMap(first.source, then.target,
                    tuple(then.images[first.images[x]] for x in range(first.source.order)))


def invert(m: GroupMap) -> GroupMap:
    if not m.is_bijective:
        raise NotAutomorphism("cannot invert a non-bijective map")
    inverse = [0] * len(m.images)
    for x, y in enumerate(m.images):
        inverse[y] = x
    return GroupMap(m.target, m.source, tuple(inverse))


def restrict(m: GroupMap, sub: Subgroup) -> GroupMap:
    """Restriction of m to an invariant subgroup, on the subgroup-as-group."""
    if m.source is not sub.parent:
        raise NotInvariant("subgroup belongs to a different group")
    image_set = {m.images[x] for x in sub.elements}
    if image_set != set(sub.elements):
        raise NotInvariant("subgroup is not mapped onto itself")
    sgrp, embed = sub.as_group()
    back = {g: i for i, g in enumerate(embed)}
    return GroupMap(sgrp, sgrp, tuple(back[m.images[g]] for g in embed))


def induced_on_quotient(m: GroupMap, normal: Subgroup,
                        quotient_pair: Optional[tuple] = None) -> GroupMap:
    """The automorphism induced on G/N by an N-invariant map.

    ``quotient_pair`` may carry a precomputed (quotient, projection) for
    reuse across many maps.
    """
    if m.source is not normal.parent:
        raise NotInvariant("subgroup belongs to a different group")
    if {m.images[x] for x in normal.elements} != set(normal.elements):
        raise NotInvariant("subgroup is not mapped onto itself")
    if quotient_pair is None:
        quotient_pair = m.source.quotient(normal)
    qgrp, proj = quotient_pair
    images = [0] * qgrp.order
    seen = [False] * qgrp.order
    for g in m.source.elements():
        c = proj[g]
        if not seen[c]:
            seen[c] = True
            images[c] = proj[m.images[g]]
    return GroupMap(qgrp, qgrp, tuple(images))


# ---------------------------------------------------------------------------
# Enumeration


@dataclass(frozen=True)
class AutomorphismGroup:
    """All automorphisms of a group, in canonical (image-array) order."""

    base: FiniteGroup
    members: tuple
    generating_set: tuple = ()
    nodes: int = 0

    @property
    def order(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def image_arrays(self) -> tuple:
        return tuple(m.images for m in self.members)


def small_generating_set(group: FiniteGroup) -> list:
    """Greedy generating set of size at most log2 |G| (cached on the group)."""
    return list(group.generating_set)


def check_automorphism(m: GroupMap) -> None:
    """Raise NotAutomorphism unless m is a bijective endomorphism."""
    if m.source is not m.target:
        raise NotAutomorphism("source and target differ")
    if not m.is_bijective:
        raise NotAutomorphism("map is not a bijection")
    witness = m.homomorphism_witness()
    if witness is not None:
        raise NotAutomorphism("map is not a homomorphism", witness=witness)


def _fingerprints(group: FiniteGroup) -> tuple:
    n = group.order
    orders = group.element_orders
    cent = [group.commuting_masks[x].bit_count() for x in range(n)]
    sqrt_count = [0] * n
    cbrt_count = [0] * n
    for y in range(n):
        sqrt_count[group.table[y][y]] += 1
        cbrt_count[group.pow(y, 3)] += 1
    return tuple((orders[x], cent[x], sqrt_count[x], cbrt_count[x]) for x in range(n))


def _close(table, pairs, n: int, complete: bool) -> Optional[list]:
    """Extend (generator, image) pairs over the subgroup they generate.

    Breadth-first from the identity, each reached a sets img[a*g] to
    img[a]*h for every pair (g, h). Returns None on a contradiction or a
    collision, or, with ``complete``, when fewer than n elements are
    reached; otherwise the image list, -1 off the reached part. A
    complete result is a bijection that respects products with a
    generating set, hence an automorphism.
    """
    img = [-1] * n
    img[0] = 0
    used = bytearray(n)
    used[0] = 1
    queue = [0]  # exactly the elements with an image, in the order reached
    for a in queue:
        row = table[a]
        trow = table[img[a]]
        for g, h in pairs:
            c = row[g]
            tc = trow[h]
            if img[c] == -1:
                if used[tc]:
                    return None
                img[c] = tc
                used[tc] = 1
                queue.append(c)
            elif img[c] != tc:
                return None
    if complete and len(queue) < n:
        return None
    return img


def enumerate_automorphisms(group: FiniteGroup, cap: Optional[int] = None) -> AutomorphismGroup:
    """Complete Aut(G) as Inn(G) acting on one image class of g1.

    The backtracking sends the first ranked generator g1 only to the
    least element r of each conjugacy class among its candidates; the
    fingerprint is conjugation-invariant, so the classes are whole. Every
    automorphism a with a(g1) = t^-1 r t is x -> t^-1 b(x) t for one b
    found with b(g1) = r and one t of ``class_with_conjugators(r)``, so
    ``_expand`` builds the rest by table lookup.

    Deterministic: members are sorted by their image arrays. Raises
    CapExceeded, before any member is built, if Aut(G) has more than
    ``cap`` members.
    """
    n = group.order
    if n == 1:
        return AutomorphismGroup(group, (identity_map(group),), (), 0)
    gens = small_generating_set(group)
    fp = _fingerprints(group)
    candidates = [[x for x in range(n) if fp[x] == fp[g]] for g in gens]
    order_of = group.element_orders
    table = group.table
    inv = group.inv
    # assign the most-constrained generators first
    ranked = sorted(range(len(gens)), key=lambda i: (len(candidates[i]), i))
    gens = [gens[i] for i in ranked]
    candidates = [candidates[i] for i in ranked]
    g1 = gens[0]
    # the root tries only the least element r of each candidate class
    classes = {}  # r -> its class with conjugators
    seen: set = set()
    for x in candidates[0]:
        if x not in seen:
            classes[x] = group.class_with_conjugators(x)
            seen.update(y for y, _ in classes[x])
    candidates[0] = list(classes)

    found = []
    total = 0
    nodes = 0
    assigned: list = []

    def backtrack(level: int):
        nonlocal nodes, total
        g = gens[level]
        last = level + 1 == len(gens)
        for h in candidates[level]:
            ok = True
            for gj, hj in assigned:
                if (order_of[table[gj][g]] != order_of[table[hj][h]]
                        or order_of[table[gj][inv(g)]] != order_of[table[hj][inv(h)]]):
                    ok = False
                    break
            if not ok:
                continue
            assigned.append((g, h))
            nodes += 1
            result = _close(table, assigned, n, last)
            if result is not None:
                if last:
                    found.append(tuple(result))
                    total += len(classes[result[g1]])
                    if cap is not None and total > cap:
                        raise CapExceeded("automorphism count exceeded cap", total)
                else:
                    backtrack(level + 1)
            assigned.pop()

    backtrack(0)
    members = tuple(GroupMap(group, group, images)
                    for images in _expand(group, g1, found, classes))
    return AutomorphismGroup(group, members, tuple(gens), nodes)


def _expand(group: FiniteGroup, g1: int, found: list, classes: dict) -> list:
    """The sorted image arrays of x -> t^-1 b(x) t for every found b and
    every t of the class of b(g1) in ``classes``.

    No member is re-checked: an inner automorphism composed with a
    verified automorphism is one. When the found b send g1 to one
    element per class, as the enumerator's do, the members are distinct:
    they send g1 to distinct conjugates, or differ as b does. The loop
    runs t-major, so one conjugation array is alive at a time.
    """
    table, inv = group.table, group.inv
    by_rep: dict = {}
    for images in found:
        by_rep.setdefault(images[g1], []).append(images)
    members = []
    for r, betas in by_rep.items():
        members.extend(betas)  # the first pair (r, 0) conjugates by the identity
        for _, t in classes[r][1:]:
            conjugate = [table[c][t] for c in table[inv(t)]]  # x -> t^-1 x t
            lookup = conjugate.__getitem__
            members.extend(tuple(map(lookup, images)) for images in betas)
    members.sort()
    return members


# ---------------------------------------------------------------------------
# Disk cache (advisory: the members sending g1 to the least element of its
# class are stored as generator images; a load proves each through _close
# and expands it by conjugation)


def default_cache_dir() -> Path:
    env = os.environ.get("CUBEAUT_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return Path(xdg) / "cubeaut"


def automorphism_group(group: FiniteGroup, cache_dir=None, use_cache: bool = True,
                       rebuild: bool = False) -> AutomorphismGroup:
    """Aut(G), consulting a JSON disk cache keyed by the table hash.

    The file holds the generator images of the members that send the
    first generator g1 to the least element of its conjugacy class. Each
    is rebuilt by the closure the enumerator uses, which proves it an
    automorphism, and expanded by conjugation as the enumerator does. A
    file is rejected when the expanded count differs from its
    ``aut_order`` or when two members coincide. Completeness rests on the table-hash key
    (``rebuild`` re-enumerates). Any file that fails to load is
    re-enumerated and overwritten, so a stale or corrupt cache can only
    cost time, not correctness.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = directory / f"aut-{group.table_hash}.json"
    if use_cache and not rebuild:
        cached = _load_cache(path, group)
        if cached is not None:
            return cached
    result = enumerate_automorphisms(group)
    if use_cache:
        _store_cache(path, group, result)
    return result


def _indices(values, n: int) -> bool:
    """True iff ``values`` is a list of element indices (bools excluded)."""
    return isinstance(values, list) and all(type(v) is int and 0 <= v < n for v in values)


def _load_cache(path: Path, group: FiniteGroup) -> Optional[AutomorphismGroup]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):  # unreadable, not UTF-8, or not JSON
        return None
    if not isinstance(data, dict) or data.get("table_hash") != group.table_hash:
        return None
    n = group.order
    gens, stored = data.get("generators"), data.get("members")
    if not _indices(gens, n) or not isinstance(stored, list):
        return None
    table = group.table
    g1 = gens[0] if gens else 0
    found = []
    for images in stored:
        if not _indices(images, n) or len(images) != len(gens):
            return None
        img = _close(table, list(zip(gens, images)), n, True)
        if img is None:
            return None
        found.append(tuple(img))
    classes = {r: group.class_with_conjugators(r) for r in {img[g1] for img in found}}
    if data.get("aut_order") != sum(len(classes[img[g1]]) for img in found):
        return None
    members = _expand(group, g1, found, classes)
    if any(a == b for a, b in zip(members, members[1:])):
        return None  # a duplicate member
    maps = tuple(GroupMap(group, group, img) for img in members)
    return AutomorphismGroup(group, maps, tuple(gens), 0)


def _store_cache(path: Path, group: FiniteGroup, result: AutomorphismGroup) -> None:
    gens = result.generating_set
    g1 = gens[0] if gens else 0
    representatives = {cls[0] for cls in group.conjugacy_classes}
    payload = {
        "table_hash": group.table_hash,
        "aut_order": result.order,
        "generators": list(gens),
        "members": [[m.images[g] for g in gens] for m in result.members
                    if m.images[g1] in representatives],
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        pass  # cache is best-effort
