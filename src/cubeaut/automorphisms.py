"""Maps between finite groups and full automorphism-group enumeration.

Aut(G) is enumerated one coset of Inn(G) at a time, by backtracking
over the images h1, ..., hk of a small generating set g1, ..., gk.
Candidate images are pre-filtered by a cheap invariant fingerprint
(element order, centralizer size, number of square and cube roots),
partial assignments are extended by closure over the generated
subgroup, and any contradiction or collision prunes the branch. A
complete consistent closure over a generating set of G is already a
verified automorphism, so no post-validation is needed.

Conjugating every image by one t gives x -> t^-1 b(x) t, a member of
the same coset, so level i tries only the least element of each orbit
under conjugation by C_G(h1, ..., h(i-1)). The search finds exactly one
representative b per coset, the lexicographically least image tuple;
|Aut(G)| is their number times [G : Z(G)], and the members of the coset
of b are x -> t^-1 b(x) t for t over a transversal T of Z(G). Member k
is the one of b = representatives[k // |T|] and t = T[k % |T|], built
by table lookup only when a caller asks: ``AutomorphismGroup.images_at``
builds the members of any indices with one conjugation array per t, and
``members`` is ``images_at`` over every index. An inner automorphism
composed with a verified automorphism is one, so no member is
re-checked. Both class structures are tuples of member indices: the
Inn(G)-conjugacy classes, the b-twisted classes {b(s)^-1 t s} of the
conjugator t, in one flat tuple (``AutomorphismGroup.twisted_classes``),
and their orbits under conjugation by the representatives, the
Aut(G)-conjugacy classes (``AutomorphismGroup.conjugacy_classes``),
which key each member by one table lookup t^-1 b(g) t per generator g.

``automorphism_group`` enumerates unless its caller names a cache
directory; only then does it hash the table and read or write a file.
The file stores the generator images of the representatives only. A
load proves them all at once, column by column: one breadth-first walk
over the generators carries the images of each element under every
stored map, and checks the law, that every element is reached and that
the kernels are trivial. It then checks canonicity once per shared
prefix of image tuples. No coset is expanded.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import ge, getitem
from pathlib import Path
from typing import Optional

from .errors import NotAutomorphism, NotInvariant
from .groups import FiniteGroup, Subgroup, _are_indices, _is_permutation


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
        self._check_images()
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

    def _check_images(self) -> None:
        """Raise NotAutomorphism unless every image is an int naming an
        element of the target, before any is used as an index: a bool,
        a float or a negative index is refused. Only a failing array is
        searched for its witness."""
        img, order = self.images, self.target.order
        if _are_indices(img, order):
            return
        x = next(x for x, y in enumerate(img) if type(y) is not int or not 0 <= y < order)
        raise NotAutomorphism(f"image of {x} is {img[x]!r}, not an element of the target")

    @property
    def is_bijective(self) -> bool:
        """The images are 0..|target|-1 once each; there are |source| of
        them, so the orders agree."""
        return _is_permutation(self.images, self.target.order)


def identity_map(group: FiniteGroup) -> GroupMap:
    return GroupMap(group, group, tuple(range(group.order)))


def power_map(group: FiniteGroup, n: int) -> GroupMap:
    """The map x -> x^n (negative n goes through the inverse): the
    square-and-multiply of ``FiniteGroup.pow``, one pass over the whole
    element array per bit of |n|."""
    t = group.table
    base = list(map(group.inv, group.elements())) if n < 0 else list(group.elements())
    result = [0] * group.order
    k = abs(n)
    while k:
        if k & 1:
            result = [t[r][b] for r, b in zip(result, base)]
        k >>= 1
        if k:
            base = [t[b][b] for b in base]
    return GroupMap(group, group, tuple(result))


def is_n_abelian(group: FiniteGroup, n: int) -> bool:
    """True iff x -> x^n is an endomorphism."""
    return power_map(group, n).homomorphism_witness() is None


def inner_automorphism(group: FiniteGroup, g: int) -> GroupMap:
    """Conjugation x -> g^-1 x g; g must be an element index."""
    group._check_element(g)
    return GroupMap(group, group, tuple(_conjugation(group, g)))


def compose(first: GroupMap, then: GroupMap) -> GroupMap:
    """Apply ``first``, then ``then`` (matching right-action notation)."""
    if first.target is not then.source:
        raise NotAutomorphism("maps are not composable")
    first._check_images()
    return GroupMap(first.source, then.target,
                    tuple(then.images[first.images[x]] for x in range(first.source.order)))


def invert(m: GroupMap) -> GroupMap:
    if not m.is_bijective:
        raise NotAutomorphism("cannot invert a non-bijective map")
    inverse = [0] * len(m.images)
    for x, y in enumerate(m.images):
        inverse[y] = x
    return GroupMap(m.target, m.source, tuple(inverse))


def _check_invariant(m: GroupMap, sub: Subgroup) -> None:
    """Raise NotASubgroup unless sub is a subgroup of m's source, and
    NotInvariant unless m maps it onto itself; the images are checked to
    be elements first."""
    sub._check_parent(m.source)
    m._check_images()
    if {m.images[x] for x in sub.elements} != set(sub.elements):
        raise NotInvariant("subgroup is not mapped onto itself")


def restrict(m: GroupMap, sub: Subgroup) -> GroupMap:
    """Restriction of m to an invariant subgroup, on the subgroup-as-group."""
    _check_invariant(m, sub)
    sgrp, embed = sub.as_group()
    back = {g: i for i, g in enumerate(embed)}
    return GroupMap(sgrp, sgrp, tuple(back[m.images[g]] for g in embed))


def induced_on_quotient(m: GroupMap, normal: Subgroup) -> GroupMap:
    """The automorphism induced on G/N by an N-invariant map."""
    _check_invariant(m, normal)
    qgrp, proj = m.source.quotient(normal)
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
    """Aut(G) as one canonical representative per coset of Inn(G).

    ``representatives`` holds the image arrays of the representatives b.
    The coset of b is x -> t^-1 b(x) t for t over ``transversal``, a
    transversal T of Z(G), so ``order`` needs no member. Member k is
    x -> t^-1 b(x) t for b = ``representatives[k // |T|]`` and
    t = ``transversal[k % |T|]``: ``images_at`` builds the members of
    any indices, and ``members`` is every member in index order, built
    on first use.
    """

    base: FiniteGroup
    representatives: tuple
    generating_set: tuple
    nodes: int = 0

    @cached_property
    def _cosets(self) -> tuple:
        """(transversal, coset_of) for Z(G), from its element tuple:
        ``_coset_map`` reads elements only, so no ``center`` Subgroup is
        built for it."""
        return self.base._coset_map(self.base._center_elements)

    @property
    def transversal(self) -> tuple:
        return self._cosets[0]

    @property
    def order(self) -> int:
        return len(self.representatives) * len(self.transversal)

    @cached_property
    def members(self) -> tuple:
        """Every automorphism, in index order. Distinct representatives
        lie in distinct cosets and distinct t in distinct cosets of Z(G),
        so the members are distinct."""
        return tuple(GroupMap(self.base, self.base, images)
                     for images in self.images_at(range(self.order)))

    def images_at(self, indices) -> list:
        """The image array of member k for each k of ``indices``, in that
        order, built t-major: one conjugation array per transversal
        element that the indices reach, not one per member."""
        size, by_coset = len(self.transversal), {}
        for i, k in enumerate(indices):
            rep, coset = divmod(k, size)
            by_coset.setdefault(coset, []).append((i, rep))
        images = [None] * len(indices)
        for coset, wanted in by_coset.items():
            lookup = _conjugation(self.base, self.transversal[coset]).__getitem__
            for i, rep in wanted:
                images[i] = tuple(map(lookup, self.representatives[rep]))
        return images

    @cached_property
    def twisted_classes(self) -> tuple:
        """The Inn(G)-conjugacy classes of Aut(G), each a tuple of member
        indices with its least index first; the classes come in order of
        that index.

        Conjugating x -> t^-1 b(x) t by the inner automorphism of s gives
        the member of t' = b(s)^-1 t s, so the class of a member of b is
        a b-twisted class {b(s)^-1 t s}, found breadth-first over the
        generators s."""
        table, inv = self.base.table, self.base.inv
        coset_of = self._cosets[1]
        transversal, size = self.transversal, len(self.transversal)
        result = []
        for rep, images in enumerate(self.representatives):
            moves = [(table[inv(images[s])], s) for s in self.generating_set]
            seen = bytearray(size)
            for start in range(size):
                if seen[start]:
                    continue
                seen[start] = 1
                cls = [start]
                for c in cls:
                    t = transversal[c]
                    for row, s in moves:
                        d = coset_of[table[row[t]][s]]
                        if not seen[d]:
                            seen[d] = 1
                            cls.append(d)
                result.append(tuple(rep * size + c for c in cls))
        return tuple(result)

    @cached_property
    def conjugacy_classes(self) -> tuple:
        """The Aut(G)-conjugacy classes, each a tuple of member indices in
        ascending order; the classes come in order of their least index.

        Inn(G) is normal in Aut(G), so conjugating by an automorphism
        permutes the twisted classes, and an Aut(G)-class is an orbit of
        twisted classes. The conjugators are representatives whose cosets
        generate Aut(G)/Inn(G): one joins only when its coset is not yet
        reached by those before it. A member is looked up by its images
        of the generating set, which determine it: one table lookup
        t^-1 b(g) t per generator g."""
        table, inv = self.base.table, self.base.inv
        gens, reps, size = self.generating_set, self.representatives, len(self.transversal)
        member_of = {tuple(table[table[inv(t)][images[g]]][t] for g in gens): rep * size + coset
                     for rep, images in enumerate(reps) for coset, t in enumerate(self.transversal)}
        reached, movers = {member_of[gens] // size}, []
        for rep, images in enumerate(reps):
            if rep in reached:
                continue
            movers.append((images, invert(GroupMap(self.base, self.base, images)).images))
            queue = list(reached)
            for r in queue:
                for m, _ in movers:
                    d = member_of[tuple(m[reps[r][g]] for g in gens)] // size
                    if d not in reached:
                        reached.add(d)
                        queue.append(d)
        twisted = self.twisted_classes
        class_of = {k: i for i, cls in enumerate(twisted) for k in cls}
        alphas = self.images_at([cls[0] for cls in twisted])
        seen = bytearray(len(twisted))
        result = []
        for start in range(len(twisted)):
            if seen[start]:
                continue
            seen[start] = 1
            orbit = [start]
            for i in orbit:
                alpha = alphas[i]
                for m, m_inv in movers:
                    # m alpha m^-1 on the generators
                    j = class_of[member_of[tuple(m[alpha[m_inv[g]]] for g in gens)]]
                    if not seen[j]:
                        seen[j] = 1
                        orbit.append(j)
            result.append(tuple(sorted(k for i in orbit for k in twisted[i])))
        return tuple(sorted(result))


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
    for y, cube in enumerate(power_map(group, 3).images):
        sqrt_count[group.table[y][y]] += 1
        cbrt_count[cube] += 1
    return tuple((orders[x], cent[x], sqrt_count[x], cbrt_count[x]) for x in range(n))


def _conjugation(group: FiniteGroup, t: int) -> list:
    """The array of x -> t^-1 x t."""
    table = group.table
    return [table[c][t] for c in table[group.inv(t)]]


def _conjugates(group: FiniteGroup, cent, h: int):
    """c^-1 h c for every c in ``cent``."""
    table, inv = group.table, group.inv
    return (table[table[inv(c)][h]][c] for c in cent)


def _centralizing(group: FiniteGroup, cent, h: int) -> list:
    """The members of ``cent`` that commute with h."""
    table = group.table
    row = table[h]
    return [c for c in cent if table[c][h] == row[c]]


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


def enumerate_automorphisms(group: FiniteGroup) -> AutomorphismGroup:
    """Aut(G) as one canonical representative per coset of Inn(G).

    The backtracking assigns the images h1, h2, ... of the ranked
    generators g1, g2, ... and at level i tries only the least element
    of each orbit of candidates under conjugation by C_G(h1, ..., h(i-1)),
    the centralizer of the images assigned so far (carried as its part
    of the transversal of Z(G), which acts trivially). The fingerprint
    and the order filter are conjugation-invariant and a conjugated
    assignment closes exactly when the original does, so each orbit
    passes or fails as a whole. A found b is thus the lexicographically
    least image tuple of its coset; the conjugators left fixing every
    image form C_G(G) = Z(G), so each coset has exactly one.

    Deterministic.
    """
    n = group.order
    if n == 1:
        return AutomorphismGroup(group, ((0,),), (), 0)
    gens = group.generating_set
    fp = _fingerprints(group)
    candidates = [[x for x in range(n) if fp[x] == fp[g]] for g in gens]
    order_of = group.element_orders
    table = group.table
    inv = group.inv
    # assign the most-constrained generators first
    ranked = sorted(range(len(gens)), key=lambda i: (len(candidates[i]), i))
    gens = [gens[i] for i in ranked]
    candidates = [candidates[i] for i in ranked]
    transversal, _ = group._coset_map(group._center_elements)

    found = []
    nodes = 0
    assigned: list = []

    def backtrack(level: int, cent: list):
        nonlocal nodes
        g = gens[level]
        last = level + 1 == len(gens)
        tried: set = set()
        for h in candidates[level]:
            if h in tried:
                continue  # conjugate under cent to a smaller candidate
            ok = True
            for gj, hj in assigned:
                if (order_of[table[gj][g]] != order_of[table[hj][h]]
                        or order_of[table[gj][inv(g)]] != order_of[table[hj][inv(h)]]):
                    ok = False
                    break
            if not ok:
                continue
            tried.update(_conjugates(group, cent, h))
            assigned.append((g, h))
            nodes += 1
            result = _close(table, assigned, n, last)
            if result is not None:
                if last:
                    found.append(tuple(result))
                else:
                    backtrack(level + 1, _centralizing(group, cent, h))
            assigned.pop()

    backtrack(0, list(transversal))
    del backtrack  # the closure refers to itself; free it, and the group, now
    return AutomorphismGroup(group, tuple(found), tuple(gens), nodes)


# ---------------------------------------------------------------------------
# Disk cache, trusted input in a directory the caller names: completeness
# is trusted from the table-hash key; a load proves the stored generator
# images in one column pass and checks canonicity once per shared prefix


def automorphism_group(group: FiniteGroup, cache_dir=None) -> AutomorphismGroup:
    """Aut(G), read from or stored in ``cache_dir`` when one is named.

    Without a directory this is ``enumerate_automorphisms(group)``: no
    table hash is computed and no file is touched. With one, the file
    ``aut-<table_hash>.json`` holds the generator images of the coset
    representatives under the key ``representatives``. All of them are
    rebuilt in one pass, column by column (``_prove_stored``): the law on
    every pair (a, g) with g a generator, every element reached and a
    trivial kernel prove each an automorphism, as the enumerator's
    closure would. Each must be canonical: its images orbit-least level
    by level, as the enumerator finds them, checked once per shared
    prefix (``_all_canonical``). A file is rejected when its
    representatives are not strictly ascending, the order the enumerator
    finds them in (so none repeats, and member k is the same map as in
    a fresh enumeration), when #representatives * [G : Z(G)] differs
    from its ``aut_order`` or that is not an int, or when it lacks the
    key (a file of an earlier layout). Nothing is expanded. Completeness is
    trusted from the key ``table_hash``, a digest of the columns of the
    generating set, which decide the table: a file missing representatives,
    with ``aut_order`` to match, loads, so the cache directory is trusted
    input. Any file that fails to load, even one nested too deeply to
    parse, is re-enumerated and overwritten.
    """
    if cache_dir is None:
        return enumerate_automorphisms(group)
    path = Path(cache_dir) / f"aut-{group.table_hash}.json"
    cached = _load_cache(path, group)
    if cached is not None:
        return cached
    result = enumerate_automorphisms(group)
    _store_cache(path, group, result)
    return result


def _indices(values, n: int) -> bool:
    """True iff ``values`` is a list of element indices (bools excluded)."""
    return isinstance(values, list) and _are_indices(values, n)


def _load_cache(path: Path, group: FiniteGroup) -> Optional[AutomorphismGroup]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):  # unreadable, not UTF-8, not JSON, too deep
        return None
    if not isinstance(data, dict) or data.get("table_hash") != group.table_hash:
        return None
    n = group.order
    gens, stored = data.get("generators"), data.get("representatives")
    if not _indices(gens, n) or not isinstance(stored, list) or not stored:
        return None
    if (set(map(type, stored)) != {list} or set(map(len, stored)) != {len(gens)}
            or not _are_indices(list(chain.from_iterable(stored)), n)):
        return None  # not every representative is a list of k element indices
    if any(map(ge, stored, stored[1:])):
        return None  # not strictly ascending, the order the enumerator finds them in
    found = _prove_stored(group.table, gens, stored, n)
    if found is None:
        return None  # not all automorphisms
    result = AutomorphismGroup(group, tuple(found), tuple(gens), 0)
    aut_order = data.get("aut_order")
    if type(aut_order) is not int or aut_order != result.order:
        return None
    if not _all_canonical(group, result.transversal, stored):
        return None
    return result


def _prove_stored(table, gens, stored, n: int) -> Optional[list]:
    """The image arrays of the maps sending ``gens`` to each stored
    tuple, or None unless every one is an automorphism.

    One breadth-first walk from the identity over ``gens`` serves every
    map: each reached a keeps its column, the images of a under all the
    maps, and column a*g is column a times the column of images of g.
    When a*g was reached before, the two columns must agree, which is
    the law on (a, g) for every map at once. Every element must be
    reached, so ``gens`` generate G, and no column but the identity's
    may hold 0. A map that fixes 0 and respects products with a
    generating set is an endomorphism, and with a trivial kernel it is
    bijective: exactly what ``_close`` proves of each map alone.
    """
    gen_cols = list(zip(*stored))
    cols = [None] * n
    cols[0] = [0] * len(stored)
    queue = [0]
    for a in queue:
        row, rows = table[a], list(map(table.__getitem__, cols[a]))
        for g, gen_col in zip(gens, gen_cols):
            c, col = row[g], list(map(getitem, rows, gen_col))
            if cols[c] is None:
                if 0 in col:
                    return None  # a non-identity element in some kernel
                cols[c] = col
                queue.append(c)
            elif cols[c] != col:
                return None
    if len(queue) < n:
        return None
    return list(zip(*cols))


def _all_canonical(group: FiniteGroup, transversal, stored) -> bool:
    """True iff each image of every stored tuple is the least of its
    orbit under conjugation by the elements of ``transversal`` that
    commute with the images before it, as the enumerator finds them.
    Each prefix is checked once: its centralizer is kept for every
    tuple that extends it."""
    cents = {(): list(transversal)}
    for images in stored:
        prefix = ()
        for h in images:
            cent = cents[prefix]
            prefix += (h,)
            if prefix not in cents:
                if min(_conjugates(group, cent, h)) < h:
                    return False
                cents[prefix] = _centralizing(group, cent, h)
    return True


def _store_cache(path: Path, group: FiniteGroup, result: AutomorphismGroup) -> None:
    gens = result.generating_set
    payload = {
        "table_hash": group.table_hash,
        "aut_order": result.order,
        "generators": list(gens),
        "representatives": [[b[g] for g in gens] for b in result.representatives],
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        pass  # cache is best-effort
