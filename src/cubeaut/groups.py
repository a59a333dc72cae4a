"""Finite groups as element-indexed Cayley tables.

Elements are the integers 0..n-1 and the identity is always element 0.
Every table is proven a group by one breadth-first walk from 0,
``_light_walk``. It composes one row per element, each the row of the
element it was reached from read through a generator row, and then
proves the group of the generator rows regular: every generator column
commutes with every generator row, so the table is that group's Cayley
table. It composes permutations only, so it also proves every row a
permutation of 0..n-1 without a set of any row. A table given whole
(``FiniteGroup(table)``, ``from_cayley_table``, a file, a quotient or a
subgroup) is proven at construction (see ``_validate_table``): one pass
over the whole table checks that it is square with int entries and
that row 0 and column 0 are the identity, then the walk runs on it, and
only a refused table is searched row by row for the witness it raises.
The builders and the permutation closure hand over the rows of a
generating set only, and the same walk composes the other rows from
them as it proves them (``_from_generator_rows``). Those rows come from
a group the caller built or whose input it checked, so the walk
refusing them is a bug and raises InternalCheckFailed.

A table entry must be a Python int: a bool, float or str is refused
with a ``NotClosed`` witness, never converted. Generator rows of the
walk, permutation generators, semidirect-product actions and
automorphism images all pass one test of "a permutation of 0..n-1",
``_is_permutation``, and every test of "element indices" is one,
``_are_indices``.

All structural queries are exact; nothing here is randomized or
approximate. Series, normality, the centre and commutativity work on
generating sets, which decide the same questions as the element-wise
definitions.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import eq, itemgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import (
    CapExceeded,
    FileFormatError,
    GroupTableError,
    InternalCheckFailed,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotASubgroup,
    NotClosed,
    NotLatin,
    NotNormal,
    UnsupportedParameter,
    bounded_repr,
)

MAX_ORDER = 20000  # largest order a builder or a generator-form file may produce,
                   # and largest permutation degree
MAX_ABELIAN_BUDGET = 2_000_000  # search nodes per group in max_abelian_subgroup_order


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Instances are immutable after construction; all queries are pure.
    """

    def __init__(self, table: Sequence[Sequence[int]], name: Optional[str] = None,
                 relabeling: Optional[tuple] = None):
        self.table = _validate_table(table)
        self.order = len(self.table)
        self.name = name
        self.relabeling = relabeling

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverses[a]

    def pow(self, a: int, k: int) -> int:
        """a**k for any integer k (negative powers via the inverse)."""
        if k < 0:
            a, k = self.inv(a), -k
        result = 0
        base = a
        while k:
            if k & 1:
                result = self.table[result][base]
            base = self.table[base][base]
            k >>= 1
        return result

    def conjugate(self, a: int, g: int) -> int:
        """g^-1 * a * g."""
        t = self.table
        return t[t[self.inv(g)][a]][g]

    def commutator(self, a: int, b: int) -> int:
        """a^-1 * b^-1 * a * b."""
        t = self.table
        return t[t[t[self.inv(a)][self.inv(b)]][a]][b]

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"

    # -- cached structure ---------------------------------------------------

    @cached_property
    def _inverses(self) -> tuple:
        return tuple(row.index(0) for row in self.table)

    @cached_property
    def element_orders(self) -> tuple:
        return tuple(self.element_order(a) for a in self.elements())

    @cached_property
    def is_abelian(self) -> bool:
        """Whether Z(G) is G, tested on ``generating_set``."""
        return len(self._center_elements) == self.order

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.element_orders)

    @cached_property
    def commuting_masks(self) -> tuple:
        """Per element, a bitmask of all elements commuting with it.

        Computed once per conjugacy class: a class of one element is
        central, and otherwise the table is scanned for C(x), x the
        least member, and each member c^-1 x c gets c^-1 C(x) c."""
        t = self.table
        n = self.order
        full = (1 << n) - 1
        masks = [full] * n
        for walk in self._class_walks():
            if len(walk) == 1:
                continue
            x = walk[0][0]
            cent = list(compress(range(n), map(eq, t[x], map(itemgetter(x), t))))
            for y, c in walk:
                row_inv = t[self.inv(c)]
                masks[y] = sum(1 << t[row_inv[z]][c] for z in cent)
        return tuple(masks)

    @cached_property
    def table_hash(self) -> str:
        """Content key of the table, used as the Aut(G) cache key: the hex
        sha256 of the compact JSON text of [n, S, [column of s for s in S]],
        S = ``generating_set`` and the column of s the products x*s for
        x = 0..n-1. Those columns decide the table: breadth-first from 0
        they reach each y along a word s1...sk, and by associativity
        x*y = (...(x*s1)*...)*sk."""
        gens = self.generating_set
        columns = [list(map(itemgetter(s), self.table)) for s in gens]
        text = json.dumps([self.order, gens, columns], separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    # -- subgroups ----------------------------------------------------------

    def _check_element(self, x) -> None:
        """Raise NotASubgroup unless x is an int naming an element: a
        bool, float, str or out-of-range index is refused, not converted."""
        if type(x) is not int or not 0 <= x < self.order:
            raise NotASubgroup(f"{x!r} is not an element index in 0..{self.order - 1}")

    def _check_elements(self, values: list) -> None:
        """``_check_element`` on every value, by one C-level test of the
        list; only a failing list is searched for its first witness."""
        if not _are_indices(values, self.order):
            for x in values:
                self._check_element(x)

    def subgroup(self, elements: Iterable[int]) -> "Subgroup":
        """Validate an element list as a subgroup and wrap it."""
        elements = list(elements)
        self._check_elements(elements)
        elems = sorted(set(elements))
        if not elems or elems[0] != 0:
            raise NotASubgroup("subgroup must contain the identity 0")
        inside = set(elems)
        for a in elems:
            if self.inv(a) not in inside:
                raise NotASubgroup(f"inverse of {a} missing")
            for b in elems:
                if self.table[a][b] not in inside:
                    raise NotASubgroup(f"product {a}*{b} escapes the element set")
        return Subgroup(self, tuple(elems))

    def subgroup_generated(self, gens: Iterable[int]) -> "Subgroup":
        return Subgroup(self, tuple(sorted(self.closure(gens))))

    def closure(self, gens: Iterable[int]) -> set:
        """Element set of the subgroup generated by ``gens``, each an
        element index (see ``_check_element``)."""
        gens = list(gens)
        self._check_elements(gens)
        gens = [g for g in gens if g != 0]
        seen = {0}
        queue = [0]
        for g in gens:
            if g not in seen:
                seen.add(g)
                queue.append(g)
        i = 0
        while i < len(queue):
            a = queue[i]
            i += 1
            row = self.table[a]
            for g in gens:
                c = row[g]
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        return seen

    @cached_property
    def _center_elements(self) -> tuple:
        """Z(G) ascending, as a plain tuple: the elements that commute
        with every member of ``generating_set``, so with every word."""
        t = self.table
        members = self.elements()
        for g in self.generating_set:
            row = t[g]
            members = [z for z in members if t[z][g] == row[z]]
        return tuple(members)

    @cached_property
    def center(self) -> "Subgroup":
        """Z(G), the Subgroup of ``_center_elements``."""
        return Subgroup(self, self._center_elements)

    def centralizer(self, target: "int | Subgroup") -> "Subgroup":
        """Centralizer of an element or of a Subgroup."""
        if isinstance(target, Subgroup):
            target._check_parent(self)
            mask = -1
            for x in target.elements:
                mask &= self.commuting_masks[x]
        else:
            self._check_element(target)
            mask = self.commuting_masks[target]
        members = [a for a in self.elements() if (mask >> a) & 1]
        return Subgroup(self, tuple(members))

    def normalizer(self, sub: "Subgroup") -> "Subgroup":
        """Elements g with H^g = H, tested on the generators of H: H^g is
        generated by their conjugates and has the order of H."""
        sub._check_parent(self)
        members = [g for g in self.elements()
                   if all(self.conjugate(h, g) in sub for h in sub.generators)]
        return Subgroup(self, tuple(members))

    def right_cosets(self, sub: "Subgroup") -> tuple:
        """Partition into right cosets H*g; identity coset first, then by
        ascending least element. Returns (representatives, cosets)."""
        sub._check_parent(self)
        reps, coset_of = self._coset_map(sub.elements)
        cosets: list = [[] for _ in reps]
        for x, c in enumerate(coset_of):
            cosets[c].append(x)
        return reps, tuple(map(tuple, cosets))

    def _coset_map(self, elements) -> tuple:
        """(representatives, coset_of) of the right cosets H*g of H, the
        subgroup of ``elements``: the least element of each coset, in
        ``right_cosets`` order, and per element the index of its coset."""
        table = self.table
        coset_of = [-1] * self.order
        reps: list = []
        for g in self.elements():
            if coset_of[g] < 0:
                for h in elements:
                    coset_of[table[h][g]] = len(reps)
                reps.append(g)
        return tuple(reps), tuple(coset_of)

    @cached_property
    def derived_subgroup(self) -> "Subgroup":
        """G', the second term of the derived series (G itself if perfect)."""
        series = self.derived_series
        return series[1] if len(series) > 1 else series[0]

    @cached_property
    def derived_series(self) -> tuple:
        """(G, G', G'', ...) until the series stabilizes.

        The commutators of generators of H generate [H, H] as a normal
        subgroup of H; [H, H] is characteristic in H, so normal in G, and
        is also their normal closure in G.
        """
        return self._commutator_series(lambda gens: gens)

    @cached_property
    def is_solvable(self) -> bool:
        return self.derived_series[-1].order == 1

    @cached_property
    def lower_central_series(self) -> tuple:
        """(G, [G,G], [[G,G],G], ...) until stable.

        [N, G] for a normal N is the normal closure of the commutators
        [a, g] of generators a of N with generators g of G.
        """
        return self._commutator_series(lambda gens: self.generating_set)

    def _commutator_series(self, partners) -> tuple:
        """(G, N1, N2, ...) with N(i+1) = <[a, b] : a in gens N(i),
        b in partners(gens N(i))>^G, until the series stabilizes."""
        series = [Subgroup(self, tuple(range(self.order)))]
        gens = self.generating_set
        while True:
            right = partners(gens)
            commutators = [self.commutator(a, b) for a in gens for b in right]
            inside, gens = self._normal_closure(commutators)
            if len(inside) == series[-1].order:
                break
            series.append(Subgroup(self, tuple(sorted(inside))))
            if len(inside) == 1:
                break
        return tuple(series)

    def _normal_closure(self, gens: Sequence[int]) -> tuple:
        """<gens>^G, the least normal subgroup containing ``gens``.

        Returns (element set, generators held). A generator is held when
        it enlarges the subgroup; its conjugates by ``generating_set``
        are then queued. Once every queued conjugate lies inside, the
        subgroup is mapped into itself by generators of G, so it is normal.
        """
        held: list = []
        inside = {0}
        queue = list(gens)
        i = 0
        while i < len(queue):
            x = queue[i]
            i += 1
            if x in inside:
                continue
            held.append(x)
            inside = self.closure(held)
            queue.extend(self.conjugate(x, g) for g in self.generating_set)
        return inside, held

    @cached_property
    def nilpotency_class(self) -> Optional[int]:
        series = self.lower_central_series
        if series[-1].order != 1:
            return None
        return len(series) - 1

    def quotient(self, normal: "Subgroup") -> tuple:
        """Factor group G/N with its projection.

        Returns (FiniteGroup, projection) where projection[g] is the
        index of the coset of g. Coset 0 is N itself; the others are
        ordered by ascending least element.
        """
        normal._check_parent(self)
        if not self.is_normal(normal):
            raise NotNormal(f"subgroup of order {normal.order} is not normal")
        reps, proj = self._coset_map(normal.elements)
        m = len(reps)
        table = [[proj[self.table[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
        label = f"{self.name or 'G'}/N{normal.order}"
        return FiniteGroup(table, name=label), proj

    def is_normal(self, sub: "Subgroup") -> bool:
        """H^g is inside H for g in ``generating_set``, tested on the
        generators of H."""
        sub._check_parent(self)
        return all(self.conjugate(h, g) in sub
                   for g in self.generating_set for h in sub.generators)

    def sylow(self, p: int) -> "Subgroup":
        """A Sylow p-subgroup, by normalizer ascent.

        Starting from a cyclic p-subgroup P, repeatedly adjoin the least
        g in N(P) with g not in P and g^p in P, i.e. the least element
        whose coset has order p in N(P)/P; no quotient table is built.
        While P is not Sylow, p divides |N(P)/P|, so such a g exists.
        """
        if type(p) is not int or prime_divisors(p) != (p,):
            raise UnsupportedParameter(f"{p} is not prime")
        p_part = 1
        n = self.order
        while n % p == 0:
            p_part *= p
            n //= p
        if p_part == 1:
            return Subgroup(self, (0,))
        seed = 0
        for x in self.elements():
            if self.element_orders[x] % p == 0:
                seed = self.pow(x, self.element_orders[x] // p)
                break
        current = self.subgroup_generated([seed])
        while current.order < p_part:
            lift = next(g for g in self.normalizer(current).elements
                        if g not in current and self.pow(g, p) in current)
            current = self.subgroup_generated(list(current.generators) + [lift])
        return current

    @cached_property
    def generating_set(self) -> tuple:
        """Greedy small generating set: repeatedly adjoin the element
        that most enlarges the generated subgroup (ties to the least
        index). Each step at least doubles the subgroup, so the result
        has at most log2 |G| members.

        A candidate y inside <gens, x> for an earlier x cannot win, since
        <gens, y> is no larger, so it is skipped; a candidate reaching
        |G| ends the scan."""
        gens: list = []
        size = 1
        while size < self.order:
            best_x, best_size = None, 0
            covered: set = set()
            for x in self.elements():
                if x in covered:
                    continue
                closure = self.closure(gens + [x])
                covered |= closure
                if len(closure) > best_size:
                    best_x, best_size = x, len(closure)
                    if best_size == self.order:
                        break
            gens.append(best_x)
            size = best_size
        return tuple(gens)

    @cached_property
    def conjugacy_classes(self) -> tuple:
        """Classes as sorted tuples, ordered by ascending least element."""
        return tuple(tuple(sorted(y for y, _ in walk)) for walk in self._class_walks())

    def _class_walks(self) -> list:
        """Per conjugacy class, ascending by least element x, the pairs
        (y, c) with y = c^-1 x c, found breadth-first from (x, 0) by
        conjugating with ``generating_set``."""
        table = self.table
        moves = [(table[self.inv(g)], g) for g in self.generating_set]
        seen = [False] * self.order
        walks = []
        for x in self.elements():
            if seen[x]:
                continue
            seen[x] = True
            walk = [(x, 0)]
            for y, c in walk:
                for row_inv, g in moves:
                    z = table[row_inv[y]][g]
                    if not seen[z]:
                        seen[z] = True
                        walk.append((z, table[c][g]))
            walks.append(walk)
        return walks

    @cached_property
    def normal_subgroups(self) -> tuple:
        """All normal subgroups, as joins of element normal closures.

        The join of normal subgroups N and M is the product NM, the union
        of the cosets Nm for m in M, so it is built coset by coset."""
        base = []
        seen = set()
        for cls in self.conjugacy_classes:
            closure = frozenset(self._normal_closure(cls[:1])[0])
            if closure not in seen:
                seen.add(closure)
                base.append(closure)
        table = self.table
        lattice = {frozenset({0})}
        queue = [frozenset({0})]
        while queue:
            current = queue.pop()
            rows = [table[x] for x in current]
            for b in base:
                if b <= current:
                    continue
                joined = set(current)
                for m in b:
                    if m not in joined:
                        joined.update(map(itemgetter(m), rows))
                joined = frozenset(joined)
                if joined not in lattice:
                    lattice.add(joined)
                    queue.append(joined)
        subs = [Subgroup(self, tuple(sorted(s))) for s in lattice]
        subs.sort(key=lambda s: (s.order, s.elements))
        return tuple(subs)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a FiniteGroup, stored as a sorted element tuple."""

    parent: FiniteGroup
    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._element_set

    @cached_property
    def _element_set(self) -> frozenset:
        return frozenset(self.elements)

    @cached_property
    def generators(self) -> tuple:
        """Each element not yet in the span of those before it, in order."""
        gens: list = []
        reached = {0}
        for x in self.elements:
            if x not in reached:
                gens.append(x)
                reached = self.parent.closure(gens)
        return tuple(gens)

    @property
    def is_abelian(self) -> bool:
        t = self.parent.table
        return all(t[a][b] == t[b][a] for a in self.generators for b in self.generators)

    def _check_parent(self, group: FiniteGroup) -> None:
        if self.parent is not group:
            raise NotASubgroup("subgroup belongs to a different group")

    def as_group(self) -> tuple:
        """Realize the subgroup as its own FiniteGroup.

        Returns (group, embedding) where embedding[i] is the parent
        element of the subgroup's element i. Element 0 stays 0.
        """
        index = {g: i for i, g in enumerate(self.elements)}
        table = [[index[self.parent.table[a][b]] for b in self.elements] for a in self.elements]
        name = f"{self.parent.name or 'G'}<{self.order}>"
        return FiniteGroup(table, name=name), tuple(self.elements)


def prime_divisors(n: int) -> tuple:
    """The primes dividing n, ascending, by trial division; () for n < 2."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


# ---------------------------------------------------------------------------
# Construction and validation


def from_cayley_table(table: Sequence[Sequence[int]], name: Optional[str] = None) -> FiniteGroup:
    """Validate a raw table as a group.

    If the table is a group but its identity is some element e != 0,
    the labels 0 and e are swapped so the identity lands at index 0;
    the relabeling permutation (old index -> new index) is recorded on
    the returned group. A refused table raises the witness of its rows
    as given: a bad row or entry before a missing identity, and both
    before a relabeled table's associativity witness.
    """
    rows = tuple(map(tuple, table))
    n = len(rows)
    ident = _find_identity(rows) if set(map(len, rows)) == {n} else None
    if ident == 0:
        return FiniteGroup(rows, name=name)
    _check_rows(rows)
    if ident is None:
        raise NoIdentity("no two-sided identity element")
    sigma = list(range(n))
    sigma[0], sigma[ident] = ident, 0
    relabeled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabeled[sigma[a]][sigma[b]] = sigma[rows[a][b]]
    return FiniteGroup(relabeled, name=name, relabeling=tuple(sigma))


def _are_indices(values, n: int) -> bool:
    """True iff every value is an int in 0..n-1 (a bool, float or str is
    not an index), by one C-level test of the whole sequence; an empty
    one passes."""
    return not values or (set(map(type, values)) <= {int}
                          and min(values) >= 0 and max(values) < n)


def _is_permutation(values, n: int) -> bool:
    """True iff ``values`` holds each of 0..n-1 exactly once, every entry
    of type int."""
    return len(values) == n and _are_indices(values, n) and len(set(values)) == n


def _is_square_of_ints(rows) -> bool:
    """True iff ``rows`` is n >= 1 rows of length n whose entries are all
    of type int, by two C-level passes over the whole table."""
    n = len(rows)
    return set(map(len, rows)) == {n} and set(map(type, chain.from_iterable(rows))) <= {int}


def _find_identity(rows) -> Optional[int]:
    n = len(rows)
    for e in range(n):
        if all(rows[e][b] == b for b in range(n)) and all(rows[a][e] == a for a in range(n)):
            return e
    return None


def _check_rows(table) -> tuple:
    """The rows of a nonempty square table whose every row is a
    permutation of 0..n-1, as tuples. Only a failing row is searched for
    its witness: its length, else its first entry that is not an int in
    0..n-1, else a missing 0 (no inverse), else a repeated entry."""
    rows = tuple(map(tuple, table))
    n = len(rows)
    if n == 0:
        raise NoIdentity("empty table")
    for i, row in enumerate(rows):
        if _is_permutation(row, n):
            continue
        if len(row) != n:
            raise NotClosed(i, len(row), None)
        for j, v in enumerate(row):
            if type(v) is not int or not (0 <= v < n):
                raise NotClosed(i, j, v)
        if 0 not in row:
            raise NoInverse(i)
        raise NotLatin(i)
    return rows


def _validate_table(table) -> tuple:
    """Prove the table is a group and return its rows as tuples.

    One pass checks that the table is square with int entries and that
    row 0 and column 0 are the identity. Then the breadth-first walk
    from 0 (``_light_walk``) takes the least element not yet reached as
    its next generator each time it stalls; in a group these are the
    generators ``_light_associativity`` picks, each the least element
    outside the span of the earlier ones. The walk checks that every
    row is a product of the generator rows and that the generators'
    columns commute with their rows, so the group P those rows generate
    is regular and the table is P's Cayley table.

    A table the walk refuses goes through the per-row checks instead:
    every row a permutation (``_check_rows``), 0 a two-sided identity,
    and Light's test (``_light_associativity``). The first that fails
    raises its witness. These checks also prove a group, and they accept
    exactly the tables the walk accepts.
    """
    rows = tuple(map(tuple, table))
    ident = tuple(range(len(rows)))

    def least_unreached(reached):
        s = reached.find(0)
        return None if s < 0 else (s, rows[s])

    if (_is_square_of_ints(rows)
            and rows[0] == ident and tuple(map(itemgetter(0), rows)) == ident
            and _light_walk(rows, least_unreached) is None):
        return rows
    rows = _check_rows(rows)
    if rows[0] != ident or tuple(map(itemgetter(0), rows)) != ident:
        raise NoIdentity("element 0 is not a two-sided identity")
    _light_associativity(rows)
    return rows


def _light_walk(rows, next_generator) -> Optional[tuple]:
    """The one proof of a group table, breadth-first from 0.

    ``rows[0]`` is the identity. Each time the walk stalls,
    ``next_generator(reached)`` gives the next generator s with its row,
    or None to end; the row must be a permutation of 0..n-1 with s in
    column 0. Each reached a is walked against every generator g,
    including those given after a was reached, and a pair (a, g) that
    reaches c = a*g for the first time stores row c as row g read
    through row a (a table given whole must already hold that row); a
    pair whose c was already reached composes nothing. So the walk
    composes one row per element, each row a product of generator rows
    with its own index in column 0, and every entry comes from
    ``range(n)`` or a checked generator row, so no read is out of range.

    Once all n elements are reached, regularity replaces Light's test on
    the other pairs: for walked generators g and y, column y (x -> x*y)
    read through row g must equal row g read through column y, 2k^2
    compositions for k walked generators. Every row lies in P, the group
    of the walked generator rows; the columns commute with the generator
    rows, so with all of P; and every x was reached as 0*y_1*...*y_m, a
    word in the columns applied to 0, so a member of P that fixes 0
    fixes every x. P is regular, row x is the one member of P taking 0
    to x, and the table is P's Cayley table. A generator given after all
    n are reached is checked on the pair (0, s) alone: its row must be
    row s.

    Returns None when all n elements were reached and every check held,
    else the first check that failed: ("row", s) for a bad generator
    row, ("law", a, g) for a stored row a*g that is not row g read
    through row a, ("reach", x) for the least element x not reached, or
    ("commute", g, y) for a generator row g and column y that do not
    commute.
    """
    n = len(rows)
    reached = bytearray(n)
    reached[0] = 1
    walk = [0]
    gens: list = []  # (g, row g, row g as a getter over a row)
    while (picked := next_generator(reached)) is not None:
        s, row_s = picked
        if not (_is_permutation(row_s, n) and row_s[0] == s):
            return ("row", s)
        if len(walk) == n:  # the rows walked make the group, so (0, s) is the one pair left
            if rows[s] != tuple(row_s):
                return ("law", 0, s)
            continue
        gens.append((s, row_s, itemgetter(*row_s)))  # n >= 2 here
        # the elements reached before s against s alone, the rest
        # against every generator
        newest, earlier = gens[-1:], len(walk)
        for i, a in enumerate(walk):  # walk grows during the loop
            if len(walk) == n:  # every pair left would compose nothing
                break
            row_a = rows[a]
            for g, _, through_g in (newest if i < earlier else gens):
                c = row_a[g]
                if reached[c]:
                    continue
                if rows[c] is None:
                    rows[c] = through_g(row_a)
                elif rows[c] != through_g(row_a):
                    return ("law", a, g)
                reached[c] = 1
                walk.append(c)
    x = reached.find(0)
    if x >= 0:
        return ("reach", x)
    columns = [tuple(map(itemgetter(y), rows)) for y, _, _ in gens]
    through_columns = [itemgetter(*column) for column in columns]
    for g, row_g, through_g in gens:
        for (y, _, _), column, through_column in zip(gens, columns, through_columns):
            if through_column(row_g) != through_g(column):
                return ("commute", g, y)
    return None


def _from_generator_rows(order: int, generator_rows: dict,
                         name: Optional[str] = None) -> FiniteGroup:
    """The group of ``order`` elements generated by the rows of
    ``generator_rows`` (element -> its row, the products g*x for x =
    0..order-1), with identity 0.

    ``_light_walk`` composes one row per element and proves the table by
    the generator columns, so the group skips ``FiniteGroup.__init__``
    and its whole-table proof. Every caller hands over the rows of a
    group it built, or whose input it has checked, so a refusal is a
    bug: it raises InternalCheckFailed naming the group and the check
    that failed.
    """
    rows = [tuple(range(order))] + [None] * (order - 1)
    pending = iter(generator_rows.items())
    failure = _light_walk(rows, lambda reached: next(pending, None))
    if failure is not None:
        raise InternalCheckFailed(f"the build walk refused the generator rows of "
                                  f"{name or 'a group'} of order {order}: "
                                  f"{bounded_repr(failure)}")
    group = FiniteGroup.__new__(FiniteGroup)
    group.table, group.order, group.name, group.relabeling = tuple(rows), order, name, None
    return group


def _light_associativity(rows: tuple) -> None:
    """Light's test: verifying (a*s)*c == a*(s*c) for s in a generating
    set proves associativity for all triples (the set of middle elements
    satisfying the law is closed under the product and contains 0)."""
    n = len(rows)
    gens = []
    seen = {0}
    for x in range(1, n):
        if x in seen:
            continue
        gens.append(x)
        # closure under the raw table; needs no associativity assumption
        queue = [0]
        seen = {0}
        for g in gens:
            if g not in seen:
                seen.add(g)
                queue.append(g)
        i = 0
        while i < len(queue):
            a = queue[i]
            i += 1
            for g in gens:
                c = rows[a][g]
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
                d = rows[g][a]
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
    # row a*s against row s read through row a; only a failing row is
    # searched for its least c
    for s in gens:
        row_s = rows[s]
        through_s = itemgetter(*row_s)  # n >= 2 here, so it returns a tuple
        for a, row_a in enumerate(rows):
            row_as = rows[row_a[s]]
            if row_as != through_s(row_a):
                c = next(c for c in range(n) if row_as[c] != row_a[row_s[c]])
                raise NotAssociative(a, s, c)


def from_permutation_generators(generators: Sequence[Sequence[int]], degree: int,
                                cap: int, name: Optional[str] = None) -> FiniteGroup:
    """Group generated by permutations of 0..degree-1, by BFS closure.

    Element order is the BFS discovery order with the identity first;
    the product a*b is "apply a, then b". ``degree`` must be an int in
    1..MAX_ORDER, checked before anything is allocated. Raises
    CapExceeded once the closure grows past ``cap``.
    """
    if type(degree) is not int or not 1 <= degree <= MAX_ORDER:
        raise UnsupportedParameter(f"degree must be an int in 1..{MAX_ORDER}, not {degree!r}")
    gens = []
    for k, g in enumerate(generators):
        perm = tuple(g)
        if not _is_permutation(perm, degree):
            raise UnsupportedParameter(f"generator {k} is not a permutation of 0..{degree - 1}")
        gens.append(perm)
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    for current in elems:  # elems grows during the loop
        for g in gens:
            image = tuple(map(g.__getitem__, current))
            if image not in index:
                if len(elems) >= cap:
                    raise CapExceeded("permutation closure exceeded cap", len(elems))
                index[image] = len(elems)
                elems.append(image)
    # the row of g is its left column, index(g*x) per x; the closure is
    # freed before the walk builds the table from these rows
    generator_rows = {index[g]: tuple([index[tuple(map(x.__getitem__, g))] for x in elems])
                      for g in gens}
    order = len(elems)
    del elems, index
    return _from_generator_rows(order, generator_rows, name=name)


# ---------------------------------------------------------------------------
# Maximum abelian subgroup (branch and bound)


@dataclass(frozen=True)
class MaxAbelianResult:
    size: int
    witness: Subgroup
    exact: bool
    nodes: int


def max_abelian_subgroup_order(group: FiniteGroup,
                               budget: int = MAX_ABELIAN_BUDGET) -> MaxAbelianResult:
    """Exact maximum order of an abelian subgroup.

    Branch and bound over commuting generator chains. Every maximal
    abelian subgroup contains the center, and every abelian subgroup
    larger than the center is conjugate to one that holds the least
    element r of some non-central class. So the root branches once per
    non-central class, on r, with the classes in priority order
    (descending centralizer size), and the subtree of r drops every
    element of an earlier class from its candidates: a subgroup meeting
    an earlier class was already covered, up to conjugacy, in that
    class's subtree. Inside a subtree, candidates are added in that
    priority order, each later than the last one added, and a branch is
    cut when |current| + |still-commuting outsiders| cannot beat the
    best.

    A candidate x commutes with the abelian subgroup H it joins, so
    <H, x> is the union of the cosets x^i H up to the first power of x
    inside H, each read off the row of x^i; only the cyclic seed calls
    ``closure``. Every node, roots included, counts against ``budget``;
    if it runs out the best value found so far is returned with
    ``exact=False``.
    """
    n = group.order
    comm = group.commuting_masks
    priority = sorted(range(n), key=lambda x: (-comm[x].bit_count(), x))
    position = [0] * n
    for pos, x in enumerate(priority):
        position[x] = pos

    center = group._center_elements
    center_mask = _mask_of(center)
    best_size, best_set = len(center), center
    x0 = max(group.elements(), key=lambda x: (group.element_orders[x], -x))
    cyc = group.subgroup_generated([x0])
    if cyc.order > best_size:
        best_size, best_set = cyc.order, cyc.elements

    # a move is (x, the candidates that commute with x, the child's last
    # priority position); a root's subtree may add any later candidate
    roots = []
    earlier = center_mask
    for cls in sorted((c for c in group.conjugacy_classes if len(c) > 1),
                      key=lambda c: position[c[0]]):
        roots.append((cls[0], comm[cls[0]] & ~earlier, -1))
        earlier |= _mask_of(cls)

    nodes = 0
    exact = True
    stack = [(center, center_mask, n, roots)]  # bound n: |Z| + non-central
    while stack:
        elems, mask, bound, moves = stack.pop()
        if bound <= best_size:
            continue
        children = []
        for x, compat, last_pos in moves:
            nodes += 1
            if nodes > budget:
                exact = False
                stack.clear()
                children = []
                break
            new_elems, new_mask = _join_cyclic(group.table, elems, mask, x)
            if len(new_elems) > best_size:
                best_size, best_set = len(new_elems), tuple(sorted(new_elems))
            compat &= ~new_mask
            children.append((new_elems, new_mask, len(new_elems) + compat.bit_count(),
                             _chain_moves(compat, last_pos, comm, position)))
        stack.extend(reversed(children))
    return MaxAbelianResult(best_size, Subgroup(group, best_set), exact, nodes)


def _chain_moves(compat: int, last_pos: int, comm: tuple, position: list):
    """The moves of a chain node: each candidate x in ``compat`` whose
    priority position is past ``last_pos``, in ascending element order."""
    cand = compat
    while cand:
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        if position[x] > last_pos:
            yield x, compat & comm[x], position[x]


def _join_cyclic(table, elems: Sequence[int], mask: int, x: int) -> tuple:
    """(elements, mask) of <H, x> for an abelian H, given by its elements
    and mask, and an x outside H that commutes with it: the cosets
    x^i H, each the row of x^i read at H's elements, up to the first
    power x^i inside H."""
    grown = list(elems)
    new_mask = mask
    power = x
    while not mask >> power & 1:
        row = table[power]
        for y in map(row.__getitem__, elems):
            grown.append(y)
            new_mask |= 1 << y
        power = row[x]
    return grown, new_mask


def _mask_of(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


# ---------------------------------------------------------------------------
# File formats


def group_to_json(group: FiniteGroup) -> dict:
    return {
        "name": group.name or "group",
        "order": group.order,
        "table": [list(row) for row in group.table],
    }


def load_group_json(data: dict) -> FiniteGroup:
    """Build a group from either supported JSON shape.

    Cayley form: {"name":..., "order": n, "table": [[...], ...]}
    Generator form: {"degree": d, "generators": [[...], ...]}, d at
    most MAX_ORDER. In both forms "name" is optional and a declared
    "order" must be an int equal to the order the file gives.
    """
    if not isinstance(data, dict):
        raise FileFormatError("$", "expected a JSON object")
    name = data.get("name")
    if "name" in data and not isinstance(name, str):
        raise FileFormatError("name", f"expected a string, not {bounded_repr(name)}")
    if isinstance(name, str):
        try:
            name.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate, which JSON can carry
            raise FileFormatError("name", f"{bounded_repr(name)} does not encode as UTF-8") from exc
    order = data.get("order")
    if "order" in data and type(order) is not int:
        raise FileFormatError("order", f"expected an integer, not {bounded_repr(order)}")
    if "table" in data:
        table = data["table"]
        if not isinstance(table, list):
            raise FileFormatError("table", "expected a list of rows")
        n = len(table)
        if "order" in data and order != n:
            raise FileFormatError("order", f"declared {order} but table has {n} rows")
        if not set(map(type, table)) <= {list}:
            _check_table_format(table)
        try:
            return from_cayley_table(table, name=name)
        except GroupTableError:
            _check_table_format(table)  # a malformed row or entry comes first
            raise
    if "generators" in data:
        degree = data.get("degree")
        if type(degree) is not int or not 1 <= degree <= MAX_ORDER:
            raise FileFormatError("degree", f"expected an integer in 1..{MAX_ORDER}")
        gens = data["generators"]
        if not isinstance(gens, list):
            raise FileFormatError("generators", "expected a list of permutations")
        for k, g in enumerate(gens):
            if not isinstance(g, list) or not _is_permutation(g, degree):
                raise FileFormatError(f"generators[{k}]", f"not a permutation of 0..{degree - 1}")
        group = from_permutation_generators(gens, degree, cap=MAX_ORDER, name=name)
        if "order" in data and order != group.order:
            raise FileFormatError("order", f"declared {order} but the generators "
                                           f"give {group.order} elements")
        return group
    raise FileFormatError("$", "object has neither 'table' nor 'generators'")


def _check_table_format(table: list) -> None:
    """Raise the FileFormatError of the first row, in order, that is not
    a list of n entries or holds an entry that is not an int in 0..n-1."""
    n = len(table)
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"table[{i}]", "row length differs from table size")
        for j, v in enumerate(row):
            if type(v) is not int or not (0 <= v < n):
                raise FileFormatError(f"table[{i}][{j}]",
                                      f"entry {bounded_repr(v)} not an index in 0..{n - 1}")


def read_json_file(path):
    """Parsed JSON content of a file; FileFormatError if unreadable or malformed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(str(path), f"cannot read file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    except RecursionError as exc:
        raise FileFormatError(str(path), "JSON nested too deeply") from exc


def load_group_file(path) -> FiniteGroup:
    group = load_group_json(read_json_file(path))
    if group.name is None:
        group.name = Path(path).stem
    return group
