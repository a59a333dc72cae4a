"""The shipped group catalog and the one table of group names.

``REGISTRY`` holds one row per family (Z, D, T3i, S, A, L2, PGL2) and one
per single group (Q8, T3ii, SL23, ..., the direct products), in catalog
order. A row gives the canonical name, the spellings that denote it, the
``group build`` word, the builder, the shipped parameters and the order.
``built_in_catalog`` and ``build_named_group`` both read it.

Entries are lazy (groups are built on first use) so iterating with an
order cap never constructs the large projective tables. Duplicate
Cayley tables (equal rows tuples) are dropped during iteration.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import builders
from .errors import UnsupportedParameter
from .groups import FiniteGroup


@dataclass
class CatalogEntry:
    name: str
    order: int
    build: Callable[[], FiniteGroup]


class Catalog:
    """Ordered, lazily built list of named groups, deduplicated by table.
    Each entry is built at most once per catalog object."""

    def __init__(self, entries=()):
        self.entries: list = list(entries)
        self._built: dict = {}
        self._by_name: dict = {e.name.lower(): e for e in self.entries}

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._by_name

    def entry(self, name: str) -> CatalogEntry:
        entry = self._by_name.get(name.lower())
        if entry is None:
            raise UnsupportedParameter(f"no catalog group named {name!r}")
        return entry

    def build(self, name: str) -> FiniteGroup:
        entry = self.entry(name)
        if entry.name not in self._built:
            self._built[entry.name] = entry.build()
        return self._built[entry.name]

    def groups(self, order_cap: Optional[int] = None,
               min_order: int = 1) -> Iterator[tuple]:
        """Yield (name, group) in catalog order, deduplicated by their
        tables (equal rows, compared exactly), skipping entries outside
        [min_order, order_cap]."""
        seen = set()
        for entry in self.entries:
            if order_cap is not None and entry.order > order_cap:
                continue
            if entry.order < min_order:
                continue
            group = self.build(entry.name)
            if group.table in seen:
                continue
            seen.add(group.table)
            yield entry.name, group

    def names(self, order_cap: Optional[int] = None, min_order: int = 1) -> list:
        return [name for name, _ in self.groups(order_cap, min_order)]


# ---------------------------------------------------------------------------
# Built-in constructions beyond the plain builders


def _cyclic_extension(base: FiniteGroup, sigma: list, m: int, name: str) -> FiniteGroup:
    """base : C_m, the generator of C_m acting as the automorphism sigma
    (whose order divides m); semidirect_product re-checks both."""
    action = [list(range(base.order))]
    for _ in range(m - 1):
        action.append([sigma[x] for x in action[-1]])
    g = builders.semidirect_product(base, builders.cyclic(m), action)
    g.name = name
    return g


def special_linear_2_3() -> FiniteGroup:
    """SL(2,3) as the quaternion group extended by a 3-cycle of i,j,k.

    In Q8, x^a y^b is element 4b + a; sigma sends x to y and y to xy.
    """
    return _cyclic_extension(builders.quaternion8(), [0, 4, 2, 6, 5, 1, 7, 3], 3, "SL23")


def heisenberg27() -> FiniteGroup:
    """The exponent-3 group of order 27: (C3 x C3) extended by a shear."""
    base = builders.direct_product(builders.cyclic(3), builders.cyclic(3))
    shear = [((a + b) % 3) * 3 + b for a in range(3) for b in range(3)]
    return _cyclic_extension(base, shear, 3, "Heis27")


def frobenius20() -> FiniteGroup:
    """C5 : C4 with the generator acting as multiplication by 2."""
    return _cyclic_extension(builders.cyclic(5), [(2 * a) % 5 for a in range(5)], 4, "F20")


def frobenius21() -> FiniteGroup:
    """C7 : C3 with the generator acting as multiplication by 2."""
    return _cyclic_extension(builders.cyclic(7), [(2 * a) % 7 for a in range(7)], 3, "F21")


def generalized_dihedral_9() -> FiniteGroup:
    """(C3 x C3) : C2 with the involution inverting everything."""
    base = builders.direct_product(builders.cyclic(3), builders.cyclic(3))
    return _cyclic_extension(base, [base.inv(x) for x in range(9)], 2, "GD9")


# ---------------------------------------------------------------------------
# The registry


@dataclass(frozen=True)
class _Row:
    """A family when ``name`` holds ``{}`` for its parameter, else one group.

    ``spelling`` is the regex of the lower-case names that denote the row,
    with one group per parameter written in the name; ``word`` takes the
    parameters as separate tokens. ``build`` and ``order`` take the
    parameters; ``shipped`` lists the parameter tuples in the catalog.
    """
    name: str
    spelling: str
    build: Callable[..., FiniteGroup]
    order: Callable[..., int]
    shipped: tuple = ((),)
    word: Optional[str] = None


def _group(name: str, build: Callable[[], FiniteGroup], order: int,
           word: Optional[str] = None) -> _Row:
    return _Row(name, re.escape(name.lower()), build, lambda: order, word=word)


def _product(name: str, order: int) -> _Row:
    """The direct product of the factors the name spells, folded from the
    left: Z2xQ8xZ2 is (Z2 x Q8) x Z2."""
    def build():
        factors = [_parse(f) for f in name.split("x")]
        return functools.reduce(builders.direct_product,
                                [row.build(*k) for row, k in factors])

    return _group(name, build, order)


_PAREN = r"[_(]?(\d+)\)?"  # l2_7, l2(7) and l27 all name L2(7)


def _each(ks) -> tuple:
    return tuple((k,) for k in ks)


REGISTRY = (
    _Row("Z{}", r"[zc](\d+)", lambda n: builders.cyclic(n), lambda n: n,
         _each(range(1, 65)), "cyclic"),
    _Row("D{}", r"d(\d+)", lambda n: builders.dihedral(n), lambda n: 2 * n,
         _each(range(3, 33)), "dihedral"),
    _group("Q8", lambda: builders.quaternion8(), 8, "quaternion8"),
    _Row("T3i({})", "t3i" + _PAREN, lambda k: builders.type3_group_i(k),
         lambda k: 2 ** (2 * k + 1), _each((1, 2)), "type3i"),
    _group("T3ii", lambda: builders.type3_group_ii(), 64, "type3ii"),
    _Row("S{}", r"s(\d+)", lambda n: builders.symmetric(n), math.factorial,
         _each(range(2, 7)), "symmetric"),
    _Row("A{}", r"a(\d+)", lambda n: builders.alternating(n),
         lambda n: math.factorial(n) // 2, _each(range(3, 7)), "alternating"),
    _group("SL23", special_linear_2_3, 24),
    _group("Heis27", heisenberg27, 27),
    _group("F20", frobenius20, 20),
    _group("F21", frobenius21, 21),
    _group("GD9", generalized_dihedral_9, 18),
    _Row("L2({})", "l2" + _PAREN, lambda q: builders.psl2(q),
         lambda q: q * (q * q - 1) // math.gcd(2, q - 1),
         _each(builders.SUPPORTED_Q), "psl2"),
    _Row("PGL2({})", "pgl2" + _PAREN, lambda q: builders.pgl2(q),
         lambda q: q * (q * q - 1), _each(builders.SUPPORTED_Q), "pgl2"),
    *(_product(name, order) for name, order in (
        ("Z2xZ2", 4), ("Z2xZ4", 8), ("Z2xZ2xZ2", 8), ("Z3xZ3", 9), ("Z2xZ6", 12),
        ("Z2xS3", 12), ("Z4xZ4", 16), ("Z2xD4", 16), ("Z2xQ8", 16), ("Z3xS3", 18),
        ("Z2xA4", 24), ("Z4xZ6", 24), ("Z3xD4", 24), ("Z3xQ8", 24), ("Z5xZ5", 25),
        ("Z2xQ8xZ2", 32), ("D4xZ4", 32), ("S3xS3", 36), ("Z6xZ6", 36), ("Z3xA4", 36),
        ("Z5xD4", 40), ("Z7xQ8", 56), ("Z2xZ2xZ16", 64))),
)


def built_in_catalog() -> Catalog:
    """The shipped catalog: every group the analyses name, plus a
    spread of positives and negatives for the classification scans."""
    return Catalog(CatalogEntry(row.name.format(*params), row.order(*params),
                                functools.partial(row.build, *params))
                   for row in REGISTRY for params in row.shipped)


def _parse(name: str) -> Optional[tuple]:
    """(row, parameters) for a spelling ``NAME [K]``: NAME is one of the
    row's spellings, or its word followed by the parameters. None when
    no row knows NAME."""
    tokens = name.lower().split()
    if not tokens:
        return None
    head, rest = tokens[0], tokens[1:]
    for row in REGISTRY:
        match = re.fullmatch(row.spelling, head)
        if match is None and head != row.word:
            continue
        named = match.groups() if match else ()
        wanted = row.name.count("{}") - len(named)
        if len(rest) != wanted:
            raise UnsupportedParameter(
                f"{head!r} takes {wanted} numeric parameter(s) after it, got {len(rest)}")
        try:
            return row, tuple(int(k) for k in (*named, *rest))
        except ValueError:
            raise UnsupportedParameter(
                f"{head!r} takes integer parameters, got {rest}") from None
    return None


def build_named_group(name: str) -> FiniteGroup:
    """The group a spelling names (a5, z12, c12, l2_7, pgl2(7), cyclic 12,
    ...), built by its row's builder, shipped in the catalog or not."""
    parsed = _parse(name)
    if parsed is None:
        raise UnsupportedParameter(f"unknown group name {name!r}")
    row, params = parsed
    return row.build(*params)
