"""The shipped group catalog: built-in constructors plus ingested files.

Entries are lazy (groups are built on first use) so iterating with an
order cap never constructs the large projective tables. Duplicate
Cayley tables (same canonical hash) are dropped during iteration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import builders
from .errors import UnsupportedParameter
from .groups import FiniteGroup, load_group_file


@dataclass
class CatalogEntry:
    name: str
    order: int
    build: Callable[[], FiniteGroup]
    source: tuple  # ("builtin", name) or ("file", path), for worker rebuilds


class Catalog:
    """Ordered, lazily built, hash-deduplicated list of named groups."""

    def __init__(self, entries=()):
        self.entries: list = list(entries)
        self._built: dict = {}
        self._by_name: dict = {e.name.lower(): e for e in self.entries}

    def add_entry(self, entry: CatalogEntry) -> None:
        self.entries.append(entry)
        self._by_name[entry.name.lower()] = entry

    def add_file(self, path) -> FiniteGroup:
        group = load_group_file(path)
        entry = CatalogEntry(group.name, group.order, lambda g=group: g,
                             ("file", str(path)))
        self.add_entry(entry)
        return group

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
        """Yield (name, group) in catalog order, deduplicated by table
        hash, skipping entries outside [min_order, order_cap]."""
        seen = set()
        for entry in self.entries:
            if order_cap is not None and entry.order > order_cap:
                continue
            if entry.order < min_order:
                continue
            group = self.build(entry.name)
            if group.table_hash in seen:
                continue
            seen.add(group.table_hash)
            yield entry.name, group

    def names(self, order_cap: Optional[int] = None, min_order: int = 1) -> list:
        return [name for name, _ in self.groups(order_cap, min_order)]


# ---------------------------------------------------------------------------
# Built-in constructions beyond the plain builders


def _order3_automorphism(group: FiniteGroup) -> list:
    """First automorphism of composition order 3, as an image list."""
    from .automorphisms import enumerate_automorphisms
    for member in enumerate_automorphisms(group).members:
        images = member.images
        twice = tuple(images[images[x]] for x in range(group.order))
        thrice = tuple(images[t] for t in twice)
        if thrice == tuple(range(group.order)) and images != thrice:
            return list(images)
    raise UnsupportedParameter("group has no automorphism of order 3")


def special_linear_2_3() -> FiniteGroup:
    """SL(2,3) as the quaternion group extended by a 3-cycle of i,j,k."""
    q8 = builders.quaternion8()
    sigma = _order3_automorphism(q8)
    sigma2 = [sigma[sigma[x]] for x in range(8)]
    ident = list(range(8))
    g = builders.semidirect_product(q8, builders.cyclic(3), [ident, sigma, sigma2])
    g.name = "SL23"
    return g


def heisenberg27() -> FiniteGroup:
    """The exponent-3 group of order 27: (C3 x C3) extended by a shear."""
    base = builders.direct_product(builders.cyclic(3), builders.cyclic(3))
    shear = [((a + b) % 3) * 3 + b for a in range(3) for b in range(3)]
    shear2 = [shear[shear[x]] for x in range(9)]
    g = builders.semidirect_product(base, builders.cyclic(3),
                                    [list(range(9)), shear, shear2])
    g.name = "Heis27"
    return g


def frobenius20() -> FiniteGroup:
    """C5 : C4 with the generator acting as multiplication by 2."""
    mult2 = [(2 * a) % 5 for a in range(5)]
    mult4 = [mult2[mult2[a]] for a in range(5)]
    mult3 = [mult2[mult4[a]] for a in range(5)]
    g = builders.semidirect_product(builders.cyclic(5), builders.cyclic(4),
                                    [list(range(5)), mult2, mult4, mult3])
    g.name = "F20"
    return g


def frobenius21() -> FiniteGroup:
    """C7 : C3 with the generator acting as multiplication by 2."""
    mult2 = [(2 * a) % 7 for a in range(7)]
    mult4 = [mult2[mult2[a]] for a in range(7)]
    g = builders.semidirect_product(builders.cyclic(7), builders.cyclic(3),
                                    [list(range(7)), mult2, mult4])
    g.name = "F21"
    return g


def generalized_dihedral_9() -> FiniteGroup:
    """(C3 x C3) : C2 with the involution inverting everything."""
    base = builders.direct_product(builders.cyclic(3), builders.cyclic(3))
    inversion = [base.inv(x) for x in range(9)]
    g = builders.semidirect_product(base, builders.cyclic(2),
                                    [list(range(9)), inversion])
    g.name = "GD9"
    return g


_PRODUCTS = (
    # (name, order, left builder, right builder)
    ("Z2xZ2", 4, lambda: builders.cyclic(2), lambda: builders.cyclic(2)),
    ("Z2xZ4", 8, lambda: builders.cyclic(2), lambda: builders.cyclic(4)),
    ("Z2xZ2xZ2", 8, lambda: builders.direct_product(builders.cyclic(2), builders.cyclic(2)),
     lambda: builders.cyclic(2)),
    ("Z3xZ3", 9, lambda: builders.cyclic(3), lambda: builders.cyclic(3)),
    ("Z2xZ6", 12, lambda: builders.cyclic(2), lambda: builders.cyclic(6)),
    ("Z2xS3", 12, lambda: builders.cyclic(2), lambda: builders.symmetric(3)),
    ("Z4xZ4", 16, lambda: builders.cyclic(4), lambda: builders.cyclic(4)),
    ("Z2xD4", 16, lambda: builders.cyclic(2), lambda: builders.dihedral(4)),
    ("Z2xQ8", 16, lambda: builders.cyclic(2), lambda: builders.quaternion8()),
    ("Z3xS3", 18, lambda: builders.cyclic(3), lambda: builders.symmetric(3)),
    ("Z2xA4", 24, lambda: builders.cyclic(2), lambda: builders.alternating(4)),
    ("Z4xZ6", 24, lambda: builders.cyclic(4), lambda: builders.cyclic(6)),
    ("Z3xD4", 24, lambda: builders.cyclic(3), lambda: builders.dihedral(4)),
    ("Z3xQ8", 24, lambda: builders.cyclic(3), lambda: builders.quaternion8()),
    ("Z5xZ5", 25, lambda: builders.cyclic(5), lambda: builders.cyclic(5)),
    ("Z2xQ8xZ2", 32, lambda: builders.direct_product(builders.cyclic(2), builders.quaternion8()),
     lambda: builders.cyclic(2)),
    ("D4xZ4", 32, lambda: builders.dihedral(4), lambda: builders.cyclic(4)),
    ("S3xS3", 36, lambda: builders.symmetric(3), lambda: builders.symmetric(3)),
    ("Z6xZ6", 36, lambda: builders.cyclic(6), lambda: builders.cyclic(6)),
    ("Z3xA4", 36, lambda: builders.cyclic(3), lambda: builders.alternating(4)),
    ("Z5xD4", 40, lambda: builders.cyclic(5), lambda: builders.dihedral(4)),
    ("Z7xQ8", 56, lambda: builders.cyclic(7), lambda: builders.quaternion8()),
    ("Z2xZ2xZ16", 64, lambda: builders.direct_product(builders.cyclic(2), builders.cyclic(2)),
     lambda: builders.cyclic(16)),
)


def built_in_catalog() -> Catalog:
    """The shipped catalog: every group the analyses name, plus a
    spread of positives and negatives for the classification scans."""
    catalog = Catalog()

    def builtin(name, order, build):
        catalog.add_entry(CatalogEntry(name, order, build, ("builtin", name)))

    for n in range(1, 65):
        builtin(f"Z{n}", n, lambda n=n: builders.cyclic(n))
    for n in range(3, 33):
        builtin(f"D{n}", 2 * n, lambda n=n: builders.dihedral(n))
    builtin("Q8", 8, builders.quaternion8)
    builtin("T3i(1)", 8, lambda: builders.type3_group_i(1))
    builtin("T3i(2)", 32, lambda: builders.type3_group_i(2))
    builtin("T3ii", 64, builders.type3_group_ii)
    for n in range(2, 7):
        builtin(f"S{n}", _factorial(n), lambda n=n: builders.symmetric(n))
    for n in range(3, 7):
        builtin(f"A{n}", _factorial(n) // 2, lambda n=n: builders.alternating(n))
    builtin("SL23", 24, special_linear_2_3)
    builtin("Heis27", 27, heisenberg27)
    builtin("F20", 20, frobenius20)
    builtin("F21", 21, frobenius21)
    builtin("GD9", 18, generalized_dihedral_9)
    for q in builders.SUPPORTED_Q:
        order = q * (q * q - 1) // (2 if q % 2 else 1)
        builtin(f"L2({q})", order, lambda q=q: builders.psl2(q))
    for q in builders.SUPPORTED_Q:
        builtin(f"PGL2({q})", q * (q * q - 1), lambda q=q: builders.pgl2(q))
    for name, order, left, right in _PRODUCTS:
        builtin(name, order,
                lambda left=left, right=right: builders.direct_product(left(), right()))
    return catalog


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# ---------------------------------------------------------------------------
# Name resolution for the CLI


_PATTERNS = (
    (re.compile(r"^[zc](\d+)$"), lambda m: f"Z{int(m.group(1))}"),
    (re.compile(r"^d(\d+)$"), lambda m: f"D{int(m.group(1))}"),
    (re.compile(r"^s(\d+)$"), lambda m: f"S{int(m.group(1))}"),
    (re.compile(r"^a(\d+)$"), lambda m: f"A{int(m.group(1))}"),
    (re.compile(r"^l2[_(]?(\d+)\)?$"), lambda m: f"L2({int(m.group(1))})"),
    (re.compile(r"^pgl2[_(]?(\d+)\)?$"), lambda m: f"PGL2({int(m.group(1))})"),
    (re.compile(r"^t3i[_(]?(\d+)\)?$"), lambda m: f"T3i({int(m.group(1))})"),
)


def resolve_name(name: str) -> str:
    """Map CLI spellings (a5, z12, c12, l2_7, pgl2(7), ...) onto
    catalog names."""
    text = name.strip().lower()
    for pattern, canon in _PATTERNS:
        match = pattern.match(text)
        if match:
            return canon(match)
    return name.strip()


def build_named_group(name: str, catalog: Optional[Catalog] = None) -> FiniteGroup:
    cat = catalog if catalog is not None else built_in_catalog()
    canonical = resolve_name(name)
    if canonical in cat:
        return cat.build(canonical)
    # parametric names beyond the shipped ranges (e.g. Z100, D40, S7)
    for pattern, builder in (
            (re.compile(r"^Z(\d+)$"), lambda n: builders.cyclic(n)),
            (re.compile(r"^D(\d+)$"), lambda n: builders.dihedral(n)),
            (re.compile(r"^S(\d+)$"), lambda n: builders.symmetric(n)),
            (re.compile(r"^A(\d+)$"), lambda n: builders.alternating(n)),
            (re.compile(r"^L2\((\d+)\)$"), lambda q: builders.psl2(q)),
            (re.compile(r"^PGL2\((\d+)\)$"), lambda q: builders.pgl2(q)),
            (re.compile(r"^T3i\((\d+)\)$"), lambda k: builders.type3_group_i(k)),
    ):
        match = pattern.match(canonical)
        if match:
            return builder(int(match.group(1)))
    raise UnsupportedParameter(f"unknown group name {name!r}")
