import functools
import hashlib
import json

import pytest

from cubeaut import builders
from cubeaut.catalog import (
    Catalog,
    _parse,
    build_named_group,
    built_in_catalog,
    heisenberg27,
    special_linear_2_3,
)


def _fold(*factors):
    return functools.reduce(builders.direct_product, factors)


# Every spelling the CLI accepts for a group, and the builder it names.
SPELLINGS = [
    ("z12", lambda: builders.cyclic(12)),
    ("c12", lambda: builders.cyclic(12)),
    ("Z12", lambda: builders.cyclic(12)),
    ("d5", lambda: builders.dihedral(5)),
    ("s4", lambda: builders.symmetric(4)),
    ("a5", lambda: builders.alternating(5)),
    ("q8", builders.quaternion8),
    ("sl23", special_linear_2_3),
    ("heis27", heisenberg27),
    ("z2xz2", lambda: builders.direct_product(builders.cyclic(2), builders.cyclic(2))),
    ("l2_7", lambda: builders.psl2(7)),
    ("l2(7)", lambda: builders.psl2(7)),
    ("l27", lambda: builders.psl2(7)),
    ("L2(7)", lambda: builders.psl2(7)),
    ("pgl2_7", lambda: builders.pgl2(7)),
    ("pgl2(7)", lambda: builders.pgl2(7)),
    ("t3i_2", lambda: builders.type3_group_i(2)),
    ("t3i(2)", lambda: builders.type3_group_i(2)),
    # family members outside the shipped ranges
    ("z100", lambda: builders.cyclic(100)),
    ("d40", lambda: builders.dihedral(40)),
    ("a1", lambda: builders.alternating(1)),
    ("t3i(3)", lambda: builders.type3_group_i(3)),
    # `group build` words, with their parameter as the next token
    ("cyclic 12", lambda: builders.cyclic(12)),
    ("dihedral 5", lambda: builders.dihedral(5)),
    ("quaternion8", builders.quaternion8),
    ("symmetric 4", lambda: builders.symmetric(4)),
    ("alternating 5", lambda: builders.alternating(5)),
    ("psl2 7", lambda: builders.psl2(7)),
    ("pgl2 7", lambda: builders.pgl2(7)),
    ("type3i 2", lambda: builders.type3_group_i(2)),
    ("type3ii", builders.type3_group_ii),
    # any names joined by x: their direct product, folded from the left
    ("c2xc2", lambda: _fold(builders.cyclic(2), builders.cyclic(2))),
    ("d4xs3", lambda: _fold(builders.dihedral(4), builders.symmetric(3))),
    ("S3xZ2", lambda: _fold(builders.symmetric(3), builders.cyclic(2))),
    ("l2(7)xz2", lambda: _fold(builders.psl2(7), builders.cyclic(2))),
    ("Z2xQ8xZ2", lambda: _fold(builders.cyclic(2), builders.quaternion8(), builders.cyclic(2))),
]


@pytest.mark.parametrize("spelling,builder", SPELLINGS, ids=[s for s, _ in SPELLINGS])
def test_spelling_builds_the_named_group(spelling, builder):
    group, expected = build_named_group(spelling), builder()
    assert group.table == expected.table
    assert group.name == expected.name


def test_every_catalog_name_parses_to_its_row():
    """``build_named_group`` reaches every shipped entry through ``_parse``:
    the rows of its factors name them, and the names joined by x give the
    entry's name."""
    for entry in built_in_catalog().entries:
        factors = _parse(entry.name)
        assert "x".join(row.name.format(*params) for row, params in factors) == entry.name


def test_named_group_makes_no_catalog(monkeypatch):
    """A spelling goes straight to its row's builder, shipped or not: no
    Catalog of every entry is made per call."""
    def refuse(self, entries=()):
        raise AssertionError("a Catalog was made")

    monkeypatch.setattr(Catalog, "__init__", refuse)
    for spelling, builder in SPELLINGS:
        assert build_named_group(spelling).table == builder().table, spelling


def test_s7_goes_to_its_builder(monkeypatch):
    # S7 (order 5040) takes many seconds to build twice; its route is checked
    calls = []
    monkeypatch.setattr(builders, "symmetric", lambda n: calls.append(n) or "S7 table")
    assert build_named_group("s7") == "S7 table"
    assert calls == [7]


def test_catalog_name_sequence_pinned():
    products = ["Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ6", "Z2xS3", "Z4xZ4",
                "Z2xD4", "Z2xQ8", "Z3xS3", "Z2xA4", "Z4xZ6", "Z3xD4", "Z3xQ8", "Z5xZ5",
                "Z2xQ8xZ2", "D4xZ4", "S3xS3", "Z6xZ6", "Z3xA4", "Z5xD4", "Z7xQ8",
                "Z2xZ2xZ16"]
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 13)
    expected = ([f"Z{n}" for n in range(1, 65)] + [f"D{n}" for n in range(3, 33)]
                + ["Q8", "T3i(1)", "T3i(2)", "T3ii"] + [f"S{n}" for n in range(2, 7)]
                + [f"A{n}" for n in range(3, 7)] + ["SL23", "Heis27", "F20", "F21", "GD9"]
                + [f"L2({q})" for q in qs] + [f"PGL2({q})" for q in qs] + products)
    entries = built_in_catalog().entries
    assert [e.name for e in entries] == expected


def test_declared_orders_match_built_orders():
    # the declared order drives --order-cap filtering without a build
    large = {"S6": 720, "A6": 360, "L2(7)": 168, "L2(8)": 504, "L2(9)": 360,
             "L2(11)": 660, "L2(13)": 1092, "PGL2(7)": 336, "PGL2(8)": 504,
             "PGL2(9)": 720, "PGL2(11)": 1320, "PGL2(13)": 2184}
    cat = built_in_catalog()
    for entry in cat.entries:
        if entry.order <= 120:
            assert cat.build(entry.name).order == entry.order, entry.name
        else:
            assert large.pop(entry.name) == entry.order
    assert not large



def _sha256_key(group) -> str:
    """The key the catalog once deduplicated by: the sha256 of the
    table's compact JSON text."""
    text = json.dumps([list(row) for row in group.table], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_dedupe_by_rows_equals_sha256_dedupe():
    cat = built_in_catalog()
    in_scope = [e.name for e in cat.entries if e.order <= 504]
    seen, expected = set(), []
    for name in in_scope:
        key = _sha256_key(cat.build(name))
        if key not in seen:
            seen.add(key)
            expected.append(name)
    names = cat.names(order_cap=504)
    assert names == expected
    assert [n for n in in_scope if n not in names] == ["S2", "A3", "L2(3)", "PGL2(2)"]


def test_catalog_groups_compute_no_table_hash():
    groups = [group for _, group in built_in_catalog().groups(order_cap=64)]
    assert groups and not [g.name for g in groups if "table_hash" in g.__dict__]
