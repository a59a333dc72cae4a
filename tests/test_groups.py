import hashlib
import json
import random
import re
import tracemalloc
from itertools import permutations, product
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from cubeaut import builders
from cubeaut.automorphisms import (
    GroupMap,
    _indices,
    check_automorphism,
    identity_map,
    induced_on_quotient,
    inner_automorphism,
    restrict,
)
from cubeaut.cubing import Type3Decomposition, build_type_II, build_type_III, coset_trace
from cubeaut.errors import (
    CapExceeded,
    FileFormatError,
    GroupTableError,
    NoIdentity,
    NoInverse,
    NotASubgroup,
    NotAssociative,
    NotAutomorphism,
    NotClosed,
    NotLatin,
    NotNormal,
    UnsupportedParameter,
)
from cubeaut.groups import (
    MAX_ORDER,
    FiniteGroup,
    _check_rows,
    _find_identity,
    _is_permutation,
    _light_associativity,
    _validate_table,
    from_cayley_table,
    from_permutation_generators,
    group_to_json,
    load_group_file,
    load_group_json,
    max_abelian_subgroup_order,
    prime_divisors,
)
from cubeaut.verifier import check_quotient_inequality


# ---------------------------------------------------------------------------
# Construction and validation


def test_trivial_group():
    g = from_cayley_table([[0]])
    assert g.order == 1
    assert g.is_abelian


def test_order_two():
    g = from_cayley_table([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.inv(1) == 1


def test_non_latin_row_rejected():
    with pytest.raises((NoInverse, GroupTableError)):
        from_cayley_table([[0, 1], [1, 1]])


def test_out_of_range_entry_rejected():
    with pytest.raises(GroupTableError):
        from_cayley_table([[0, 1], [1, 2]])


def test_boolean_entries_rejected():
    with pytest.raises(GroupTableError):
        FiniteGroup([[False, True], [True, False]])
    with pytest.raises(GroupTableError):
        from_cayley_table([[0, 1], [True, 0]])
    with pytest.raises(FileFormatError) as info:
        load_group_json({"table": [[False, True], [True, False]]})
    assert "table[0][0]" in str(info.value)


def test_not_closed_message_is_bounded():
    """A huge bad entry is named by a cut repr; the witness keeps it whole."""
    bad = list(range(100_000))
    with pytest.raises(NotClosed) as info:
        FiniteGroup([[0, 1], [1, bad]])
    assert info.value.value is bad
    assert str(info.value).startswith("table entry at (1, 1) is [0, 1, 2, 3, 4, ...]")
    assert len(str(info.value)) < 1000


# Each bad value stands where Z2's tables and maps hold a 1; int() would
# read 1.7, "1" and True as 1, and 5 is out of range.
@pytest.mark.parametrize("bad", [1.7, "1", True, 5], ids=repr)
def test_bad_entries_are_refused(bad):
    z2 = builders.cyclic(2)
    for build in (FiniteGroup, from_cayley_table):
        with pytest.raises(NotClosed) as info:
            build([[0, 1], [bad, 0]])
        assert (info.value.row, info.value.col) == (1, 0)
        assert info.value.value is bad
    with pytest.raises(UnsupportedParameter):
        from_permutation_generators([[bad, 0]], 2, cap=10)
    with pytest.raises(UnsupportedParameter):
        builders.semidirect_product(z2, z2, [[0, 1], [0, bad]])
    with pytest.raises(NotAutomorphism):
        check_automorphism(GroupMap(z2, z2, (0, bad)))
    with pytest.raises(FileFormatError) as info:
        load_group_json({"degree": 2, "generators": [[bad, 0]]})
    assert "generators[0]" in str(info.value)


def test_no_identity_rejected():
    # Latin square with no two-sided identity element
    with pytest.raises(NoIdentity):
        from_cayley_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_identity_elsewhere_is_relabeled():
    g = from_cayley_table([[1, 0], [0, 1]])  # Z2 with identity at index 1
    assert g.relabeling == (1, 0)
    assert g.table == ((0, 1), (1, 0))


def test_identity_relabeled_to_zero():
    # Z3 written with the identity at index 1
    z3 = builders.cyclic(3)
    sigma = [1, 0, 2]
    scrambled = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            scrambled[sigma[a]][sigma[b]] = sigma[z3.table[a][b]]
    g = from_cayley_table(scrambled)
    assert g.relabeling is not None
    assert g.table == z3.table


def test_associativity_witness():
    # break one entry of Z5 far enough to dodge the Latin checks
    table = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    table[2] = [3, 4, 1, 2, 0]  # still a permutation, identity column intact?
    table[2][0] = 2  # keep column 0 and row 0 identity-consistent
    try:
        from_cayley_table(table)
    except GroupTableError:
        pass
    else:
        pytest.fail("corrupted table accepted")


def test_light_test_matches_brute_on_corruption():
    # a 48-element table with rows still permutations but broken
    # associativity must be rejected by Light's test; that it rejects
    # exactly what the cubic loop rejects is test_validator_equals_cubic_reference
    base = builders.dihedral(24)
    rows = [list(r) for r in base.table]
    # swap two entries inside one row, keeping it a permutation
    r = rows[5]
    r[7], r[11] = r[11], r[7]
    with pytest.raises(GroupTableError):
        FiniteGroup(rows)


def _cubic_reference_accepts(rows) -> bool:
    """Reference validator, checking every group law directly: shape,
    identity, Latin rows and columns, associativity over all n^3 triples,
    and two-sided inverses."""
    n = len(rows)
    if n == 0 or any(len(r) != n or not all(0 <= v < n for v in r) for r in rows):
        return False
    if any(rows[0][b] != b for b in range(n)) or any(rows[a][0] != a for a in range(n)):
        return False
    full = set(range(n))
    if any(set(r) != full for r in rows):
        return False
    if any({rows[i][j] for i in range(n)} != full for j in range(n)):
        return False
    rows = [tuple(r) for r in rows]
    # (a*b)*c == a*(b*c) for every c at once: row a*b against row b read
    # through row a. An itemgetter of one index returns a bare entry, so
    # n = 1 is skipped; [[0]] passed the identity check and is associative.
    through = [itemgetter(*rb) for rb in rows] if n > 1 else []
    for ra in rows:
        for b, read in enumerate(through):
            if rows[ra[b]] != read(ra):
                return False
    return all(rows[rows[a].index(0)][a] == 0 for a in range(n))


def _perturbations(rows, rng):
    """Seeded variants of a group table: relabelings and the transpose
    (still groups), intercalate swaps (still Latin squares), swaps inside
    a row or a column, a changed entry and a swap of two rows."""
    n = len(rows)
    out = []
    perm = [0] + rng.sample(range(1, n), n - 1)
    relabeled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabeled[perm[a]][perm[b]] = perm[rows[a][b]]
    out.append(relabeled)
    out.append([[rows[b][a] for b in range(n)] for a in range(n)])
    if n < 3:
        return out
    for _ in range(12):
        a, d = rng.sample(range(1, n), 2)
        b, c = rng.sample(range(1, n), 2)
        if rows[a][b] == rows[d][c] and rows[a][c] == rows[d][b]:
            t = [list(r) for r in rows]
            t[a][b], t[a][c], t[d][b], t[d][c] = t[a][c], t[a][b], t[d][c], t[d][b]
            out.append(t)
    for _ in range(3):
        r, (b, c) = rng.randrange(1, n), rng.sample(range(1, n), 2)
        t = [list(row) for row in rows]
        t[r][b], t[r][c] = t[r][c], t[r][b]
        out.append(t)
        t = [list(row) for row in rows]
        t[b][r], t[c][r] = t[c][r], t[b][r]
        out.append(t)
    t = [list(row) for row in rows]
    t[rng.randrange(1, n)][rng.randrange(1, n)] = rng.randrange(n)
    out.append(t)
    a, b = rng.sample(range(1, n), 2)
    t = [list(row) for row in rows]
    t[a], t[b] = t[b], t[a]
    out.append(t)
    return out


def _validator_tables() -> list:
    """The empty table, every n x n table with n <= 3 and entries
    0..n-1, the 4x4 tables with an identity border and permutation rows,
    and the catalog groups of order <= 64 and D30 with their seeded
    perturbations."""
    from cubeaut.catalog import built_in_catalog

    tables = [[]]
    for n in (1, 2, 3):
        for flat in product(range(n), repeat=n * n):
            tables.append([list(flat[i * n:(i + 1) * n]) for i in range(n)])
    # identity border, every row a permutation; columns are often not
    others = [[p for p in permutations(range(4)) if p[0] == a]
              for a in (1, 2, 3)]
    for r1, r2, r3 in product(*others):
        tables.append([[0, 1, 2, 3], list(r1), list(r2), list(r3)])
    rng = random.Random(20260808)
    bases = [g.table for _, g in built_in_catalog().groups(order_cap=64)]
    bases.append(builders.dihedral(30).table)
    for rows in bases:
        tables.append([list(r) for r in rows])
        tables.extend(_perturbations(rows, rng))
    return tables


def test_validator_equals_cubic_reference():
    tables = _validator_tables()
    accepted = 0
    for rows in tables:
        try:
            group = FiniteGroup(rows)
        except GroupTableError:
            assert not _cubic_reference_accepts(rows), rows
        else:
            assert _cubic_reference_accepts(rows), rows
            assert group.table == tuple(tuple(r) for r in rows)
            accepted += 1
    assert len(tables) > 20000 and 0 < accepted < len(tables)


def _per_entry_light_witness(rows):
    """Reference Light's test, entry by entry: the first (a, s, c) in
    generator, row, column order with (a*s)*c != a*(s*c), or None."""
    n = len(rows)
    gens = []
    seen = {0}
    for x in range(1, n):
        if x in seen:
            continue
        gens.append(x)
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
                for d in (rows[a][g], rows[g][a]):
                    if d not in seen:
                        seen.add(d)
                        queue.append(d)
    for s in gens:
        for a in range(n):
            for c in range(n):
                if rows[rows[a][s]][c] != rows[a][rows[s][c]]:
                    return (a, s, c)
    return None


def test_associativity_witness_equals_per_entry_reference():
    failed = 0
    for rows in _validator_tables():
        try:
            FiniteGroup(rows)
        except NotAssociative as exc:
            assert exc.witness == _per_entry_light_witness(rows), rows
            failed += 1
        except GroupTableError:
            pass
    assert failed > 500


def _per_row_validate(table) -> tuple:
    """Reference validator without the breadth-first walk: every row a
    permutation, then the identity, then Light's test."""
    rows = _check_rows(table)
    ident = tuple(range(len(rows)))
    if rows[0] != ident or tuple(map(itemgetter(0), rows)) != ident:
        raise NoIdentity("element 0 is not a two-sided identity")
    _light_associativity(rows)
    return rows


def _per_row_from_cayley_table(table) -> tuple:
    """Reference ``from_cayley_table``: the rows are checked before the
    identity is found and moved to 0. Returns (rows, relabeling)."""
    rows = _check_rows(table)
    n = len(rows)
    ident = _find_identity(rows)
    if ident is None:
        raise NoIdentity("no two-sided identity element")
    if ident == 0:
        return _per_row_validate(rows), None
    sigma = list(range(n))
    sigma[0], sigma[ident] = ident, 0
    relabeled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabeled[sigma[a]][sigma[b]] = sigma[rows[a][b]]
    return _per_row_validate(relabeled), tuple(sigma)


def _per_entry_load(table) -> tuple:
    """Reference Cayley-form load: every row and entry checked in turn
    for its ``FileFormatError``, then ``_per_row_from_cayley_table``."""
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != len(table):
            raise FileFormatError(f"table[{i}]", "row length differs from table size")
        for j, v in enumerate(row):
            if type(v) is not int or not (0 <= v < len(table)):
                raise FileFormatError(f"table[{i}][{j}]", f"entry {v!r} not an index in 0..{len(table) - 1}")
    return _per_row_from_cayley_table(table)


def _as_rows(group):
    return group.table, group.relabeling


# (validator, reference); each returns the rows, with the relabeling
# for the loaders
_VALIDATORS = {
    "validate_table": (_validate_table, _per_row_validate),
    "from_cayley_table": (lambda t: _as_rows(from_cayley_table(t)), _per_row_from_cayley_table),
    "load_group_json": (lambda t: _as_rows(load_group_json({"table": t})), _per_entry_load),
}


def _outcome(validate, table):
    """The validator's result, or the class and args of its refusal."""
    try:
        return validate([list(row) for row in table])
    except Exception as exc:  # the class is part of the comparison
        return type(exc), exc.args


# The least non-associative loop: a Latin square with identity 0 in
# which 1*1 = 0, impossible in a group of order 5.
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def _single_entry_mutations(rows) -> list:
    """Every table that differs from ``rows`` in one entry, set to True,
    2.0, "x", an out-of-range n or -1, or a copy of the next entry of
    its row (a duplicate, so the row is no longer a permutation)."""
    n = len(rows)
    out = []
    for i, j in product(range(n), repeat=2):
        for bad in (True, 2.0, "x", n, -1, rows[i][(j + 1) % n]):
            t = [list(r) for r in rows]
            t[i][j] = bad
            out.append(t)
    return out


def _equivalence_tables() -> list:
    """The catalog tables of order <= 360, S4 and S4 with its identity
    moved to 5 with every single-entry mutation of both, and LOOP5."""
    from cubeaut.catalog import built_in_catalog

    tables = [g.table for _, g in built_in_catalog().groups(order_cap=360)]
    s4 = builders.symmetric(4).table
    sigma = list(range(24))
    sigma[0], sigma[5] = 5, 0
    moved = [[0] * 24 for _ in range(24)]
    for a, b in product(range(24), repeat=2):
        moved[sigma[a]][sigma[b]] = sigma[s4[a][b]]
    for rows in (s4, moved):
        tables.append(rows)
        tables.extend(_single_entry_mutations(rows))
    tables.append(LOOP5)
    return tables


@pytest.mark.parametrize("kind", sorted(_VALIDATORS))
def test_walk_validator_equals_per_row_reference(kind):
    validate, reference = _VALIDATORS[kind]
    refused = set()
    for table in _equivalence_tables():
        got, want = _outcome(validate, table), _outcome(reference, table)
        assert got == want, table
        if isinstance(want[0], type):
            refused.add(want[0])
    assert NotAssociative in refused and NoInverse in refused
    assert (NotClosed in refused) != (kind == "load_group_json")


def test_accepted_tables_skip_the_per_row_checks(monkeypatch):
    from cubeaut import groups as groups_module
    from cubeaut.catalog import built_in_catalog

    tables = [g.table for _, g in built_in_catalog().groups(order_cap=360)]

    def refuse(rows):
        raise AssertionError("per-row check ran on a group table")

    monkeypatch.setattr(groups_module, "_check_rows", refuse)
    monkeypatch.setattr(groups_module, "_light_associativity", refuse)
    for rows in tables:
        assert FiniteGroup(rows).table == rows
        assert from_cayley_table(rows).table == rows
        assert load_group_json({"table": [list(r) for r in rows]}).table == rows


def _pairwise_commuting_masks(group):
    """Reference: per a, the mask of every b with a*b == b*a."""
    t = group.table
    masks = []
    for a in group.elements():
        m = 0
        for b in group.elements():
            if t[a][b] == t[b][a]:
                m |= 1 << b
        masks.append(m)
    return tuple(masks)


def _reference_groups():
    from cubeaut.catalog import built_in_catalog

    named = [(name, group) for name, group in built_in_catalog().groups(order_cap=64)]
    named += [("A5", builders.alternating(5)), ("S5", builders.symmetric(5)),
              ("L2(7)", builders.psl2(7)), ("PGL2(7)", builders.pgl2(7)),
              ("A6", builders.alternating(6))]
    return named


def test_commuting_masks_equal_pairwise_reference():
    for name, group in _reference_groups():
        assert group.commuting_masks == _pairwise_commuting_masks(group), name


def test_center_and_is_abelian_equal_the_all_pairs_definition():
    """On the reference groups: Z(G) is the elements whose row equals
    their column, and G is abelian iff its table equals its transpose.
    Both queries test the generating set only, so neither builds the
    commuting masks. (``test_automorphisms.py`` checks the same on the
    whole catalog, beside the Z(G) transversal.)"""
    for name, group in _reference_groups():
        columns = list(zip(*group.table))
        assert group.center.elements == tuple(
            z for z, row in enumerate(group.table) if row == columns[z]), name
        assert group.is_abelian == (columns == list(group.table)), name
        assert "commuting_masks" not in vars(group), name


def test_table_hash_is_sha256_of_generator_columns():
    for name, group in _reference_groups():
        gens = list(group.generating_set)
        columns = [[row[s] for row in group.table] for s in gens]
        payload = json.dumps([group.order, gens, columns], separators=(",", ":"))
        assert group.table_hash == hashlib.sha256(payload.encode()).hexdigest(), name
    # cache files are keyed by these digests; a change here orphans them
    assert (builders.cyclic(1).table_hash
            == "b0dbe7c922cc6b1c0fcbf4dcc21775b8ccbed8c73707aa15bf5682325e014b14")
    assert (builders.cyclic(2).table_hash
            == "4cd5e4f28b9f860c310cf49e1f8d7b7f6f014c70b837b8f3014489257f8bf469")
    assert (FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]]).table_hash
            == "cd2555fed55ad7a62db9a0bd8708b8e47460d262196d5e01550fb9e6742aea77")
    assert (builders.alternating(5).table_hash
            == "80f04c88833eb5087695386b62a12c22bd4d04570c2b1a77fb8d96bf8a3b2fb6")


def test_table_hash_tells_tables_apart():
    from cubeaut.catalog import built_in_catalog

    keys = {name: group.table_hash for name, group in built_in_catalog().groups()}
    assert len(keys) == 149
    assert len(set(keys.values())) == len(keys)
    # a second build of each group gives the same key
    for name, group in built_in_catalog().groups(order_cap=120):
        assert group.table_hash == keys[name], name
    # a relabelled table has another key unless it is the same table
    rng = random.Random(20260808)
    for group in (builders.symmetric(3), builders.quaternion8(), builders.dihedral(4),
                  builders.alternating(5)):
        n, distinct = group.order, 0
        for _ in range(20):
            sigma = [0] + rng.sample(range(1, n), n - 1)
            table = [[0] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    table[sigma[a]][sigma[b]] = sigma[group.table[a][b]]
            other = FiniteGroup(table)
            if other.table == group.table:
                assert other.table_hash == group.table_hash
            else:
                assert other.table_hash != group.table_hash
                distinct += 1
        assert distinct > 0


def test_table_hash_holds_no_copy_of_the_table_text():
    # the one-shot key peaked at 5.75 MB on S6 (its JSON text several
    # times over); streamed row by row it holds one row's text
    group = builders.symmetric(6)
    tracemalloc.start()
    try:
        group.table_hash
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak


# ---------------------------------------------------------------------------
# Permutation closure


def test_s3_from_generators():
    g = from_permutation_generators([[1, 2, 0], [1, 0, 2]], 3, cap=10)
    assert g.order == 6
    assert not g.is_abelian


def test_cyclic_from_single_cycle():
    g = from_permutation_generators([[1, 2, 3, 0]], 4, cap=10)
    assert g.order == 4
    assert g.is_abelian


def test_empty_generators_give_trivial_group():
    g = from_permutation_generators([], 5, cap=10)
    assert g.order == 1


def test_closure_cap_enforced():
    with pytest.raises(CapExceeded):
        from_permutation_generators([[1, 2, 0], [1, 0, 2]], 3, cap=3)


def test_bad_generator_rejected():
    with pytest.raises(UnsupportedParameter):
        from_permutation_generators([[0, 0, 1]], 3, cap=10)


# a degree is refused, not converted: int(3.7) would build a group on 3
# points, and a degree above MAX_ORDER would allocate before any check
@pytest.mark.parametrize("degree", [3.7, 3.0, True, "3", None, MAX_ORDER + 1], ids=repr)
def test_non_int_or_oversized_degree_is_refused(degree):
    with pytest.raises(UnsupportedParameter) as info:
        from_permutation_generators([], degree, cap=10)
    assert "degree" in str(info.value)


def _reference_permutation_table(generators, degree):
    """Reference closure: BFS over elements, then every generator column
    recomputed by a second pass, then the columns composed per element
    along its BFS word and transposed entry by entry."""
    gens = [tuple(g) for g in generators]
    ident = tuple(range(degree))
    elems, index = [ident], {ident: 0}
    i = 0
    while i < len(elems):
        current = elems[i]
        i += 1
        for g in gens:
            product = tuple(g[current[pt]] for pt in range(degree))
            if product not in index:
                index[product] = len(elems)
                elems.append(product)
    n = len(elems)
    gen_cols = [[index[tuple(g[e[pt]] for pt in range(degree))] for e in elems] for g in gens]
    cols = [None] * n
    cols[0] = list(range(n))
    queue = [0]
    for b in queue:
        for gen_col in gen_cols:
            target = gen_col[b]
            if cols[target] is None:
                cols[target] = [gen_col[v] for v in cols[b]]
                queue.append(target)
    return tuple(tuple(cols[b][a] for b in range(n)) for a in range(n))


@pytest.mark.parametrize("build", [
    lambda: builders.symmetric(4), lambda: builders.alternating(5),
    lambda: builders.psl2(7), lambda: builders.pgl2(7), lambda: builders.alternating(6),
], ids=["S4", "A5", "L2(7)", "PGL2(7)", "A6"])
def test_permutation_closure_equals_reference(build, monkeypatch):
    calls = []

    def recording(generators, degree, cap, name=None):
        calls.append(([list(g) for g in generators], degree))
        return from_permutation_generators(generators, degree, cap, name=name)

    monkeypatch.setattr(builders, "from_permutation_generators", recording)
    group = build()
    (generators, degree), = calls
    assert group.table == _reference_permutation_table(generators, degree)


# ---------------------------------------------------------------------------
# Tables built from generator rows


def _old_from_permutation_generators(generators, degree, cap, name=None):
    """The closure as it was before generator rows: every element after
    the identity is b*g for its ``origin`` (b, g), its row is composed
    whole as row b read through the left column of g, and the finished
    table goes through ``FiniteGroup.__init__``."""
    gens = [tuple(g) for g in generators]
    ident = tuple(range(degree))
    elems, index, origin = [ident], {ident: 0}, []
    for b, current in enumerate(elems):
        for i, g in enumerate(gens):
            image = tuple(map(g.__getitem__, current))
            if image not in index:
                if len(elems) >= cap:
                    raise CapExceeded("permutation closure exceeded cap", len(elems))
                index[image] = len(elems)
                elems.append(image)
                origin.append((b, i))
    lefts = [itemgetter(*[index[tuple(map(x.__getitem__, g))] for x in elems]) for g in gens]
    rows = [tuple(range(len(elems)))]
    for b, i in origin:
        rows.append(lefts[i](rows[b]))
    return FiniteGroup(rows, name=name)


def _full_table(order, mul, name):
    return FiniteGroup([[mul(x, y) for y in range(order)] for x in range(order)], name=name)


def _old_dihedral(n):
    def mul(x, y):
        i, e = x % n, x // n
        j, f = y % n, y // n
        if e == 0:
            return ((i + j) % n) + n * f
        return ((i - j) % n) + n * ((e + f) % 2)
    return _full_table(2 * n, mul, f"D{n}")


def _old_quaternion8():
    def mul(u, v):
        a, b = u % 4, u // 4
        c, d = v % 4, v // 4
        if b == 0:
            return ((a + c) % 4) + 4 * d
        if d == 0:
            return ((a - c) % 4) + 4
        return (a - c + 2) % 4
    return _full_table(8, mul, "Q8")


def _old_semidirect_product(n, h, action):
    """The n^2 table loop alone: the action checks run before it and are
    not what these tables compare."""
    hn = h.order
    def mul(x, y):
        (n1, h1), (n2, h2) = divmod(x, hn), divmod(y, hn)
        return n.table[n1][action[h1][n2]] * hn + h.table[h1][h2]
    return _full_table(n.order * hn, mul, f"{n.name or 'N'}:{h.name or 'H'}")


def _old_type3_group_i(k):
    def mul(x, y):
        v1, w1, z1 = x >> (k + 1), (x >> 1) & ((1 << k) - 1), x & 1
        v2, w2, z2 = y >> (k + 1), (y >> 1) & ((1 << k) - 1), y & 1
        zinc = (w1 & v2).bit_count() & 1
        return ((v1 ^ v2) << (k + 1)) | ((w1 ^ w2) << 1) | (z1 ^ z2 ^ zinc)
    return _full_table(1 << (2 * k + 1), mul, f"T3i({k})")


def _old_type3_group_ii():
    def mul(x, y):
        v1, w1, z1 = x >> 4, (x >> 2) & 3, x & 3
        v2, w2, z2 = y >> 4, (y >> 2) & 3, y & 3
        return ((v1 ^ v2) << 4) | ((w1 ^ w2) << 2) | (z1 ^ z2 ^ (w1 & v2))
    return _full_table(64, mul, "T3ii")


OLD_BUILDERS = {
    "cyclic": lambda n: _full_table(n, lambda a, b: (a + b) % n, f"Z{n}"),
    "dihedral": _old_dihedral,
    "quaternion8": _old_quaternion8,
    "semidirect_product": _old_semidirect_product,
    "type3_group_i": _old_type3_group_i,
    "type3_group_ii": _old_type3_group_ii,
    "from_permutation_generators": _old_from_permutation_generators,
}


def test_generator_rows_give_the_full_table_builders_tables(tmp_path, monkeypatch):
    """Every builder hands over generator rows only, and the walk
    composes the rest: the same table, name and table_hash as the full
    n^2 builders and the whole-row closure give, on all 149 catalog
    groups (S6, L2(11), L2(13) and PGL2(13) among them) and on a
    generator-form file (S6 from a transposition and a 5-cycle)."""
    from cubeaut import groups as groups_module
    from cubeaut.catalog import built_in_catalog

    path = tmp_path / "s6gen.json"
    path.write_text(json.dumps({"degree": 6, "generators": [[1, 0, 2, 3, 4, 5],
                                                            [0, 2, 3, 4, 5, 1]]}))

    def build_all():
        built = list(built_in_catalog().groups()) + [("file", load_group_file(path))]
        return [(name, g.name, g.table, g.table_hash) for name, g in built]

    new = build_all()
    for attr, old in OLD_BUILDERS.items():
        monkeypatch.setattr(builders, attr, old)
    monkeypatch.setattr(groups_module, "from_permutation_generators",
                        _old_from_permutation_generators)
    old = build_all()
    names = [entry[0] for entry in new]
    assert len(names) == 150 and {"S6", "L2(11)", "L2(13)", "PGL2(13)"} <= set(names)
    assert [entry[0] for entry in old] == names
    for got, want in zip(new, old):
        assert got == want, got[0]


def test_trivial_group_from_generator_rows():
    """With one element no row is composed: no rows, the row (0,) of
    element 0, and a closure of identity generators all give Z1."""
    from cubeaut.groups import _from_generator_rows

    for group in (_from_generator_rows(1, {}), _from_generator_rows(1, {0: (0,)}),
                  from_permutation_generators([[0, 1, 2]], 3, cap=10)):
        assert group.table == ((0,),) and group.order == 1 and group.relabeling is None


@pytest.mark.parametrize("order, rows, failure", [
    (3, {1: (1, 1, 0)}, ("row", 1)),
    (3, {1: (1, 2)}, ("row", 1)),
    (3, {1: (1, 2, 3)}, ("row", 1)),
    (3, {1: (1, 2, 1.0)}, ("row", 1)),
    (3, {1: (1, True, 0)}, ("row", 1)),
    (3, {1: (2, 0, 1)}, ("row", 1)),
    (4, {1: (1, 0, 3, 2)}, ("reach", 2)),
    # 1 generates Z3, whose row of 2 is (2, 0, 1), not the (2, 1, 0) given
    (3, {1: (1, 2, 0), 2: (2, 1, 0)}, ("law", 0, 2)),
    # 1*2 = 2, but (1*2)*2 = 0 and 1*(2*2) = 1
    (4, {1: (1, 0, 2, 3), 2: (2, 3, 0, 1)}, ("commute", 1, 2)),
    (3, {0: (0, 2, 1)}, ("reach", 1)),
], ids=["repeat", "short", "range", "float", "bool", "column-0", "reach", "law-after",
        "law-during", "row-0"])
def test_build_walk_refusals(order, rows, failure, monkeypatch, capsys):
    """Each refusal of the build walk is an InternalCheckFailed naming
    the check that failed, since every builder hands over the rows of a
    group; a builder that handed over such rows ends the CLI in
    ``error:`` with exit 2."""
    from cubeaut import cli
    from cubeaut.errors import InternalCheckFailed
    from cubeaut.groups import _from_generator_rows

    with pytest.raises(InternalCheckFailed) as info:
        _from_generator_rows(order, rows)
    assert repr(failure) in str(info.value)
    monkeypatch.setattr(builders, "cyclic", lambda n: _from_generator_rows(order, rows))
    assert cli.main(["group", "info", "z3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {info.value}\n" and captured.out == ""


def _old_light_walk(rows, next_generator):
    """The build walk as it was before regularity: every (a, g) pair
    composes row g read through row a, stored when a*g is met first and
    compared with the stored row after that (Light's law on every pair)."""
    n = len(rows)
    reached = bytearray(n)
    reached[0] = 1
    walk = [0]
    gens = []
    while (picked := next_generator(reached)) is not None:
        s, row_s = picked
        if not (_is_permutation(row_s, n) and row_s[0] == s):
            return ("row", s)
        if len(walk) == n:
            if rows[s] != tuple(row_s):
                return ("law", 0, s)
            continue
        gens.append((s, itemgetter(*row_s)))
        newest, earlier = gens[-1:], len(walk)
        for i, a in enumerate(walk):
            row_a = rows[a]
            for g, through_g in (newest if i < earlier else gens):
                c = row_a[g]
                if rows[c] is None:
                    rows[c] = through_g(row_a)
                elif rows[c] != through_g(row_a):
                    return ("law", a, g)
                if not reached[c]:
                    reached[c] = 1
                    walk.append(c)
    x = reached.find(0)
    return None if x < 0 else ("reach", x)


def _small_generator_row_sets() -> list:
    """For n = 3..6, every pair of permutations of 0..n-1 with g in
    column 0 given as the rows of the generator pairs (1, 2), (2, 1)
    and (1, n-1), and every such row of the single generator 1."""
    sets = []
    for n in range(3, 7):
        with_first = {g: [p for p in permutations(range(n)) if p[0] == g] for g in (1, 2, n - 1)}
        for g, h in ((1, 2), (2, 1), (1, n - 1)):
            sets.extend((n, {g: p, h: q}) for p, q in product(with_first[g], with_first[h]))
        sets.extend((n, {1: p}) for p in with_first[1])
    return sets


def test_build_walk_equals_the_all_pairs_walk(monkeypatch):
    """The walk that composes one row per element and proves regularity
    by generator columns builds the same table, or refuses the same row
    sets, as the walk that checks Light's law on every pair, on all
    45,200 small generator row sets."""
    from cubeaut import groups as groups_module
    from cubeaut.errors import InternalCheckFailed
    from cubeaut.groups import _from_generator_rows

    row_sets = _small_generator_row_sets()
    assert len(row_sets) == 45_200

    def outcome(n, rows):
        try:
            return _from_generator_rows(n, rows).table
        except InternalCheckFailed:
            return "refused"

    new = [outcome(n, rows) for n, rows in row_sets]
    monkeypatch.setattr(groups_module, "_light_walk", _old_light_walk)
    old = [outcome(n, rows) for n, rows in row_sets]
    for (n, rows), got, want in zip(row_sets, new, old):
        assert got == want, (n, rows)
    assert 0 < new.count("refused") < len(new)


# group: (build, order, walked generators k, rows composed by the build)
WALK_COMPOSITIONS = {
    "A6": (lambda: builders.alternating(6), 360, 4, 391),
    "S6": (lambda: builders.symmetric(6), 720, 2, 727),
    "L2(11)": (lambda: builders.psl2(11), 660, 2, 667),
    "L2(13)": (lambda: builders.psl2(13), 1092, 2, 1099),
    "T3i(2)": (lambda: builders.type3_group_i(2), 32, 4, 63),
    "T3ii": (builders.type3_group_ii, 64, 4, 95),
    "PGL2(13)": (lambda: builders.pgl2(13), 2184, 3, 2201),
    "A7": (lambda: builders.alternating(7), 2520, 5, 2569),
}


@pytest.mark.parametrize("name", sorted(WALK_COMPOSITIONS))
def test_build_walk_composes_one_row_per_element(name, monkeypatch):
    """A build composes |G| - 1 tree rows and 2k^2 column checks, at most
    |G| - 1 + 2k^2 rows of |G| entries, not one per (element, generator)
    pair: each call of a getter over more than one index is one row."""
    from cubeaut import groups as groups_module

    build, order, k, composed = WALK_COMPOSITIONS[name]
    calls = []

    def counting_itemgetter(*items):
        getter = itemgetter(*items)
        if len(items) == 1:
            return getter

        def compose(row):
            calls.append(None)
            return getter(row)
        return compose

    monkeypatch.setattr(groups_module, "itemgetter", counting_itemgetter)
    assert build().order == order
    assert len(calls) == composed <= order - 1 + 2 * k * k


# ---------------------------------------------------------------------------
# Builders


@pytest.mark.parametrize("build, order", [
    (lambda: builders.cyclic(1), 1),
    (lambda: builders.cyclic(12), 12),
    (lambda: builders.dihedral(3), 6),
    (lambda: builders.dihedral(17), 34),
    (lambda: builders.quaternion8(), 8),
    (lambda: builders.symmetric(4), 24),
    (lambda: builders.symmetric(6), 720),
    (lambda: builders.alternating(5), 60),
    (lambda: builders.type3_group_i(1), 8),
    (lambda: builders.type3_group_i(2), 32),
    (lambda: builders.type3_group_ii(), 64),
])
def test_builder_orders(build, order):
    assert build().order == order


@pytest.mark.parametrize("q, order", [
    (2, 6), (3, 12), (4, 60), (5, 60), (7, 168), (8, 504), (9, 360),
    (11, 660), (13, 1092),
])
def test_psl2_orders(q, order):
    assert builders.psl2(q).order == order


@pytest.mark.parametrize("q, order", [(3, 24), (5, 120), (7, 336)])
def test_pgl2_orders(q, order):
    assert builders.pgl2(q).order == order


def test_unsupported_parameters():
    with pytest.raises(UnsupportedParameter):
        builders.dihedral(2)
    with pytest.raises(UnsupportedParameter):
        builders.symmetric(9)
    with pytest.raises(UnsupportedParameter):
        builders.psl2(6)
    with pytest.raises(UnsupportedParameter):
        builders.type3_group_i(0)


def test_direct_product_structure():
    g = builders.direct_product(builders.cyclic(3), builders.symmetric(3))
    assert g.order == 18
    assert not g.is_abelian
    assert g.center.order == 3


def test_semidirect_product_validates_action():
    c3 = builders.cyclic(3)
    c2 = builders.cyclic(2)
    inversion = [0, 2, 1]
    g = builders.semidirect_product(c3, c2, [[0, 1, 2], inversion])
    assert g.order == 6
    assert not g.is_abelian  # this is S3
    with pytest.raises(UnsupportedParameter):
        builders.semidirect_product(c3, c2, [[0, 1, 2], [1, 2, 0]])  # not order 2


def _reference_direct_table(g, h):
    """The direct-product table loop builders.direct_product once ran on
    its own: element a*|H| + b encodes the pair (a, b)."""
    hn = h.order
    order = g.order * hn
    table = [[0] * order for _ in range(order)]
    for a1 in range(g.order):
        grow = g.table[a1]
        for b1 in range(hn):
            hrow = h.table[b1]
            row = table[a1 * hn + b1]
            for a2 in range(g.order):
                base = grow[a2] * hn
                off = a2 * hn
                for b2 in range(hn):
                    row[off + b2] = base + hrow[b2]
    return tuple(map(tuple, table))


def test_direct_product_equals_reference_loop():
    """direct_product is the semidirect product with the trivial action:
    same table as the old loop, and the GxH name, on every catalog
    product (folded from the left, as the catalog builds it) and on
    A5 x Z4 and S3 x A5."""
    from functools import reduce

    from cubeaut.catalog import REGISTRY, _parse
    products = [row.name for row in REGISTRY if "x" in row.name]
    assert len(products) == 23
    cases = [[row.build(*k) for row, k in map(_parse, name.split("x"))] for name in products]
    cases += [[builders.alternating(5), builders.cyclic(4)],
              [builders.symmetric(3), builders.alternating(5)]]
    for factors in cases:
        group = reduce(builders.direct_product, factors)
        reference = reduce(lambda g, h: FiniteGroup(_reference_direct_table(g, h),
                                                    name=f"{g.name}x{h.name}"), factors)
        assert group.table == reference.table, reference.name
        assert group.name == reference.name


def test_repeated_action_map_is_checked_once(monkeypatch):
    """semidirect_product runs the automorphism test once per distinct
    action map: the trivial action of Z8 on Z3 repeats one map eight
    times, so direct_product(Z3, Z8) makes one homomorphism_witness call."""
    z3, z8 = builders.cyclic(3), builders.cyclic(8)
    calls = []
    witness = GroupMap.homomorphism_witness
    monkeypatch.setattr(GroupMap, "homomorphism_witness",
                        lambda m: calls.append(m.images) or witness(m))
    assert builders.direct_product(z3, z8).order == 24
    assert calls == [(0, 1, 2)]


def _reference_action_refusal(n, h, action):
    """The message the old all-pairs checks of semidirect_product refuse
    ``action`` with, or None: each action[k] against every pair of N,
    then the law action[k1*k2] = action[k1] after action[k2] on every
    pair of H."""
    maps = [tuple(m) for m in action]
    for k, m in enumerate(maps):
        if sorted(m) != list(range(n.order)):
            return f"action[{k}] is not a permutation of N"
        for a in range(n.order):
            for b in range(n.order):
                if m[n.table[a][b]] != n.table[m[a]][m[b]]:
                    return f"action[{k}] is not an automorphism of N"
    if maps[0] != tuple(range(n.order)):
        return "action[0] must be the identity map"
    for k1 in range(h.order):
        for k2 in range(h.order):
            composed = tuple(maps[k1][maps[k2][x]] for x in range(n.order))
            if maps[h.table[k1][k2]] != composed:
                return "action is not a homomorphism into Aut(N)"
    return None


def test_action_checks_equal_all_pairs_reference():
    """semidirect_product checks each action[k] on N's generators and
    the action law on H's generators. For every permutation s of N, the
    action k -> s^k of the cyclic H (and its shift k -> s^(k+1), whose
    action[0] is the identity only for s = 1) is accepted or refused as
    the all-pairs checks did, with the same message."""
    v4 = builders.direct_product(builders.cyclic(2), builders.cyclic(2))
    outcomes = {}
    for n in (builders.cyclic(3), builders.cyclic(4), v4, builders.symmetric(3)):
        for h in (builders.cyclic(2), builders.cyclic(3), builders.cyclic(4)):
            for sigma in permutations(range(n.order)):
                powers = [tuple(range(n.order))]
                for _ in range(h.order):
                    powers.append(tuple(sigma[x] for x in powers[-1]))
                for action in (powers[:-1], powers[1:]):
                    expected = _reference_action_refusal(n, h, action)
                    try:
                        builders.semidirect_product(n, h, action)
                        got = None
                    except UnsupportedParameter as exc:
                        got = str(exc)
                    assert got == expected, (n.name, h.name, sigma, action)
                    outcomes[expected] = outcomes.get(expected, 0) + 1
    assert len(outcomes) == 5  # accepted, and each of the four refusals


def test_type3_group_structure():
    g1 = builders.type3_group_i(1)
    assert g1.derived_subgroup.order == 2
    assert not g1.is_abelian
    g2 = builders.type3_group_i(2)
    assert g2.center.order == 2
    assert g2.nilpotency_class == 2
    gii = builders.type3_group_ii()
    derived = gii.derived_subgroup
    assert derived.order == 4
    assert all(gii.element_orders[d] <= 2 for d in derived.elements)
    assert gii.order // gii.center.order == 16


# ---------------------------------------------------------------------------
# Structural queries


def test_element_orders_and_exponent():
    q8 = builders.quaternion8()
    assert sorted(q8.element_orders) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert q8.exponent == 4
    assert builders.cyclic(12).exponent == 12


def test_center_and_centralizer():
    d4 = builders.dihedral(4)
    assert d4.center.order == 2
    a5 = builders.alternating(5)
    assert a5.center.order == 1
    x = next(x for x in a5.elements() if a5.element_orders[x] == 5)
    assert a5.centralizer(x).order == 5


def test_normalizer_contains_subgroup():
    s4 = builders.symmetric(4)
    syl = s4.sylow(2)
    norm = s4.normalizer(syl)
    assert set(syl.elements) <= set(norm.elements)


def test_containment_invariants():
    for build in (lambda: builders.symmetric(4), lambda: builders.dihedral(6),
                  lambda: builders.quaternion8()):
        g = build()
        assert g.order % g.center.order == 0
        for x in g.elements():
            generated = set(g.subgroup_generated([x]).elements)
            assert generated <= set(g.centralizer(x).elements)
        for sub in g.normal_subgroups:
            assert set(sub.elements) <= set(g.normalizer(sub).elements)


def test_series_iff_properties():
    for build in (lambda: builders.symmetric(4), lambda: builders.alternating(5),
                  lambda: builders.cyclic(12), lambda: builders.dihedral(5)):
        g = build()
        assert (g.derived_series[-1].order == 1) == g.is_solvable
        if g.order > 1:
            assert (g.nilpotency_class == 1) == g.is_abelian


def test_cosets_partition():
    s4 = builders.symmetric(4)
    sub = s4.sylow(3)
    reps, cosets = s4.right_cosets(sub)
    assert len(reps) == 8
    assert sorted(x for c in cosets for x in c) == list(range(24))
    assert reps[0] == 0


def test_derived_series_and_solvability():
    s4 = builders.symmetric(4)
    assert s4.is_solvable
    assert len(s4.derived_series) == 4  # S4 > A4 > V4 > 1
    a5 = builders.alternating(5)
    assert not a5.is_solvable
    assert a5.derived_series[-1].order == 60


def test_nilpotency():
    assert builders.quaternion8().nilpotency_class == 2
    assert builders.cyclic(9).nilpotency_class == 1
    assert builders.cyclic(1).nilpotency_class == 0
    assert builders.symmetric(3).nilpotency_class is None
    assert builders.dihedral(8).nilpotency_class == 3


def test_quotient():
    a4 = builders.alternating(4)
    v4 = a4.sylow(2)
    q, proj = a4.quotient(v4)
    assert q.order == 3
    # projection is a homomorphism onto the factor group
    for a in a4.elements():
        for b in a4.elements():
            assert proj[a4.table[a][b]] == q.table[proj[a]][proj[b]]


def test_quotient_requires_normal():
    s3 = builders.symmetric(3)
    sub = next(s3.subgroup_generated([x]) for x in s3.elements()
               if s3.element_orders[x] == 2)
    with pytest.raises(NotNormal):
        s3.quotient(sub)


def test_subgroup_validation():
    s3 = builders.symmetric(3)
    with pytest.raises(NotASubgroup):
        s3.subgroup([0, 1])  # not closed unless 1 has order 2 with no products
    with pytest.raises(NotASubgroup):
        s3.subgroup([1, 2])  # missing identity


@pytest.mark.parametrize("build, p, expected", [
    (lambda: builders.symmetric(4), 2, 8),
    (lambda: builders.symmetric(4), 3, 3),
    (lambda: builders.alternating(5), 2, 4),
    (lambda: builders.alternating(5), 5, 5),
    (lambda: builders.cyclic(12), 2, 4),
    (lambda: builders.cyclic(12), 3, 3),
    (lambda: builders.cyclic(12), 5, 1),
    (lambda: builders.psl2(7), 2, 8),
    (lambda: builders.psl2(7), 7, 7),
])
def test_sylow_orders(build, p, expected):
    group = build()
    assert group.sylow(p).order == expected


def test_sylow_order_is_exact_p_part():
    for build in (lambda: builders.symmetric(5), lambda: builders.dihedral(12)):
        group = build()
        for p in (2, 3, 5):
            n = group.order
            p_part = 1
            while n % p == 0:
                p_part *= p
                n //= p
            assert group.sylow(p).order == p_part


def _quotient_ascent_sylow(group, p) -> tuple:
    """Reference: the Sylow ascent that realized N(P) as its own group,
    formed N(P)/P and lifted the least element of its first coset of
    order p (quotient cosets are ordered by least element)."""
    p_part, n = 1, group.order
    while n % p == 0:
        p_part, n = p_part * p, n // p
    if p_part == 1:
        return (0,)
    x = next(x for x in group.elements() if group.element_orders[x] % p == 0)
    current = group.subgroup_generated([group.pow(x, group.element_orders[x] // p)])
    while current.order < p_part:
        ngrp, embed = group.normalizer(current).as_group()
        back = {g: i for i, g in enumerate(embed)}
        qgrp, proj = ngrp.quotient(ngrp.subgroup(back[h] for h in current.elements))
        c = next(c for c in qgrp.elements() if qgrp.element_order(c) == p)
        lift = embed[next(g for g in ngrp.elements() if proj[g] == c)]
        current = group.subgroup_generated(list(current.generators) + [lift])
    return current.elements


def test_sylow_equals_quotient_ascent():
    from cubeaut.catalog import built_in_catalog
    for name, group in built_in_catalog().groups(order_cap=360):
        for p in range(2, group.order + 1):
            if group.order % p == 0 and all(p % d for d in range(2, p)):
                assert group.sylow(p).elements == _quotient_ascent_sylow(group, p), (name, p)


def test_normal_subgroups():
    s4 = builders.symmetric(4)
    orders = sorted(sub.order for sub in s4.normal_subgroups)
    assert orders == [1, 4, 12, 24]
    a5 = builders.alternating(5)
    assert sorted(s.order for s in a5.normal_subgroups) == [1, 60]


def _closure_join_lattice(group):
    """Normal subgroups as sorted element tuples, each base subgroup the
    closure of a whole conjugacy class and each join the closure of the
    union of two element sets."""
    base = []
    for cls in group.conjugacy_classes:
        closure = frozenset(group.closure(cls))
        if closure not in base:
            base.append(closure)
    lattice = {frozenset({0})}
    queue = [frozenset({0})]
    while queue:
        current = queue.pop()
        for b in base:
            if b <= current:
                continue
            joined = frozenset(group.closure(current | b))
            if joined not in lattice:
                lattice.add(joined)
                queue.append(joined)
    return sorted((len(s), tuple(sorted(s))) for s in lattice)


def test_normal_subgroups_equal_closure_joins():
    from cubeaut.catalog import built_in_catalog
    catalog = built_in_catalog()
    named = ("A5", "S5", "L2(7)", "PGL2(7)", "A6")
    for name, group in [*catalog.groups(order_cap=64),
                        *((name, catalog.build(name)) for name in named)]:
        subs = group.normal_subgroups
        assert [(s.order, s.elements) for s in subs] == _closure_join_lattice(group), name


@pytest.mark.parametrize("elements, bad", [
    ([0, 2.7], 2.7),
    ([0, 2.0], 2.0),
    ([0, True, 2, 3], True),
    ([0, "2"], "2"),
    ([0, -2], -2),
    ([0, 4], 4),
    ([2, 0, None], None),
])
def test_subgroup_refuses_non_indices(elements, bad):
    """An element is an int in 0..n-1 (bool excluded): anything else is
    refused by name, never converted, before the list is sorted."""
    with pytest.raises(NotASubgroup, match=f"^{re.escape(repr(bad))} is not an element"):
        builders.cyclic(4).subgroup(elements)


@pytest.mark.parametrize("bad", [-1, True, 99, 4.0, "1", None], ids=repr)
def test_generators_refuse_non_indices(bad):
    """closure, subgroup_generated, inner_automorphism and
    build_type_III's a- and x-elements refuse what subgroup refuses, by
    name (before: on S3, closure([-1]) gave {0, 5, -1}, closure([True])
    {0, True, 3} and closure([99]) an IndexError, and
    inner_automorphism(s3, -1) conjugated by 5; on Q8, x = 99 an
    IndexError and x = 4.0 a TypeError)."""
    s3 = builders.symmetric(3)
    q8 = builders.quaternion8()
    message = f"^{re.escape(repr(bad))} is not an element"
    for call in (lambda: s3.closure([1, bad]),
                 lambda: s3.subgroup_generated([bad, 1]),
                 lambda: inner_automorphism(s3, bad),
                 lambda: build_type_III(q8, Type3Decomposition("i", (1,), (bad,), ())),
                 lambda: build_type_III(q8, Type3Decomposition("i", (bad,), (4,), ()))):
        with pytest.raises(NotASubgroup, match=message):
            call()


@pytest.mark.parametrize("p", [0, 1, 4, -3, True, 3.0, 2.5], ids=repr)
def test_sylow_refuses_non_primes(p):
    """Only an int prime is a Sylow prime (before: 3.0 ended in a
    TypeError and 2.5 gave the trivial subgroup)."""
    with pytest.raises(UnsupportedParameter, match=f"^{re.escape(str(p))} is not prime$"):
        builders.symmetric(4).sylow(p)


def test_prime_divisors_equal_brute_force():
    for n in range(1, 2001):
        expected = tuple(p for p in range(2, n + 1)
                         if n % p == 0 and all(p % d for d in range(2, p)))
        assert prime_divisors(n) == expected, n


# Every public call of groups, cubing, automorphisms and verifier that
# takes a Subgroup, as module.qualname -> call(group, subgroup).
# tests/test_source.py requires an entry here for each one.
FOREIGN_SUBGROUP_CALLS = {
    "groups.FiniteGroup.centralizer": lambda g, h: g.centralizer(h),
    "groups.FiniteGroup.normalizer": lambda g, h: g.normalizer(h),
    "groups.FiniteGroup.right_cosets": lambda g, h: g.right_cosets(h),
    "groups.FiniteGroup.quotient": lambda g, h: g.quotient(h),
    "groups.FiniteGroup.is_normal": lambda g, h: g.is_normal(h),
    "cubing.coset_trace": lambda g, h: coset_trace(g, identity_map(g), h, 1),
    "cubing.build_type_II": lambda g, h: build_type_II(g, h, 1),
    "automorphisms.restrict": lambda g, h: restrict(identity_map(g), h),
    "automorphisms.induced_on_quotient": lambda g, h: induced_on_quotient(identity_map(g), h),
    "verifier.check_quotient_inequality":
        lambda g, h: check_quotient_inequality(g, identity_map(g), h),
}


@pytest.mark.parametrize("host", ["D4", "Z2", "S3"])
@pytest.mark.parametrize("call", FOREIGN_SUBGROUP_CALLS.values(), ids=FOREIGN_SUBGROUP_CALLS)
def test_foreign_subgroup_is_refused(call, host):
    """A3 of one S3 is refused by every call on another group: a larger
    one (read by S3's labels, it would give a wrong answer), a smaller
    one (an index error) and a second S3 with the same table."""
    s3 = builders.symmetric(3)
    a3 = s3.subgroup_generated([next(x for x in s3.elements() if s3.element_orders[x] == 3)])
    group = {"D4": builders.dihedral(4), "Z2": builders.cyclic(2),
             "S3": builders.symmetric(3)}[host]
    with pytest.raises(NotASubgroup, match="^subgroup belongs to a different group$"):
        call(group, a3)


@pytest.mark.parametrize("bad", [1.9, "1", True, 4, -1])
def test_centralizer_refuses_non_indices(bad):
    with pytest.raises(NotASubgroup, match=f"^{re.escape(repr(bad))} is not an element"):
        builders.cyclic(4).centralizer(bad)


@pytest.mark.parametrize("bad", [True, 2.0, "1", -1, 4, []], ids=repr)
def test_element_index_callers_refuse_non_indices(bad):
    """One test of "element indices in 0..n-1", groups._are_indices,
    serves four callers, and each keeps its own refusal: the image check
    of a GroupMap and FiniteGroup._check_elements name the first bad
    value, automorphisms._indices and groups._is_permutation answer
    False. A bool, a float, a str, a negative index, n itself and a list
    are each refused; the arrays without them pass."""
    z4 = builders.cyclic(4)
    assert GroupMap(z4, z4, (0, 1, 2, 3)).homomorphism_witness() is None
    with pytest.raises(NotAutomorphism,
                       match=f"^image of 2 is {re.escape(repr(bad))}, not an element of the target$"):
        GroupMap(z4, z4, (0, 1, bad, 3)).homomorphism_witness()
    assert z4.subgroup([0, 2]).order == 2
    with pytest.raises(NotASubgroup, match=f"^{re.escape(repr(bad))} is not an element index"):
        z4.subgroup([0, 2, bad, 5.5])
    assert _indices([0, 3, 1], 4) and not _indices([0, bad, 1], 4)
    assert _is_permutation([0, 1, 2, 3], 4) and not _is_permutation([0, 1, bad, 3], 4)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_psl2_simple(q):
    group = builders.psl2(q)
    assert sorted(s.order for s in group.normal_subgroups) == [1, group.order]


def test_conjugacy_classes():
    s3 = builders.symmetric(3)
    sizes = sorted(len(c) for c in s3.conjugacy_classes)
    assert sizes == [1, 2, 3]
    assert sum(len(c) for c in builders.alternating(5).conjugacy_classes) == 60


def _elementwise_classes(group):
    """Reference: each class as the set of x^g over every element g."""
    seen, classes = set(), []
    for x in group.elements():
        if x not in seen:
            orbit = sorted({group.conjugate(x, g) for g in group.elements()})
            seen.update(orbit)
            classes.append(tuple(orbit))
    return tuple(classes)


def test_class_with_conjugators_matches_elementwise_classes():
    from cubeaut.catalog import built_in_catalog
    for name, group in built_in_catalog().groups(order_cap=120):
        assert group.conjugacy_classes == _elementwise_classes(group), name


# ---------------------------------------------------------------------------
# Generator-level queries against element-wise references


def _all_pairs_commutator_closure(group, left, right):
    return group.subgroup_generated({group.commutator(a, b) for a in left for b in right})


def _elementwise_series(group, against_whole):
    whole = group.subgroup(range(group.order))
    series = [whole]
    while True:
        last = series[-1]
        right = whole.elements if against_whole else last.elements
        nxt = _all_pairs_commutator_closure(group, last.elements, right)
        if nxt.elements == last.elements:
            break
        series.append(nxt)
        if nxt.order == 1:
            break
    return [s.elements for s in series]


def _elementwise_normalizer(group, sub):
    inside = set(sub.elements)
    return tuple(g for g in group.elements()
                 if all(group.conjugate(h, g) in inside for h in sub.elements))


def _elementwise_is_normal(group, sub):
    inside = set(sub.elements)
    return all(group.conjugate(h, g) in inside for g in group.elements() for h in sub.elements)


def _elementwise_is_abelian(sub):
    t = sub.parent.table
    return all(t[a][b] == t[b][a] for a in sub.elements for b in sub.elements)


def test_generator_level_queries_match_elementwise():
    from cubeaut.catalog import built_in_catalog
    for name, group in built_in_catalog().groups(order_cap=64):
        everything = group.elements()
        assert (group.derived_subgroup.elements
                == _all_pairs_commutator_closure(group, everything, everything).elements), name
        assert [s.elements for s in group.derived_series] == _elementwise_series(group, False), name
        assert ([s.elements for s in group.lower_central_series]
                == _elementwise_series(group, True)), name
        primes = [p for p in range(2, group.order + 1)
                  if group.order % p == 0 and all(p % d for d in range(2, p))]
        subs = list(group.normal_subgroups) + [group.sylow(p) for p in primes]
        for sub in subs:
            assert group.normalizer(sub).elements == _elementwise_normalizer(group, sub), name
            assert group.is_normal(sub) == _elementwise_is_normal(group, sub), name
            assert sub.is_abelian == _elementwise_is_abelian(sub), name
            assert len(group.closure(sub.generators)) == sub.order, name


# ---------------------------------------------------------------------------
# Maximum abelian subgroup (oracle values from the full subgroup lattice)


@pytest.mark.parametrize("build, expected", [
    (lambda: builders.alternating(4), 4),
    (lambda: builders.symmetric(4), 4),
    (lambda: builders.dihedral(6), 6),
    (lambda: builders.quaternion8(), 4),
    (lambda: builders.alternating(5), 5),
    (lambda: builders.dihedral(4), 4),
    (lambda: builders.type3_group_i(2), 8),
    (lambda: builders.cyclic(12), 12),
])
def test_max_abelian_subgroup(build, expected):
    group = build()
    result = max_abelian_subgroup_order(group)
    assert result.exact
    assert result.size == expected
    witness = result.witness
    assert witness.is_abelian
    assert witness.order == expected


def test_max_abelian_budget_flag():
    group = builders.symmetric(4)
    result = max_abelian_subgroup_order(group, budget=2)
    assert not result.exact
    assert result.size >= 4  # greedy seeding already finds a cyclic witness


def old_max_abelian(group, budget=2_000_000):
    """The search before class roots and coset growth: it branches at the
    root on every non-central element and closes each child with
    ``closure``. Returns (size, exact, nodes)."""
    n = group.order
    comm = group.commuting_masks
    priority = sorted(range(n), key=lambda x: (-comm[x].bit_count(), x))
    position = [0] * n
    for pos, x in enumerate(priority):
        position[x] = pos

    def mask_of(elems):
        return sum(1 << e for e in set(elems))

    center = group.center
    center_mask = mask_of(center.elements)
    best_size = center.order
    x0 = max(group.elements(), key=lambda x: (group.element_orders[x], -x))
    best_size = max(best_size, len(group.closure([x0])))
    nodes = 0
    exact = True
    stack = [(center.elements, center_mask, ~center_mask & ((1 << n) - 1), -1)]
    while stack:
        elems, mask, compat, last_pos = stack.pop()
        if len(elems) + compat.bit_count() <= best_size:
            continue
        children = []
        cand = compat
        while cand:
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
            if position[x] <= last_pos:
                continue
            nodes += 1
            if nodes > budget:
                exact = False
                stack.clear()
                children = []
                break
            closed = group.closure(list(elems) + [x])
            best_size = max(best_size, len(closed))
            new_mask = mask_of(closed)
            children.append((tuple(sorted(closed)), new_mask,
                             compat & comm[x] & ~new_mask, position[x]))
        stack.extend(reversed(children))
    return best_size, exact, nodes


def check_abelian_witness(group, witness, size):
    """The witness is an abelian subgroup of ``size`` elements holding Z(G),
    checked pair by pair on the raw table."""
    t = group.table
    inside = set(witness.elements)
    assert len(inside) == size and 0 in inside
    assert set(group.center.elements) <= inside
    for a in inside:
        row = t[a]
        for b in inside:
            assert row[b] in inside and row[b] == t[b][a]


def test_max_abelian_equals_old_search():
    """Equal size and exact flag with the old search on every catalog group
    (S6 and PGL2(13) among them) and on S3 x Z2^5; each witness is
    re-checked, and at budgets 1-3 nodes stay within budget + 1. The node
    counts are pinned, so a change to the search shows as a count."""
    from cubeaut.catalog import built_in_catalog
    s3_z2_5 = builders.symmetric(3)
    for _ in range(5):
        s3_z2_5 = builders.direct_product(s3_z2_5, builders.cyclic(2))
    named = [*built_in_catalog().groups(), ("S3xZ2^5", s3_z2_5)]
    pinned = {"S6": (191, 3909), "PGL2(13)": (56, 5121), "S3xZ2^5": (64, 160)}
    new_nodes = old_nodes = 0
    for name, group in named:
        result = max_abelian_subgroup_order(group)
        size, exact, nodes = old_max_abelian(group)
        assert (result.size, result.exact) == (size, exact), name
        check_abelian_witness(group, result.witness, size)
        assert pinned.pop(name, (result.nodes, nodes)) == (result.nodes, nodes), name
        new_nodes += result.nodes
        old_nodes += nodes
        for budget in (1, 2, 3):
            cut = max_abelian_subgroup_order(group, budget=budget)
            assert cut.nodes <= budget + 1, name
            assert cut.exact == (cut.nodes <= budget), name
            assert cut.size <= size and (not cut.exact or cut.size == size), name
    assert pinned == {}
    assert (new_nodes, old_nodes) == (1400, 21807)


def test_max_abelian_calls_closure_once(monkeypatch):
    """On the six groups-cold groups the search grows subgroups by cosets:
    its one ``closure`` call is the cyclic seed's."""
    from cubeaut.catalog import built_in_catalog
    catalog = built_in_catalog()
    named = [(name, catalog.build(name))
             for name in ("A6", "S6", "L2(11)", "L2(13)", "T3i(2)", "T3ii")]
    for _, group in named:
        group.generating_set  # cached before counting: its greedy choice calls closure
    calls = []
    real = FiniteGroup.closure

    def counting(self, gens):
        calls.append(self.name)
        return real(self, gens)

    monkeypatch.setattr(FiniteGroup, "closure", counting)
    for name, group in named:
        calls.clear()
        assert max_abelian_subgroup_order(group).exact, name
        assert len(calls) <= 1, name


# ---------------------------------------------------------------------------
# File formats


def test_group_json_roundtrip(tmp_path):
    g = builders.dihedral(5)
    path = tmp_path / "d5.json"
    path.write_text(json.dumps(group_to_json(g)))
    loaded = load_group_file(path)
    assert loaded.table == g.table
    assert loaded.name == "D5"


def test_generator_format(tmp_path):
    path = tmp_path / "s3gen.json"
    path.write_text(json.dumps({"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}))
    assert load_group_file(path).order == 6


def test_file_errors_carry_locations():
    with pytest.raises(FileFormatError) as info:
        load_group_json({"order": 2, "table": [[0, 1], [1, 7]]})
    assert "table[1][1]" in str(info.value)
    with pytest.raises(FileFormatError) as info:
        load_group_json({"degree": 3, "generators": [[0, 0, 1]]})
    assert "generators[0]" in str(info.value)
    with pytest.raises(FileFormatError) as info:
        load_group_json({"degree": True, "generators": [[0]]})
    assert "degree" in str(info.value)
    with pytest.raises(FileFormatError):
        load_group_json({"widgets": 3})
    # the first bad row or entry in reading order, whatever follows it
    for location, table in {"table[1]": [[0, 1], [1]], "table[0]": [(0, 1), [1, 0]],
                            "table[1][0]": [[0, 1], [1.0, 0]],
                            "table[0][1]": [[0, 2], [1, 0, 0]]}.items():
        with pytest.raises(FileFormatError) as info:
            load_group_json({"table": table})
        assert info.value.location == location


@pytest.mark.parametrize("order", [2.0, True, "2", None], ids=repr)
def test_non_integer_order_is_refused(order):
    with pytest.raises(FileFormatError) as info:
        load_group_json({"order": order, "table": [[0, 1], [1, 0]]})
    assert info.value.location == "order"


@pytest.mark.parametrize("order", [99, 1, 3.0, True, "3", None], ids=repr)
def test_generator_form_declared_order_must_match(order):
    form = {"degree": 3, "generators": [[1, 2, 0]]}
    assert load_group_json({**form, "order": 3}).order == 3
    with pytest.raises(FileFormatError) as info:
        load_group_json({**form, "order": order})
    assert info.value.location == "order"


@pytest.mark.parametrize("name", [5, ["x"], None], ids=repr)
@pytest.mark.parametrize("form", [{"table": [[0]]}, {"degree": 1, "generators": [[0]]}],
                         ids=["table", "generators"])
def test_non_string_name_is_refused(name, form):
    with pytest.raises(FileFormatError) as info:
        load_group_json({"name": name, **form})
    assert info.value.location == "name"


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken")
    with pytest.raises(FileFormatError) as info:
        load_group_file(path)
    assert "line" in str(info.value)


# ---------------------------------------------------------------------------
# Properties


@given(n=st.integers(min_value=1, max_value=30), m=st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_direct_product_properties(n, m):
    g = builders.direct_product(builders.cyclic(n), builders.cyclic(m))
    assert g.order == n * m
    assert g.is_abelian
    import math
    assert g.exponent == math.lcm(n, m)


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=20, deadline=None)
def test_cyclic_structure(n):
    g = builders.cyclic(n)
    assert g.element_orders[1 % n] == n if n > 1 else True
    assert g.center.order == n
    assert g.nilpotency_class == (1 if n > 1 else 0)


@given(st.integers(min_value=3, max_value=20))
@settings(max_examples=15, deadline=None)
def test_dihedral_structure(n):
    g = builders.dihedral(n)
    assert g.order == 2 * n
    assert g.center.order == (2 if n % 2 == 0 else 1)
    assert g.is_solvable
    reps, cosets = g.right_cosets(g.subgroup_generated([1]))
    assert len(reps) == 2
