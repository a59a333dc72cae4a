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
    NotNormal,
    UnsupportedParameter,
)
from cubeaut.groups import (
    FiniteGroup,
    _check_rows,
    _find_identity,
    _light_associativity,
    _validate_table,
    abelian_basis,
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


def test_table_hash_is_sha256_of_compact_json():
    for name, group in _reference_groups():
        payload = json.dumps([list(r) for r in group.table], separators=(",", ":"))
        assert group.table_hash == hashlib.sha256(payload.encode()).hexdigest(), name
    # cache files are keyed by these digests; a change here orphans them
    assert (FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]]).table_hash
            == "9ae3a8423176ba4b10daebe31239c0dfe362500241361d9bf376ac01a4cb73fc")
    assert (builders.alternating(5).table_hash
            == "f506fa6ca4e2eed818b269d874239c6162fde8f822979851c7e6f55c78eca87b")
    assert builders.cyclic(2).table_hash == hashlib.sha256(b"[[0,1],[1,0]]").hexdigest()
    assert builders.cyclic(1).table_hash == hashlib.sha256(b"[[0]]").hexdigest()


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


def test_abelian_basis_reconstructs_group():
    for build in (lambda: builders.cyclic(12),
                  lambda: builders.direct_product(builders.cyclic(2), builders.cyclic(4)),
                  lambda: builders.direct_product(
                      builders.direct_product(builders.cyclic(2), builders.cyclic(2)),
                      builders.cyclic(9))):
        group = build()
        basis = abelian_basis(group)
        total = 1
        for b in basis:
            total *= group.element_orders[b]
        assert total == group.order
        assert len(group.closure(basis)) == group.order


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
