import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import _freed_after

from cubeaut import builders
from cubeaut.automorphisms import (
    GroupMap,
    automorphism_group,
    check_automorphism,
    compose,
    enumerate_automorphisms,
    identity_map,
    induced_on_quotient,
    inner_automorphism,
    invert,
    is_n_abelian,
    power_map,
    restrict,
)
from cubeaut.automorphisms import (
    _all_canonical,
    _centralizing,
    _close,
    _conjugates,
    _fingerprints,
    _prove_stored,
)
from cubeaut.catalog import heisenberg27
from cubeaut.errors import NotAutomorphism, NotInvariant
from cubeaut.verifier import ratio_row


def phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _arrays(auts) -> tuple:
    """Every member's image array, in index order."""
    return tuple(auts.images_at(range(auts.order)))


# ---------------------------------------------------------------------------
# Map basics


def test_identity_is_automorphism():
    for build in (builders.quaternion8, lambda: builders.symmetric(4)):
        g = build()
        check_automorphism(identity_map(g))


def test_power_map_on_cyclic():
    z5 = builders.cyclic(5)
    cube = power_map(z5, 3)
    check_automorphism(cube)
    z9 = builders.cyclic(9)
    cube9 = power_map(z9, 3)
    assert cube9.homomorphism_witness() is None
    with pytest.raises(NotAutomorphism, match="not a bijection"):
        check_automorphism(cube9)  # kernel of size 3
    assert len(set(cube9.images)) == 3


def test_homomorphism_witness():
    s3 = builders.symmetric(3)
    square = power_map(s3, 2)
    witness = square.homomorphism_witness()
    assert witness is not None
    a, b = witness
    assert s3.pow(s3.table[a][b], 2) != s3.table[s3.pow(a, 2)][s3.pow(b, 2)]


def _all_pairs_witness(m):
    """Reference check: the homomorphism law on every pair (a, b)."""
    src, tgt, img = m.source.table, m.target.table, m.images
    for a in m.source.elements():
        for b in m.source.elements():
            if img[src[a][b]] != tgt[img[a]][img[b]]:
                return (a, b)
    return None


def test_homomorphism_witness_equals_all_pairs():
    from itertools import product
    from cubeaut.catalog import built_in_catalog

    z2, z3, z4, s3 = (builders.cyclic(2), builders.cyclic(3), builders.cyclic(4),
                      builders.symmetric(3))
    v4 = builders.direct_product(z2, z2)
    trivial = builders.cyclic(1)
    maps = [GroupMap(src, tgt, images)
            for src, tgt in ((z2, z2), (s3, z2), (z4, v4), (trivial, z3))
            for images in product(range(tgt.order), repeat=src.order)]
    for _, group in built_in_catalog().groups(order_cap=24):
        maps.extend(power_map(group, n) for n in range(-3, 6))
    maps.extend(enumerate_automorphisms(builders.symmetric(4)).members)
    homomorphisms = 0
    for m in maps:
        witness = m.homomorphism_witness()
        assert (witness is None) == (_all_pairs_witness(m) is None), m.images
        if witness is None:
            homomorphisms += 1
        else:
            a, b = witness
            src, tgt, img = m.source.table, m.target.table, m.images
            assert img[src[a][b]] != tgt[img[a]][img[b]]
    assert 0 < homomorphisms < len(maps)


@pytest.mark.parametrize("bad", [5, -1, True, 1.5])
def test_images_outside_the_target_are_refused(bad):
    z2 = builders.cyclic(2)
    m = GroupMap(z2, z2, (0, bad))
    with pytest.raises(NotAutomorphism):
        check_automorphism(m)
    with pytest.raises(NotAutomorphism):
        m.homomorphism_witness()
    with pytest.raises(NotAutomorphism):
        compose(m, identity_map(z2))
    z4 = builders.cyclic(4)  # the bad image sits outside the normal subgroup
    with pytest.raises(NotAutomorphism):
        induced_on_quotient(GroupMap(z4, z4, (0, bad, 2, 3)), z4.subgroup([0, 2]))


def test_negative_power_map():
    z7 = builders.cyclic(7)
    inv = power_map(z7, -1)
    check_automorphism(inv)
    assert inv.images[1] == 6


def test_compose_and_invert():
    z8 = builders.cyclic(8)
    auts = enumerate_automorphisms(z8)
    for m1 in auts.members:
        for m2 in auts.members:
            check_automorphism(compose(m1, m2))
        assert compose(m1, invert(m1)).is_identity


def test_bijection_needs_equal_orders():
    z2, z4 = builders.cyclic(2), builders.cyclic(4)
    assert GroupMap(z4, z4, (0, 3, 2, 1)).is_bijective
    for m in (GroupMap(z2, z4, (0, 2)), GroupMap(z4, z2, (0, 1, 0, 1))):
        assert not m.is_bijective
        with pytest.raises(NotAutomorphism):
            invert(m)


def test_inner_automorphism_order():
    s3 = builders.symmetric(3)
    transposition = next(x for x in s3.elements() if s3.element_orders[x] == 2)
    inner = inner_automorphism(s3, transposition)
    check_automorphism(inner)
    assert compose(inner, inner).is_identity
    assert not inner.is_identity


# ---------------------------------------------------------------------------
# Generating sets


def test_small_generating_set():
    assert builders.cyclic(7).generating_set == (1,)
    assert builders.cyclic(1).generating_set == ()
    s4 = builders.symmetric(4)
    gens = s4.generating_set
    assert len(gens) <= 2
    assert len(s4.closure(gens)) == 24
    q8 = builders.quaternion8()
    gens = q8.generating_set
    assert len(q8.closure(gens)) == 8
    assert len(gens) <= 3  # log2(8)


def _unpruned_greedy_generating_set(group):
    """Reference: the greedy scan over every element at every step."""
    gens, size = [], 1
    while size < group.order:
        best_x, best_size = None, 0
        for x in group.elements():
            closure = group.closure(gens + [x])
            if len(closure) > best_size:
                best_x, best_size = x, len(closure)
        gens.append(best_x)
        size = best_size
    return tuple(gens)


def test_generating_set_equals_unpruned_greedy():
    from cubeaut.catalog import built_in_catalog
    for name, group in built_in_catalog().groups(order_cap=64):
        assert group.generating_set == _unpruned_greedy_generating_set(group), name


@pytest.mark.parametrize("build, nodes, representatives", [
    pytest.param(lambda: builders.symmetric(4), 2, 1, id="S4"),
    pytest.param(lambda: builders.alternating(5), 3, 2, id="A5"),
    pytest.param(lambda: builders.type3_group_ii(), 172, 128, id="T3ii"),
])
def test_enumeration_nodes_pinned(build, nodes, representatives):
    # the backtracking runs over generator images, so these counts pin its path
    result = enumerate_automorphisms(build())
    assert (result.nodes, len(result.representatives)) == (nodes, representatives)


def _full_backtrack(group):
    """Reference: the backtracking with every candidate image at every
    level. Returns (sorted image arrays, nodes)."""
    n = group.order
    if n == 1:
        return ((0,),), 0
    gens = list(group.generating_set)
    fp = _fingerprints(group)
    candidates = [[x for x in range(n) if fp[x] == fp[g]] for g in gens]
    order_of, table, inv = group.element_orders, group.table, group.inv
    ranked = sorted(range(len(gens)), key=lambda i: (len(candidates[i]), i))
    gens = [gens[i] for i in ranked]
    candidates = [candidates[i] for i in ranked]
    found, assigned, nodes = [], [], 0

    def backtrack(level):
        nonlocal nodes
        g = gens[level]
        last = level + 1 == len(gens)
        for h in candidates[level]:
            if any(order_of[table[gj][g]] != order_of[table[hj][h]]
                   or order_of[table[gj][inv(g)]] != order_of[table[hj][inv(h)]]
                   for gj, hj in assigned):
                continue
            assigned.append((g, h))
            nodes += 1
            result = _close(table, assigned, n, last)
            if result is not None:
                if last:
                    found.append(tuple(result))
                else:
                    backtrack(level + 1)
            assigned.pop()

    backtrack(0)
    return tuple(sorted(found)), nodes


def _equality_groups():
    from cubeaut.catalog import built_in_catalog
    catalog = built_in_catalog()
    yield from catalog.groups(order_cap=64)
    for name in ("A5", "S5", "L2(7)", "PGL2(7)"):
        yield name, catalog.build(name)


def test_enumeration_equals_full_backtrack():
    for name, group in _equality_groups():
        arrays, nodes = _full_backtrack(group)
        result = enumerate_automorphisms(group)
        assert tuple(sorted(_arrays(result))) == arrays, name
        # one leaf per coset of Inn(G) instead of one per member, on a
        # subtree of the reference's
        assert len(result.representatives) * (group.order // group.center.order) \
            == len(arrays), name
        if group.is_abelian:
            assert result.nodes == nodes, name
        else:
            assert result.nodes < nodes, name


# ---------------------------------------------------------------------------
# Enumeration


@pytest.mark.parametrize("build, expected", [
    (lambda: builders.cyclic(2), 1),
    (lambda: builders.cyclic(8), 4),
    (lambda: builders.symmetric(3), 6),
    (lambda: builders.quaternion8(), 24),
    (lambda: builders.dihedral(4), 8),
    (lambda: builders.alternating(4), 24),
    (lambda: builders.symmetric(4), 24),
    (lambda: builders.direct_product(builders.cyclic(2), builders.cyclic(2)), 6),
    (lambda: builders.alternating(5), 120),
])
def test_aut_orders(build, expected):
    assert enumerate_automorphisms(build()).order == expected


def test_cyclic_aut_is_phi_up_to_64():
    for n in range(1, 65):
        assert enumerate_automorphisms(builders.cyclic(n)).order == phi(n), n


def test_aut_is_a_group():
    for build in (lambda: builders.symmetric(3), lambda: builders.dihedral(4),
                  lambda: builders.quaternion8()):
        g = build()
        auts = enumerate_automorphisms(g)
        arrays = set(_arrays(auts))
        assert tuple(range(g.order)) in arrays
        for m1 in auts.members:
            assert invert(m1).images in arrays
            for m2 in auts.members:
                assert compose(m1, m2).images in arrays


def test_inner_automorphisms_inside_aut():
    for build in (lambda: builders.symmetric(4), lambda: builders.dihedral(5)):
        g = build()
        auts = enumerate_automorphisms(g)
        arrays = set(_arrays(auts))
        inner = {inner_automorphism(g, x).images for x in g.elements()}
        assert inner <= arrays
        assert len(inner) == g.order // g.center.order
        assert auts.order % len(inner) == 0


def _index_order_arrays(auts) -> list:
    """Every member x -> t^-1 b(x) t as a full image array, expanded
    coset by coset: b = representatives[k // |T|] and t = T[k % |T|] for
    member k, T the transversal of Z(G)."""
    group = auts.base
    conj = [[group.conjugate(x, t) for x in group.elements()] for t in auts.transversal]
    return [tuple(c[y] for y in images) for images in auts.representatives for c in conj]


def _member(auts, k: int) -> tuple:
    """The image array of member k, built by hand: each image of
    representative k // |T| conjugated by transversal element k % |T|."""
    rep, coset = divmod(k, len(auts.transversal))
    t = auts.transversal[coset]
    return tuple(auts.base.conjugate(y, t) for y in auts.representatives[rep])


def test_index_is_representative_and_transversal_element():
    """images_at([k])[0] is representative k // |T| conjugated by
    transversal element k % |T| for every k,
    images_at builds no other member, and sorted, the members are the
    fully sorted image arrays: on every catalog group of order <= 64
    (Z1 among them) and A5, L2(7), A6, L2(9), where [G : Z(G)] > 1."""
    from cubeaut.catalog import built_in_catalog
    catalog = built_in_catalog()
    groups = [*catalog.groups(order_cap=64),
              *((name, catalog.build(name)) for name in ("A5", "L2(7)", "A6", "L2(9)"))]
    assert "Z1" in dict(groups)
    for name, group in groups:
        auts = enumerate_automorphisms(group)
        for k in range(auts.order):
            assert auts.images_at([k])[0] == _member(auts, k), (name, k)
        assert "members" not in vars(auts), name
        expected = _index_order_arrays(auts)
        assert sorted(auts.images_at(range(auts.order))) == sorted(expected), name
        assert [m.images for m in auts.members] == expected, name


def test_every_member_is_verified_automorphism():
    g = builders.dihedral(6)
    auts = enumerate_automorphisms(g)
    for m in auts.members:
        check_automorphism(m)


def test_members_preserve_invariants():
    g = builders.symmetric(4)
    classes = {x: len(c) for c in g.conjugacy_classes for x in c}
    for m in enumerate_automorphisms(g).members:
        for x in g.elements():
            assert g.element_orders[m.images[x]] == g.element_orders[x]
            assert classes[m.images[x]] == classes[x]


def test_s3_all_automorphisms_inner():
    g = builders.symmetric(3)
    auts = enumerate_automorphisms(g)
    inner = {inner_automorphism(g, x).images for x in g.elements()}
    assert set(_arrays(auts)) == inner


@pytest.mark.parametrize("build", [
    lambda: builders.cyclic(6),
    lambda: builders.symmetric(3),
    lambda: builders.quaternion8(),
    lambda: builders.dihedral(4),
    lambda: builders.direct_product(builders.cyclic(2), builders.cyclic(4)),
    lambda: builders.direct_product(
        builders.direct_product(builders.cyclic(2), builders.cyclic(2)),
        builders.cyclic(2)),
])
def test_enumeration_complete_against_all_bijections(build):
    """Independent completeness oracle: scan every permutation fixing
    the identity and keep the multiplicative ones."""
    from itertools import permutations
    g = build()
    n = g.order
    t = g.table
    expected = set()
    for rest in permutations(range(1, n)):
        img = (0,) + rest
        if all(img[t[a][b]] == t[img[a]][img[b]]
               for a in range(n) for b in range(n)):
            expected.add(img)
    assert set(_arrays(enumerate_automorphisms(g))) == expected


def test_enumeration_deterministic_order():
    g = builders.dihedral(4)
    first = enumerate_automorphisms(g)
    second = enumerate_automorphisms(g)
    assert _arrays(first) == _arrays(second)
    assert list(_arrays(first)) == _index_order_arrays(first)


def test_check_automorphism_rejects_non_homomorphism():
    g = builders.symmetric(3)
    images = list(range(6))
    images[1], images[2] = images[2], images[1]
    bad = GroupMap(g, g, tuple(images))
    assert bad.is_bijective and bad.homomorphism_witness() is not None
    with pytest.raises(NotAutomorphism):
        check_automorphism(bad)


# ---------------------------------------------------------------------------
# Restriction and induced maps


def test_restrict_to_invariant_subgroup():
    d6 = builders.dihedral(6)
    rotations = d6.subgroup_generated([1])
    alpha = inner_automorphism(d6, 7)  # conjugation by a reflection
    restricted = restrict(alpha, rotations)
    check_automorphism(restricted)
    # conjugating a rotation by a reflection inverts it
    assert restricted.images[1] == restricted.source.inv(1)


def test_restrict_requires_invariance():
    s3 = builders.symmetric(3)
    sub = next(s3.subgroup_generated([x]) for x in s3.elements()
               if s3.element_orders[x] == 2)
    # some automorphism moves this order-2 subgroup
    moved = [m for m in enumerate_automorphisms(s3).members
             if {m.images[x] for x in sub.elements} != set(sub.elements)]
    assert moved
    with pytest.raises(NotInvariant):
        restrict(moved[0], sub)


def test_induced_on_quotient():
    s4 = builders.symmetric(4)
    # the unique normal subgroup of order 4
    v4 = next(s for s in s4.normal_subgroups if s.order == 4)
    alpha = inner_automorphism(s4, 5)
    induced = induced_on_quotient(alpha, v4)
    assert induced.source.order == 6
    check_automorphism(induced)


def test_restrict_constructed_map_to_center():
    # the order-2 center admits only the identity automorphism, so any
    # invariant restriction lands there
    from cubeaut.cubing import classify_cubing_structure
    g = builders.type3_group_i(1)
    alpha = classify_cubing_structure(g).constructed_alpha
    restricted = restrict(alpha, g.center)
    assert restricted.source.order == 2
    assert restricted.is_identity


def test_induced_on_whole_group_is_trivial():
    g = builders.cyclic(6)
    whole = g.subgroup(range(6))
    induced = induced_on_quotient(power_map(g, -1), whole)
    assert induced.source.order == 1
    assert induced.is_identity


# ---------------------------------------------------------------------------
# n-abelian checks


def test_abelian_groups_are_n_abelian():
    g = builders.direct_product(builders.cyclic(4), builders.cyclic(6))
    for n in range(-3, 8):
        assert is_n_abelian(g, n)


def test_heisenberg_is_3_abelian():
    h = heisenberg27()
    assert h.order == 27
    assert h.exponent == 3
    assert not h.is_abelian
    assert is_n_abelian(h, 3)
    assert not is_n_abelian(h, 2)


def test_s3_not_2_abelian():
    assert not is_n_abelian(builders.symmetric(3), 2)
    assert not is_n_abelian(builders.symmetric(3), -1)


def test_square_and_inverse_abelian_only_for_abelian():
    # for the exponents -1 and 2 the power map is a homomorphism iff
    # the group is abelian; cross-checked over the small catalog
    from cubeaut.catalog import built_in_catalog
    for name, group in built_in_catalog().groups(order_cap=24):
        for k in (-1, 2):
            assert is_n_abelian(group, k) == group.is_abelian, (name, k)


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=-4, max_value=6))
@settings(max_examples=30, deadline=None)
def test_n_abelian_matches_pair_scan(n, k):
    g = builders.dihedral(n % 10 + 3) if n % 2 else builders.cyclic(n)
    direct = all(
        g.pow(g.table[a][b], k) == g.table[g.pow(a, k)][g.pow(b, k)]
        for a in g.elements() for b in g.elements())
    assert is_n_abelian(g, k) == direct


# ---------------------------------------------------------------------------
# Cache


def test_cache_roundtrip(tmp_path):
    g = builders.dihedral(5)
    first = automorphism_group(g, cache_dir=tmp_path)
    cached = automorphism_group(g, cache_dir=tmp_path)
    assert _arrays(first) == _arrays(cached)
    files = list(tmp_path.glob("aut-*.json"))
    assert len(files) == 1
    assert files[0].name == f"aut-{g.table_hash}.json"
    payload = json.loads(files[0].read_text())
    assert payload["aut_order"] == first.order
    assert payload["table_hash"] == g.table_hash
    assert first.nodes > 0 and cached.nodes == 0


def test_corrupt_cache_is_rebuilt(tmp_path):
    g = builders.symmetric(3)
    automorphism_group(g, cache_dir=tmp_path)
    path = next(tmp_path.glob("aut-*.json"))
    payload = json.loads(path.read_text())
    payload["representatives"][0] = [0, 2, 1, 3, 4, 5]  # not generator images
    path.write_text(json.dumps(payload))
    rebuilt = automorphism_group(g, cache_dir=tmp_path)
    assert rebuilt.order == 6
    for m in rebuilt.members:
        check_automorphism(m)


def test_no_directory_touches_no_file(tmp_path, monkeypatch):
    # without a directory Aut(G) is enumerated: no hash, no file, wherever
    # HOME and the cache variables of earlier layouts point
    for key in ("HOME", "XDG_CACHE_HOME", "CUBEAUT_CACHE_DIR"):
        monkeypatch.setenv(key, str(tmp_path / key))
    monkeypatch.chdir(tmp_path)
    g = builders.cyclic(7)
    result = automorphism_group(g)
    assert result.nodes > 0
    assert result.representatives == enumerate_automorphisms(g).representatives
    assert "table_hash" not in g.__dict__
    assert not list(tmp_path.iterdir())


def test_cache_stores_generator_images(tmp_path):
    g = builders.type3_group_ii()
    first = automorphism_group(g, cache_dir=tmp_path)
    payload = json.loads(next(tmp_path.glob("aut-*.json")).read_text())
    gens = payload["generators"]
    assert gens == list(first.generating_set)
    assert set(payload) == {"table_hash", "aut_order", "generators", "representatives"}
    # one representative per coset of Inn(G): the lexicographically least
    # generator images among the members x -> t^-1 b(x) t of its coset
    images = [tuple(m.images[x] for x in gens) for m in first.members]
    inner = [tuple(g.conjugate(x, t) for x in g.elements()) for t in g.elements()]
    least = sorted({min(tuple(conj[y] for y in b) for conj in inner) for b in images})
    assert payload["representatives"] == [list(b) for b in least]
    assert len(least) * g.order // g.center.order == first.order == payload["aut_order"]
    assert len(least) == 128


def test_cache_load_equals_enumeration_on_catalog(tmp_path):
    # order 360 covers every group a warm cache serves to the CLI's scans
    from cubeaut.catalog import built_in_catalog
    for name, group in built_in_catalog().groups(order_cap=360):
        enumerated = automorphism_group(group, cache_dir=tmp_path)
        loaded = automorphism_group(group, cache_dir=tmp_path)
        assert loaded.nodes == 0, name  # served from the cache
        assert loaded.representatives == enumerated.representatives, name
        assert _arrays(loaded) == _arrays(enumerated), name
        assert loaded.generating_set == enumerated.generating_set, name


def _cached_payload(tmp_path, group):
    full = automorphism_group(group, cache_dir=tmp_path)
    path = next(tmp_path.glob("aut-*.json"))
    return full, path, json.loads(path.read_text())


def _assert_reenumerated(tmp_path, group, path, full, payload):
    path.write_text(json.dumps(payload))
    result = automorphism_group(group, cache_dir=tmp_path)
    assert result.nodes > 0  # the file was rejected and Aut(G) enumerated again
    assert _arrays(result) == _arrays(full)
    assert automorphism_group(group, cache_dir=tmp_path).nodes == 0  # overwritten


def test_cache_rejects_member_breaking_a_relation(tmp_path):
    g = builders.symmetric(4)
    full, path, payload = _cached_payload(tmp_path, g)
    gens = payload["generators"]
    known = {tuple(m) for m in payload["representatives"]}
    # same element orders as a real representative, but no automorphism
    bad = next([a, b] for a in range(g.order) for b in range(g.order)
               if (a, b) not in known
               and g.element_orders[a] == g.element_orders[gens[0]]
               and g.element_orders[b] == g.element_orders[gens[1]])
    payload["representatives"][-1] = bad
    _assert_reenumerated(tmp_path, g, path, full, payload)


def test_cache_rejects_non_generating_generators(tmp_path):
    g = builders.symmetric(4)
    full, path, payload = _cached_payload(tmp_path, g)
    # an order-3 and an order-2 element of A4 generate only A4; S4 acts
    # faithfully on A4, so the image pairs stay distinct
    a4 = g.derived_subgroup.elements
    gens = [next(x for x in a4 if g.element_orders[x] == k) for k in (3, 2)]
    payload["generators"] = gens
    payload["representatives"] = [[m.images[x] for x in gens] for m in full.members]
    assert len({tuple(m) for m in payload["representatives"]}) == full.order
    _assert_reenumerated(tmp_path, g, path, full, payload)


def test_cache_rejects_duplicate_member(tmp_path):
    # a repeated representative keeps the count at |Aut(D5)| = 2 * 10
    g = builders.dihedral(5)
    full, path, payload = _cached_payload(tmp_path, g)
    assert len(payload["representatives"]) == 2
    payload["representatives"][-1] = payload["representatives"][0]
    _assert_reenumerated(tmp_path, g, path, full, payload)


def test_cache_rejects_non_canonical_representative(tmp_path):
    # another member of the same coset: an automorphism, distinct from
    # every stored one, with the right count, but not orbit-least
    g = builders.type3_group_ii()
    full, path, payload = _cached_payload(tmp_path, g)
    gens = payload["generators"]
    first = payload["representatives"][0]
    other = next([g.conjugate(x, t) for x in first] for t in g.elements()
                 if [g.conjugate(x, t) for x in first] != first)
    assert other not in payload["representatives"]
    payload["representatives"][0] = other
    check_automorphism(GroupMap(g, g, tuple(_close(g.table, list(zip(gens, other)),
                                                   g.order, True))))
    _assert_reenumerated(tmp_path, g, path, full, payload)


@pytest.mark.parametrize("field, value", [
    ("generator", "1"), ("generator", True), ("generator", 10), ("generator", -1),
    ("image", 1.0), ("image", True), ("image", 10), ("image", -1),
    ("representative", "01"), ("representative", 1),
])
def test_cache_rejects_bad_entries(tmp_path, field, value):
    g = builders.dihedral(5)
    full, path, payload = _cached_payload(tmp_path, g)
    if field == "generator":
        payload["generators"][0] = value
    elif field == "representative":  # a string of length k, or no list at all
        payload["representatives"][1] = value
    else:
        payload["representatives"][1][0] = value
    _assert_reenumerated(tmp_path, g, path, full, payload)


def test_cache_rejects_non_utf8_file(tmp_path):
    g = builders.dihedral(5)
    full, path, payload = _cached_payload(tmp_path, g)
    path.write_bytes(b"\xff\xfe{}")
    result = automorphism_group(g, cache_dir=tmp_path)
    assert result.nodes > 0
    assert _arrays(result) == _arrays(full)


def test_cache_rejects_too_deeply_nested_file(tmp_path):
    # valid JSON that the parser cannot descend into is a failed load
    g = builders.alternating(4)
    full, path, payload = _cached_payload(tmp_path, g)
    path.write_text("[" * 200_000 + "]" * 200_000)
    result = automorphism_group(g, cache_dir=tmp_path)
    assert result.nodes > 0
    assert result.representatives == enumerate_automorphisms(g).representatives
    assert json.loads(path.read_text()) == payload  # rewritten
    assert automorphism_group(g, cache_dir=tmp_path).nodes == 0


def test_cache_ignores_file_under_the_row_major_key(tmp_path):
    # the key was once the sha256 of the table's row-major JSON text; a
    # file under that name is never read, and the new key gets its own
    g = builders.dihedral(5)
    full, path, payload = _cached_payload(tmp_path, g)
    rows = json.dumps([list(r) for r in g.table], separators=(",", ":"))
    old = tmp_path / f"aut-{hashlib.sha256(rows.encode()).hexdigest()}.json"
    assert old != path
    path.rename(old)
    result = automorphism_group(g, cache_dir=tmp_path)
    assert result.nodes > 0  # enumerated, not read from the old name
    assert _arrays(result) == _arrays(full)
    assert json.loads(path.read_text()) == payload
    assert sorted(tmp_path.iterdir()) == sorted([old, path])


def test_cache_rejects_full_array_format(tmp_path):
    g = builders.dihedral(5)
    full, path, payload = _cached_payload(tmp_path, g)
    old = {"table_hash": payload["table_hash"], "aut_order": full.order,
           "members": [list(m.images) for m in full.members]}
    _assert_reenumerated(tmp_path, g, path, full, old)


def test_cache_rejects_every_member_layout(tmp_path):
    # the layout that listed the generator images of all members
    g = builders.symmetric(4)
    full, path, payload = _cached_payload(tmp_path, g)
    payload["representatives"] = [[m.images[x] for x in payload["generators"]]
                                  for m in full.members]
    _assert_reenumerated(tmp_path, g, path, full, payload)


def test_cache_rejects_class_representative_layout(tmp_path):
    # the layout that stored, under "members", the generator images of
    # every member sending the first generator to the least element of
    # its conjugacy class
    g = builders.type3_group_ii()
    full, path, payload = _cached_payload(tmp_path, g)
    gens = payload["generators"]
    least = {c[0] for c in g.conjugacy_classes}
    old = {"table_hash": payload["table_hash"], "aut_order": full.order,
           "generators": gens,
           "members": [[m.images[x] for x in gens] for m in full.members
                       if m.images[gens[0]] in least]}
    assert len(old["members"]) > len(payload["representatives"])
    _assert_reenumerated(tmp_path, g, path, full, old)


def test_cache_rejects_wrong_aut_order(tmp_path):
    g = builders.symmetric(4)
    full, path, payload = _cached_payload(tmp_path, g)
    payload["aut_order"] = full.order - 1
    _assert_reenumerated(tmp_path, g, path, full, payload)


@pytest.mark.parametrize("build, value", [
    (lambda: builders.alternating(5), 120.0),
    (lambda: builders.cyclic(2), True),  # |Aut(Z2)| = 1
])
def test_cache_rejects_non_int_aut_order(tmp_path, build, value):
    # equal to |Aut(G)| as a number, but not an int
    g = build()
    full, path, payload = _cached_payload(tmp_path, g)
    assert payload["aut_order"] == value
    payload["aut_order"] = value
    _assert_reenumerated(tmp_path, g, path, full, payload)


def test_cache_rejects_non_injective_endomorphism(tmp_path):
    # S4's sign map onto <(01)> and the trivial map respect every product,
    # so only the kernel test refuses them
    g = builders.symmetric(4)
    full, path, payload = _cached_payload(tmp_path, g)
    gens = payload["generators"]
    a4 = set(g.derived_subgroup.elements)
    swap = next(x for x in g.elements() if x not in a4 and g.element_orders[x] == 2)
    sign = tuple(0 if x in a4 else swap for x in g.elements())
    for endo in (GroupMap(g, g, sign), GroupMap(g, g, (0,) * g.order)):
        assert endo.homomorphism_witness() is None and not endo.is_bijective
        images = [endo(x) for x in gens]
        assert _close(g.table, list(zip(gens, images)), g.order, True) is None
        assert _prove_stored(g.table, gens, [images], g.order) is None
        bad = dict(payload, representatives=payload["representatives"][:-1] + [images])
        _assert_reenumerated(tmp_path, g, path, full, bad)


def _close_each(table, gens, stored, n):
    """The loader's former proof: one complete closure per stored tuple."""
    arrays = [_close(table, list(zip(gens, images)), n, True) for images in stored]
    return None if None in arrays else [tuple(img) for img in arrays]


def test_batched_proof_equals_closure_per_representative():
    """On every catalog group of order <= 64, the stored tuples, seeded
    single-image corruptions of them, a repeated generator with an equal
    and with a conflicting image, and the power maps x -> x^e (endomorphisms
    of an abelian group, not injective for some e): a set is proven iff
    every tuple closes, with the same image arrays."""
    from cubeaut.catalog import built_in_catalog
    rng = random.Random(20261020)
    outcomes = set()
    for name, g in built_in_catalog().groups(order_cap=64):
        auts = enumerate_automorphisms(g)
        gens = list(auts.generating_set)
        stored = [[b[x] for x in gens] for b in auts.representatives]
        cases = [(gens, stored)]
        if gens:
            for _ in range(4):
                bad = [list(images) for images in stored]
                bad[rng.randrange(len(bad))][rng.randrange(len(gens))] = rng.randrange(g.order)
                cases.append((gens, bad))
            repeated = [images + images[:1] for images in stored]
            cases.append((gens + gens[:1], repeated))
            conflict = [list(images) for images in repeated]
            k = rng.randrange(len(conflict))
            conflict[k][-1] = next(y for y in g.elements() if y != conflict[k][0])
            cases.append((gens + gens[:1], conflict))
            for e in (0, 2, 3):
                cases.append((gens, [[g.pow(x, e) for x in gens]]))
        for case_gens, case_stored in cases:
            expected = _close_each(g.table, case_gens, case_stored, g.order)
            assert _prove_stored(g.table, case_gens, case_stored, g.order) == expected, name
            outcomes.add(expected is None)
    assert outcomes == {True, False}


def _is_canonical(group, cent, images):
    """The loader's former per-tuple rule: each image is the least of its
    orbit under conjugation by the elements of ``cent`` commuting with
    the images before it."""
    for h in images:
        if min(_conjugates(group, cent, h)) < h:
            return False
        cent = _centralizing(group, cent, h)
    return True


def test_prefix_shared_canonicity_equals_per_tuple_rule():
    """On every catalog group of order <= 64: the stored tuples, the
    stored set with its first or its last tuple replaced by a conjugate
    t^-1 b t that changes it, and, for every tuple b, the set of b
    followed by such a conjugate. There t fixes as long a prefix of b as
    any conjugator that changes b, so the conjugate's walk reuses the
    longest prefix that b has proven before its first image out of orbit
    order."""
    from cubeaut.catalog import built_in_catalog

    def agree(group, transversal, tuples):
        shared = _all_canonical(group, transversal, tuples)
        assert shared == all(_is_canonical(group, transversal, t) for t in tuples)
        return shared

    shared_first = 0
    for name, g in built_in_catalog().groups(order_cap=64):
        auts = enumerate_automorphisms(g)
        gens, transversal = auts.generating_set, auts.transversal
        stored = [[b[x] for x in gens] for b in auts.representatives]
        assert agree(g, transversal, stored), name
        if len(transversal) == 1:
            continue  # an abelian group: every coset of Inn(G) has one member
        conjugates = []
        for b in stored:
            moved = [[g.conjugate(x, t) for x in b] for t in transversal]
            moved = [c for c in moved if c != b]
            conj = max(moved, key=lambda c: next(i for i, (x, y) in enumerate(zip(b, c))
                                                 if x != y))
            conjugates.append(conj)
            assert not agree(g, transversal, [b, conj]), name
            shared_first += conj[0] == b[0]
        assert not agree(g, transversal, [conjugates[0]] + stored[1:]), name
        assert not agree(g, transversal, stored[:-1] + [conjugates[-1]]), name
    assert shared_first > 0


@pytest.mark.parametrize("build", [
    lambda: builders.symmetric(4),
    lambda: builders.alternating(5),
    lambda: builders.dihedral(4),
    lambda: builders.quaternion8(),
    lambda: builders.type3_group_i(1),
    heisenberg27,
])
def test_twisted_classes_are_inner_conjugacy_classes(build):
    """Reference: the orbits of Inn(G) acting on the members by
    conjugation, alpha -> inn(s)^-1 alpha inn(s)."""
    g = build()
    auts = enumerate_automorphisms(g)
    orbits = set()
    for m in auts.members:
        orbit = set()
        for s in g.elements():
            s_inv = g.inv(s)
            orbit.add(tuple(g.conjugate(m.images[g.conjugate(x, s_inv)], s)
                            for x in g.elements()))
        orbits.add(frozenset(orbit))
    classes = {frozenset(_member(auts, k) for k in cls) for cls in auts.twisted_classes}
    assert classes == orbits


def _catalog_auts(order_cap: int):
    from cubeaut.catalog import built_in_catalog
    return [(name, enumerate_automorphisms(group))
            for name, group in built_in_catalog().groups(order_cap=order_cap)]


def test_conjugacy_classes_partition_aut():
    """On every catalog group of order <= 24 the classes partition the
    member indices, each class ascending and the classes in order of
    their least index. 1,908 members fall into 441 classes."""
    count = 0
    for name, auts in _catalog_auts(24):
        classes = auts.conjugacy_classes
        assert sorted(k for cls in classes for k in cls) == list(range(auts.order)), name
        assert all(list(cls) == sorted(cls) for cls in classes), name
        assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes), name
        count += len(classes)
    assert count == 441


def test_conjugacy_classes_are_aut_orbits():
    """Reference, on every catalog group of order <= 12: the orbit of each
    member under conjugation by every member, beta alpha beta^-1."""
    for name, auts in _catalog_auts(12):
        arrays = _index_order_arrays(auts)
        index_of = {images: k for k, images in enumerate(arrays)}
        inverses = [invert(GroupMap(auts.base, auts.base, images)).images for images in arrays]
        orbits = {frozenset(index_of[tuple(beta[alpha[beta_inv[x]]] for x in range(len(alpha)))]
                            for beta, beta_inv in zip(arrays, inverses))
                  for alpha in arrays}
        assert set(map(frozenset, auts.conjugacy_classes)) == orbits, name


def _per_transversal_classes(auts) -> tuple:
    """The Aut(G)-conjugacy classes by the older route: one conjugation
    array per element of the transversal of Z(G), members keyed as
    (representative, coset) pairs and the twisted classes nested per
    representative."""
    g, gens, reps = auts.base, auts.generating_set, auts.representatives
    table, transversal = g.table, auts.transversal
    size, coset_of = len(transversal), auts._cosets[1]
    conj = [[table[c][t] for c in table[g.inv(t)]] for t in transversal]
    member_of = {tuple(c[images[x]] for x in gens): (rep, coset)
                 for rep, images in enumerate(reps) for coset, c in enumerate(conj)}
    twisted = []
    for rep, images in enumerate(reps):
        moves = [(table[g.inv(images[s])], s) for s in gens]
        seen = bytearray(size)
        for start in range(size):
            if not seen[start]:
                seen[start] = 1
                cls = [start]
                for c in cls:
                    for row, s in moves:
                        d = coset_of[table[row[transversal[c]]][s]]
                        if not seen[d]:
                            seen[d] = 1
                            cls.append(d)
                twisted.append((rep, cls))
    reached, movers = {member_of[gens][0]}, []
    for rep, images in enumerate(reps):
        if rep not in reached:
            movers.append((images, invert(GroupMap(g, g, images)).images))
            queue = list(reached)
            for r in queue:
                for m, _ in movers:
                    d = member_of[tuple(m[reps[r][x]] for x in gens)][0]
                    if d not in reached:
                        reached.add(d)
                        queue.append(d)
    class_of = {(rep, coset): i for i, (rep, cls) in enumerate(twisted) for coset in cls}
    seen = bytearray(len(twisted))
    result = []
    for start in range(len(twisted)):
        if not seen[start]:
            seen[start] = 1
            orbit = [start]
            for i in orbit:
                rep, cls = twisted[i]
                alpha = [conj[cls[0]][y] for y in reps[rep]]
                for m, m_inv in movers:
                    j = class_of[member_of[tuple(m[alpha[m_inv[x]]] for x in gens)]]
                    if not seen[j]:
                        seen[j] = 1
                        orbit.append(j)
            result.append(tuple(sorted(twisted[i][0] * size + c
                                       for i in orbit for c in twisted[i][1])))
    return tuple(sorted(result))


def test_conjugacy_classes_equal_the_per_transversal_route():
    """On every catalog group of order <= 1092 the classes equal those of
    the older route, which built one conjugation array per transversal
    element. L2(13), with a transversal of 1,092 elements, is the largest
    such group with more than one representative."""
    for name, auts in _catalog_auts(1092):
        assert auts.conjugacy_classes == _per_transversal_classes(auts), name


def _center_cosets(group, gens) -> tuple:
    """Reference (transversal, coset_of) for Z(G), as the enumerator once
    built them itself: the centre is the elements commuting with every
    member of ``gens``, the transversal the least element of each coset
    Zt in ascending order."""
    table = group.table
    center = [z for z in group.elements() if all(table[z][g] == table[g][z] for g in gens)]
    coset_of = [-1] * group.order
    transversal = []
    for t in group.elements():
        if coset_of[t] < 0:
            for z in center:
                coset_of[table[z][t]] = len(transversal)
            transversal.append(t)
    return tuple(transversal), tuple(coset_of)


def test_center_and_transversal_equal_the_reference_rules():
    """On every catalog group: Z(G) is the elements whose row equals
    their column, G is abelian iff its table equals its transpose, and
    the Z(G) transversal and coset map, read from ``FiniteGroup``, equal
    the reference on the enumerator's ranked generators, so the member
    numbering is unchanged."""
    for name, auts in _catalog_auts(None):
        group = auts.base
        columns = list(zip(*group.table))
        assert group.center.elements == tuple(
            z for z, row in enumerate(group.table) if row == columns[z]), name
        assert group.is_abelian == (columns == list(group.table)), name
        assert (auts.transversal, auts._cosets[1]) == \
            _center_cosets(group, auts.generating_set), name


_FRESH = {"A5": lambda: builders.alternating(5), "A6": lambda: builders.alternating(6),
          "Z12": lambda: builders.cyclic(12)}


def test_enumeration_keeps_no_group_alive():
    """The backtracking search refers to itself; the enumerator breaks
    that cycle before it returns, so the group does not outlive its last
    reference."""
    for name, build in _FRESH.items():
        def run(group):
            enumerate_automorphisms(group).twisted_classes
            ratio_row(group, name)
        assert _freed_after(build, run), name


def test_cached_load_keeps_no_group_alive(tmp_path):
    """A warm-cache ratio row ties no reference cycle to the group on
    it: the group is freed by reference counting alone, without waiting
    for the cyclic collector."""
    for name, build in _FRESH.items():
        automorphism_group(build(), tmp_path)
        assert _freed_after(build, lambda group: ratio_row(group, name, tmp_path)), name


def test_images_at_takes_any_indices():
    """Any indices, repeated and out of order, on groups whose
    transversal of Z(G) is larger than 1 and on the trivial group."""
    for g in (builders.symmetric(4), builders.alternating(5), builders.cyclic(1),
              heisenberg27()):
        auts = enumerate_automorphisms(g)
        indices = [auts.order - 1, 0, auts.order // 2, 0, *range(0, auts.order, 7)]
        expected = _index_order_arrays(auts)
        assert auts.images_at(indices) == [expected[k] for k in indices]


def test_power_map_equals_pow():
    from cubeaut.catalog import built_in_catalog
    for name, g in built_in_catalog().groups(order_cap=64):
        for n in range(-4, 9):
            assert power_map(g, n).images == tuple(g.pow(x, n) for x in g.elements()), (name, n)


def test_order_and_max_ratio_build_no_member(tmp_path):
    from cubeaut.cubing import max_cube_ratio
    g = builders.type3_group_ii()
    for auts in (automorphism_group(g, cache_dir=tmp_path),   # enumerated
                 automorphism_group(g, cache_dir=tmp_path)):  # loaded
        assert auts.order == 2048
        max_cube_ratio(g, auts=auts)
        max_cube_ratio(g, n=2, auts=auts)
        assert "members" not in vars(auts)
