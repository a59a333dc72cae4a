import re
import time
from fractions import Fraction
from itertools import product

import pytest

from cubeaut import builders, cubing
from cubeaut.automorphisms import (
    enumerate_automorphisms,
    identity_map,
    power_map,
)
from cubeaut.catalog import built_in_catalog, frobenius20, heisenberg27, special_linear_2_3
from cubeaut.cubing import (
    HALF,
    ClassificationVerdict,
    Kind,
    Type3Decomposition,
    _index_two_subgroups,
    build_type_I,
    build_type_II,
    build_type_III,
    classify_cubing_structure,
    coset_trace,
    cube_set,
    find_type3_decomposition,
    max_cube_ratio,
)
from cubeaut.errors import (
    BadIndex,
    KNotAbelian,
    NotAbelian,
    NotASubgroup,
    NotAutomorphism,
    OrderDivisibleBy3,
    PreconditionViolated,
    XInK,
)
from cubeaut.groups import prime_divisors


# ---------------------------------------------------------------------------
# Cube sets


def test_a5_identity_ratio():
    a5 = builders.alternating(5)
    report = cube_set(a5, identity_map(a5))
    assert report.ratio == Fraction(4, 15)
    assert len(report.members) == 16  # identity plus the 15 involutions
    assert all(a5.element_orders[x] in (1, 2) for x in report.members)


def test_abelian_cube_map_full_ratio():
    for build in (lambda: builders.cyclic(5),
                  lambda: builders.direct_product(builders.cyclic(4), builders.cyclic(4))):
        g = build()
        report = cube_set(g, power_map(g, 3))
        assert report.ratio == 1


def test_cyclic3_both_automorphisms():
    z3 = builders.cyclic(3)
    ratios = {cube_set(z3, m).ratio for m in enumerate_automorphisms(z3).members}
    assert ratios == {Fraction(1, 3)}


def test_cube_set_invariants():
    g = builders.symmetric(4)
    for m in enumerate_automorphisms(g).members:
        report = cube_set(g, m)
        members = set(report.members)
        assert 0 in members
        assert all(g.inv(x) in members for x in members)


def test_cube_set_rejects_non_automorphism():
    s3 = builders.symmetric(3)
    with pytest.raises(NotAutomorphism):
        cube_set(s3, power_map(s3, 2))


def test_cube_set_rejects_map_on_another_group():
    z3 = builders.cyclic(3)
    foreign = identity_map(builders.cyclic(2))  # an automorphism, of Z2
    with pytest.raises(NotAutomorphism):
        cube_set(z3, foreign)
    with pytest.raises(NotAutomorphism):
        coset_trace(z3, foreign, z3.subgroup([0]), 0)


def test_max_ratio_rejects_another_groups_automorphisms():
    """Aut(Q8) handed in for Z8 (same order) is refused: its members are
    not automorphisms of Z8, whose true maximum is 1."""
    z8 = builders.cyclic(8)
    with pytest.raises(NotAutomorphism):
        max_cube_ratio(z8, auts=enumerate_automorphisms(builders.quaternion8()))
    assert max_cube_ratio(z8, auts=enumerate_automorphisms(z8))[0] == 1


def test_generic_power_cube_set():
    # exponent -1: fixed points of inversion-composed maps
    q8 = builders.quaternion8()
    report = cube_set(q8, identity_map(q8), n=-1)
    assert set(report.members) == {x for x in q8.elements()
                                   if q8.element_orders[x] <= 2}
    # cubing equals inversion on elements of 2-power order
    for m in enumerate_automorphisms(q8).members:
        assert cube_set(q8, m, n=3).members == \
            cube_set(q8, m, n=-1).members


@pytest.mark.parametrize("build, expected", [
    (lambda: builders.symmetric(3), Fraction(2, 3)),
    (lambda: builders.quaternion8(), Fraction(3, 4)),
    (lambda: builders.dihedral(4), Fraction(3, 4)),
    (lambda: builders.alternating(4), Fraction(1, 3)),
    (lambda: builders.cyclic(9), Fraction(1, 9)),
])
def test_max_cube_ratio(build, expected):
    ratio, witness = max_cube_ratio(build())
    assert ratio == expected
    assert witness is not None


def test_max_ratio_witness_is_lex_least():
    g = builders.cyclic(5)
    ratio, witness = max_cube_ratio(g)
    assert ratio == 1
    # the cube map is the unique maximizer here
    assert witness.images == tuple(g.pow(x, 3) for x in g.elements())


def _brute_max_ratio(group, auts, n):
    """Reference: count every member, sorted; the first strict maximum
    is the least maximizing image array."""
    targets = [group.pow(x, n) for x in group.elements()]
    best_count, best = -1, None
    for images in sorted(m.images for m in auts.members):
        count = sum(1 for x in group.elements() if images[x] == targets[x])
        if count > best_count:
            best_count, best = count, images
    return Fraction(best_count, group.order), best


def test_twisted_class_max_equals_brute_force():
    catalog = built_in_catalog()
    groups = [g for _, g in catalog.groups(order_cap=64)]
    groups += [catalog.build(name) for name in ("A5", "S5", "L2(7)", "PGL2(7)", "A6")]
    for group in groups:
        auts = enumerate_automorphisms(group)
        for n in (3, 2):
            ratio, witness = max_cube_ratio(group, n=n, auts=auts)
            assert (ratio, witness.images) == _brute_max_ratio(group, auts, n), \
                (group.name, n)


# ---------------------------------------------------------------------------
# Coset traces


def test_trace_of_x_inside_h():
    z12 = builders.cyclic(12)
    alpha = identity_map(z12)
    report = cube_set(z12, alpha)
    h = z12.subgroup_generated([6])  # {0, 6} inside T for the identity map
    assert set(h.elements) <= set(report.members)
    trace = coset_trace(z12, alpha, h, 6)
    assert trace.quotient_order == 1
    assert trace.trace == (0,)


def test_trace_contains_zero_and_coset_sizes():
    a5 = builders.alternating(5)
    alpha = identity_map(a5)
    members = cube_set(a5, alpha).members
    involution = next(x for x in members if x != 0)
    h = a5.subgroup_generated([involution])
    other = next(x for x in members if x not in set(h.elements) and x != 0)
    trace = coset_trace(a5, alpha, h, other)
    assert 0 in trace.trace
    raw = sum(1 for u in h.elements if a5.table[u][other] in set(members))
    assert raw == len(trace.trace) * trace.centralizer_order


def test_trace_precondition_errors():
    s3 = builders.symmetric(3)
    alpha = identity_map(s3)
    rotations = s3.subgroup_generated(
        [next(x for x in s3.elements() if s3.element_orders[x] == 3)])
    # the 3-cycles are not in T for the identity map
    with pytest.raises(PreconditionViolated):
        coset_trace(s3, alpha, rotations, 0)


def test_trace_refuses_a_non_cyclic_quotient():
    """H = {0, 2, 17, 23} in S4 is a Klein four-group and x = 16 an
    involution, all inside the identity map's cube set; x commutes with
    no non-identity element of H, so H / C_H(x) = H is not cyclic."""
    s4 = builders.symmetric(4)
    h = s4.subgroup((0, 2, 17, 23))
    assert not any(s4.table[u][16] == s4.table[16][u] for u in h.elements[1:])
    with pytest.raises(PreconditionViolated, match="not cyclic"):
        coset_trace(s4, identity_map(s4), h, 16)


def test_trace_on_s3_type_ii():
    s3 = builders.symmetric(3)
    verdict = classify_cubing_structure(s3)
    alpha = verdict.constructed_alpha
    members = set(cube_set(s3, alpha).members)
    reflection = next(x for x in members if s3.element_orders[x] == 2)
    trivial = s3.subgroup([0])
    trace = coset_trace(s3, alpha, trivial, reflection)
    assert trace.trace == (0,)
    assert trace.quotient_order == 1


# ---------------------------------------------------------------------------
# Constructors


def test_type_i():
    z5 = builders.cyclic(5)
    alpha = build_type_I(z5)
    assert cube_set(z5, alpha).ratio == 1
    trivial = builders.cyclic(1)
    assert cube_set(trivial, build_type_I(trivial)).ratio == 1
    with pytest.raises(OrderDivisibleBy3):
        build_type_I(builders.cyclic(6))
    with pytest.raises(NotAbelian):
        build_type_I(builders.symmetric(3))


def test_type_ii_on_s3():
    s3 = builders.symmetric(3)
    k = s3.subgroup_generated(
        [next(x for x in s3.elements() if s3.element_orders[x] == 3)])
    x = next(g for g in s3.elements() if g not in k)
    alpha, ratio = build_type_II(s3, k, x)
    assert ratio == Fraction(2, 3)
    report = cube_set(s3, alpha)
    assert report.ratio == ratio
    expected = {s3.table[kk][x] for kk in k.elements} | {0}
    assert set(report.members) == expected


def test_type_ii_on_d5():
    # order 10, coprime to 3: abelian index-2 subgroup suffices
    d5 = builders.dihedral(5)
    k = d5.subgroup_generated([1])
    x = 5
    alpha, ratio = build_type_II(d5, k, x)
    assert ratio == Fraction(3, 5)  # n = (K : C_K(x)) = 5


def test_type_ii_errors():
    s3 = builders.symmetric(3)
    k = s3.subgroup_generated(
        [next(x for x in s3.elements() if s3.element_orders[x] == 3)])
    with pytest.raises(XInK):
        build_type_II(s3, k, k.elements[1])
    with pytest.raises(BadIndex):
        build_type_II(s3, s3.subgroup([0]), 1)
    d6 = builders.dihedral(6)
    nonabelian = d6.subgroup_generated([2, 6])  # S3 inside D6
    assert nonabelian.order == 6
    with pytest.raises(KNotAbelian):
        build_type_II(d6, nonabelian, 1)


@pytest.mark.parametrize("bad", [True, 1.0, 6, -1])
def test_coset_trace_and_type_ii_refuse_non_indices(bad):
    """x is an int naming an element: True is not taken for element 1."""
    s3 = builders.symmetric(3)
    a3 = s3.subgroup_generated([next(x for x in s3.elements() if s3.element_orders[x] == 3)])
    pattern = f"^{re.escape(repr(bad))} is not an element"
    with pytest.raises(NotASubgroup, match=pattern):
        coset_trace(s3, identity_map(s3), a3, bad)
    with pytest.raises(NotASubgroup, match=pattern):
        build_type_II(s3, a3, bad)


def test_type_ii_center_condition():
    # Z3 x S3: the Sylow 3-subgroup meets the center, so no construction
    g = builders.direct_product(builders.cyclic(3), builders.symmetric(3))
    verdict = classify_cubing_structure(g)
    assert verdict.kind == Kind.NONE
    ratio, _ = max_cube_ratio(g)
    assert ratio <= HALF


def test_type_iii_constructions():
    for build, k, expected in [
        (lambda: builders.type3_group_i(1), 1, Fraction(3, 4)),
        (lambda: builders.type3_group_i(2), 2, Fraction(5, 8)),
        (lambda: builders.type3_group_i(3), 3, Fraction(9, 16)),
    ]:
        g = build()
        dec, reason = find_type3_decomposition(g)
        assert dec is not None, reason
        assert dec.shape == "i"
        assert len(dec.x_elements) == k
        alpha, ratio = build_type_III(g, dec)
        assert ratio == expected
        assert cube_set(g, alpha).ratio == expected


def test_type_iii_shape_ii_exact_ratio():
    g = builders.type3_group_ii()
    dec, reason = find_type3_decomposition(g)
    assert dec is not None, reason
    assert dec.shape == "ii"
    alpha, ratio = build_type_III(g, dec)
    # measured exactly, and exhaustively maximal over Aut(G)
    assert ratio == Fraction(9, 16)
    brute, _ = max_cube_ratio(g)
    assert brute == ratio


def test_find_decomposition_on_q8():
    dec, _ = find_type3_decomposition(builders.quaternion8())
    assert dec is not None
    assert dec.shape == "i"
    assert len(dec.x_elements) == 1


def test_find_decomposition_rejects_elementary_abelian():
    g = builders.direct_product(
        builders.direct_product(builders.cyclic(2), builders.cyclic(2)),
        builders.cyclic(2))
    dec, reason = find_type3_decomposition(g)
    assert dec is None
    assert "abelian" in reason


def test_find_decomposition_rejects_class_three():
    dec, reason = find_type3_decomposition(builders.dihedral(8))
    assert dec is None


def test_find_decomposition_on_g_with_a_central_odd_part():
    """Z5 x D4 is split on its own table (shape (i), ratio 3/4); a class-2
    group whose squares are not central, Heisenberg 27, is refused."""
    g = builders.direct_product(builders.cyclic(5), builders.dihedral(4))
    dec, reason = find_type3_decomposition(g)
    assert dec is not None and dec.shape == "i", reason
    alpha, ratio = build_type_III(g, dec)
    assert ratio == Fraction(3, 4) == cube_set(g, alpha).ratio
    dec, reason = find_type3_decomposition(heisenberg27())
    assert dec is None and reason == "central quotient is not elementary abelian"


def test_type_iii_validates_order():
    with pytest.raises(OrderDivisibleBy3):
        build_type_III(builders.direct_product(builders.cyclic(3), builders.quaternion8()),
                       Type3Decomposition("i", (), (), ()))


# ---------------------------------------------------------------------------
# Classification


@pytest.mark.parametrize("build, kind, ratio", [
    (lambda: builders.cyclic(5), Kind.TYPE_I, Fraction(1)),
    (lambda: builders.cyclic(1), Kind.TYPE_I, Fraction(1)),
    (lambda: builders.cyclic(9), Kind.NONE, None),
    (lambda: builders.symmetric(3), Kind.TYPE_II, Fraction(2, 3)),
    (lambda: builders.dihedral(4), Kind.TYPE_III_I, Fraction(3, 4)),
    (lambda: builders.dihedral(8), Kind.TYPE_II, Fraction(5, 8)),
    (lambda: builders.dihedral(9), Kind.TYPE_II, Fraction(5, 9)),
    (lambda: builders.quaternion8(), Kind.TYPE_III_I, Fraction(3, 4)),
    (lambda: builders.alternating(4), Kind.NONE, None),
    (lambda: builders.symmetric(4), Kind.NONE, None),
    (lambda: builders.type3_group_i(2), Kind.TYPE_III_I, Fraction(5, 8)),
    (lambda: builders.type3_group_ii(), Kind.TYPE_III_II, Fraction(9, 16)),
    (lambda: heisenberg27(), Kind.NONE, None),
    (lambda: special_linear_2_3(), Kind.NONE, None),
    (lambda: frobenius20(), Kind.NONE, None),
])
def test_classification(build, kind, ratio):
    verdict = classify_cubing_structure(build())
    assert verdict.kind == kind
    assert verdict.predicted_ratio == ratio
    if kind != Kind.NONE:
        assert verdict.constructed_alpha is not None


def test_classification_equivalence_on_slice():
    groups = [builders.cyclic(n) for n in range(1, 16)]
    groups += [builders.dihedral(n) for n in range(3, 8)]
    groups += [builders.quaternion8(), builders.alternating(4),
               builders.symmetric(4), builders.type3_group_i(1)]
    for g in groups:
        verdict = classify_cubing_structure(g)
        brute, _ = max_cube_ratio(g)
        assert (verdict.kind != Kind.NONE) == (brute > HALF), g.name
        if verdict.kind != Kind.NONE:
            assert verdict.predicted_ratio == brute, g.name


def _product(*factors):
    group = factors[0]
    for factor in factors[1:]:
        group = builders.direct_product(group, factor)
    return group


# Products whose odd part is central, not central, or meets the center in
# a 3-element, next to the catalog's own products.
PRODUCTS = [
    lambda: _product(builders.dihedral(4), builders.cyclic(5)),
    lambda: _product(builders.quaternion8(), builders.cyclic(7)),
    lambda: _product(builders.cyclic(5), builders.type3_group_ii()),
    lambda: _product(builders.type3_group_ii(), builders.cyclic(5)),
    lambda: _product(builders.type3_group_i(2), builders.cyclic(7)),
    lambda: _product(builders.dihedral(4), builders.cyclic(3)),
    lambda: _product(builders.symmetric(3), *[builders.cyclic(2)] * 3),
    lambda: _product(builders.dihedral(5), builders.cyclic(5)),
    lambda: _product(builders.dihedral(4), builders.dihedral(5)),
    lambda: _product(builders.quaternion8(), builders.cyclic(5), builders.cyclic(5)),
    lambda: _product(builders.dihedral(7), builders.cyclic(3)),
    lambda: _product(builders.cyclic(9), builders.symmetric(3)),
]


def _classification_groups():
    yield from built_in_catalog().groups()
    for build in PRODUCTS:
        group = build()
        yield group.name, group


def old_sylow_block(group, k_sub):
    """The Sylow checks ``build_type_II`` made before they were read off
    |Z(G)|: the Sylow 3-subgroup is normal, inside K and meets the
    center trivially."""
    sylow3 = group.sylow(3)
    return (group.is_normal(sylow3) and all(s in k_sub for s in sylow3.elements)
            and not any(s != 0 and s in group.center for s in sylow3.elements))


def old_classify(group):
    """The classifier as it was before Type III ran on G's own table:
    class 2 with abelian odd Sylows, the Sylow 2-subgroup split on its
    own table and mapped back; Type II tried on every abelian K under
    the full Sylow block."""
    if group.is_abelian:
        return classify_cubing_structure(group)
    if group.order % 3 and group.nilpotency_class == 2 and all(
            group.sylow(p).is_abelian for p in prime_divisors(group.order) if p != 2):
        s2grp, embed = group.sylow(2).as_group()
        dec, _ = find_type3_decomposition(s2grp)
        if dec is not None:
            mapped = Type3Decomposition(dec.shape, *(
                tuple(embed[e] for e in part)
                for part in (dec.a_elements, dec.x_elements, dec.z_elements)))
            alpha, ratio = build_type_III(group, mapped)
            kind = Kind.TYPE_III_I if mapped.shape == "i" else Kind.TYPE_III_II
            witnesses = {"a_elements": mapped.a_elements, "x_elements": mapped.x_elements,
                         "z_elements": mapped.z_elements, "center": group.center}
            return ClassificationVerdict(
                kind, witnesses, alpha, ratio,
                f"class 2 with shape ({mapped.shape}) Sylow 2-subgroup")
    for k_sub in _index_two_subgroups(group):
        if k_sub.is_abelian and old_sylow_block(group, k_sub):
            x = next(g for g in group.elements() if g not in k_sub)
            alpha, ratio = build_type_II(group, k_sub, x)
            return ClassificationVerdict(
                Kind.TYPE_II, {"K": k_sub, "S": group.sylow(3), "x": x}, alpha, ratio,
                "abelian subgroup of index 2 with the Sylow conditions")
    return ClassificationVerdict(Kind.NONE, {}, None, None, "no structure matched")


def test_classification_equals_sylow_route():
    """Every distinct catalog group and the products above: the same
    verdict, witnesses and constructed map as the Sylow route."""
    for name, group in _classification_groups():
        got, want = classify_cubing_structure(group), old_classify(group)
        assert got.to_json() == want.to_json(), name
        assert (got.constructed_alpha is None) == (want.constructed_alpha is None), name
        if got.constructed_alpha is not None:
            assert got.constructed_alpha.images == want.constructed_alpha.images, name


def test_sylow_block_passes_exactly_when_3_misses_the_center():
    """For an abelian K of index 2, K's 3-part is a normal Sylow
    3-subgroup inside K: of the three Sylow checks only the center one
    can fail, and it fails exactly when 3 divides |Z(G)|."""
    seen = set()
    for name, group in _classification_groups():
        for k_sub in _index_two_subgroups(group):
            if k_sub.is_abelian:
                passes = old_sylow_block(group, k_sub)
                assert passes == (group.center.order % 3 != 0), name
                seen.add(passes)
    assert seen == {False, True}


def test_classification_builds_no_table(tables_built):
    """Type III runs on G's own table: no Sylow 2-subgroup table, and
    no other table, is built for any catalog group of order <= 64."""
    groups = [g for _, g in built_in_catalog().groups(order_cap=64)]
    tables_built.clear()
    for group in groups:
        classify_cubing_structure(group)
    assert tables_built == []


def old_abelian_basis(group):
    """Independent generators b_1..b_k with G = <b_1> x ... x <b_k>:
    repeatedly a maximal-order element of the remaining quotient, lifted
    to an element of equal order."""
    basis = []
    while True:
        span = group.subgroup_generated(basis)
        if span.order == group.order:
            return basis
        qgrp, proj = group.quotient(span)
        best = max(qgrp.elements(), key=lambda c: (qgrp.element_order(c), -c))
        target = qgrp.element_order(best)
        lift = next(g for g in group.elements()
                    if proj[g] == best and group.element_orders[g] == target)
        basis.append(lift)


def old_element_vector_table(group, basis):
    """Each element's exponent vector over ``basis``."""
    vectors = {0: tuple(0 for _ in basis)}
    for coords in product(*(range(group.element_orders[b]) for b in basis)):
        g = 0
        for b, e in zip(basis, coords):
            g = group.table[g][group.pow(b, e)]
        vectors.setdefault(g, coords)
    return vectors


def old_index_two_subgroups(group):
    """The index-2 subgroups as preimages of the hyperplanes of the
    quotient table G / (G' G^2): the reference for the coordinate
    labelling of ``_index_two_subgroups``."""
    squares = [group.table[g][g] for g in group.generating_set]
    m_sub = group.subgroup_generated(list(group.derived_subgroup.generators) + squares)
    if m_sub.order == group.order:
        return []
    egrp, proj = group.quotient(m_sub)
    basis = old_abelian_basis(egrp)
    vectors = old_element_vector_table(egrp, basis)
    subs = []
    for functional in product((0, 1), repeat=len(basis)):
        if not any(functional):
            continue
        kernel = {c for c in egrp.elements()
                  if sum(f * v for f, v in zip(functional, vectors[c])) % 2 == 0}
        subs.append(group.subgroup(sorted(g for g in group.elements() if proj[g] in kernel)))
    subs.sort(key=lambda s: s.elements)
    return subs


def test_index_two_subgroups_equal_quotient_route():
    """Every distinct catalog group (orders up to 2184): the same index-2
    subgroups, in the same order, as the quotient-table reference."""
    found = 0
    for name, group in built_in_catalog().groups():
        got = [s.elements for s in _index_two_subgroups(group)]
        assert got == [s.elements for s in old_index_two_subgroups(group)], name
        found += len(got)
    assert found > 0


def test_index_two_subgroups_build_no_table(tables_built):
    groups = [g for _, g in built_in_catalog().groups(order_cap=64) if not g.is_abelian]
    tables_built.clear()
    for group in groups:
        _index_two_subgroups(group)
    assert tables_built == []


def test_index_two_subgroups_of_a_large_elementary_2_part():
    """S3 x Z2^7 (order 768) has G / G'G^2 = Z2^8, so 255 subgroups of
    index 2, though its normal subgroups number in the hundreds of
    thousands. Each is the kernel of a map onto Z2, checked on products
    with the generators; the bound is far above the few tens of
    milliseconds the labelling takes and far below a lattice walk."""
    group = builders.symmetric(3)
    for _ in range(7):
        group = builders.direct_product(group, builders.cyclic(2))
    start = time.perf_counter()
    subs = _index_two_subgroups(group)
    assert time.perf_counter() - start < 5.0
    assert len({s.elements for s in subs}) == len(subs) == 255
    for s in subs:
        assert 2 * s.order == group.order
        assert all((group.table[x][g] in s) == ((x in s) == (g in s))
                   for x in group.elements() for g in group.generating_set)


@pytest.mark.parametrize("error", [BadIndex, KNotAbelian, XInK])
def test_type_ii_search_raises_non_sylow_refusals(monkeypatch, error):
    """Only a Sylow refusal moves the search to the next K; any other
    refusal of a K it chose is a bug and surfaces."""
    def refuse(group, k_sub, x):
        raise error("refused")

    monkeypatch.setattr(cubing, "build_type_II", refuse)
    with pytest.raises(error):
        classify_cubing_structure(builders.symmetric(3))


def test_verdict_json():
    verdict = classify_cubing_structure(builders.symmetric(3))
    payload = verdict.to_json()
    assert payload["kind"] == "TypeII"
    assert payload["predicted_ratio"] == {"num": 2, "den": 3}
    assert "K" in payload["witnesses"]


def test_relabeling_invariance():
    """Conjugating the table by a permutation fixing 0 must not change
    the automorphism count, the maximum ratio, or the verdict kind."""
    import random
    from cubeaut.groups import from_cayley_table

    rng = random.Random(99)
    for build in (lambda: builders.symmetric(3), lambda: builders.dihedral(4),
                  lambda: builders.cyclic(10), lambda: builders.quaternion8()):
        g = build()
        n = g.order
        sigma = [0] + rng.sample(range(1, n), n - 1)
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[sigma[a]][sigma[b]] = sigma[g.table[a][b]]
        relabeled = from_cayley_table(table)
        assert enumerate_automorphisms(relabeled).order == \
            enumerate_automorphisms(g).order
        assert max_cube_ratio(relabeled)[0] == max_cube_ratio(g)[0]
        assert classify_cubing_structure(relabeled).kind == classify_cubing_structure(g).kind


def test_symplectic_split_projects_on_relabeled_t3i2():
    """T3i(2) as built never needs the projection step of
    ``_split_symplectic`` (a basis vector moved into the orthogonal
    complement of a hyperbolic plane). Copies relabeled by seeded
    permutations fixing 0 do: over seeds 0..11 both projections run, and
    every copy still classifies as shape (i) with constructed ratio 5/8."""
    import inspect
    import random
    import sys
    from cubeaut.groups import from_cayley_table

    lines = inspect.getsource(cubing._split_symplectic).splitlines()
    first = cubing._split_symplectic.__code__.co_firstlineno
    projections = {first + i for i, line in enumerate(lines) if "w = group.table[w]" in line}
    assert len(projections) == 2
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code is not cubing._split_symplectic.__code__:
            return None

        def lines_of(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return lines_of
        return lines_of

    g = builders.type3_group_i(2)
    n = g.order
    for seed in range(12):
        rng = random.Random(seed)
        sigma = [0] + rng.sample(range(1, n), n - 1)
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[sigma[a]][sigma[b]] = sigma[g.table[a][b]]
        relabeled = from_cayley_table(table)
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            verdict = classify_cubing_structure(relabeled)
        finally:
            sys.settrace(previous)
        assert verdict.kind == Kind.TYPE_III_I, seed
        assert verdict.predicted_ratio == Fraction(5, 8), seed
        assert cube_set(relabeled, verdict.constructed_alpha).ratio == Fraction(5, 8), seed
    assert projections <= ran


def test_quotient_ratio_inequality_instances():
    # the cube ratio of the group never beats an invariant factor group
    from cubeaut.automorphisms import induced_on_quotient
    s3 = builders.symmetric(3)
    verdict = classify_cubing_structure(s3)
    alpha = verdict.constructed_alpha
    sylow3 = s3.sylow(3)
    assert {alpha.images[x] for x in sylow3.elements} == set(sylow3.elements)
    induced = induced_on_quotient(alpha, sylow3)
    whole = cube_set(s3, alpha).ratio
    factor = cube_set(induced.source, induced).ratio
    assert whole <= factor
    assert factor == 1
