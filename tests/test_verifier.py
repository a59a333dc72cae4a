import json
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cubeaut import builders, verifier
from cubeaut.automorphisms import (
    AutomorphismGroup,
    GroupMap,
    enumerate_automorphisms,
    identity_map,
    induced_on_quotient,
    power_map,
)
from cubeaut.catalog import Catalog, CatalogEntry, build_named_group, built_in_catalog
from cubeaut.cubing import classify_cubing_structure, coset_trace, cube_set
from cubeaut.errors import (
    InternalCheckFailed,
    NotAutomorphism,
    NotInvariant,
    NotNormal,
    UnsupportedParameter,
)
from cubeaut.verifier import (
    BOUNDARY_GROUPS,
    CHECK_IDS,
    PATTERN_IDS,
    GroupContext,
    check_property,
    check_quotient_inequality,
    pattern_walk,
    power_pattern_search,
    revalidate,
    verify_properties,
    verify_solvability_boundary,
    verify_abelian_indices,
    verify_classification,
    _check_cyclic_cosets,
    _cube_members,
    _run_all_checks,
    CheckReport,
)
from cubeaut.sfs import DEFAULT_EQUATIONS, find_nontrivial_solution


# ---------------------------------------------------------------------------
# Single-instance checks


def test_quotient_inequality_whole_group():
    g = builders.symmetric(3)
    whole = g.subgroup(range(6))
    report = check_quotient_inequality(g, identity_map(g), whole)
    assert report.instances == 1
    assert not report.failures


def test_quotient_inequality_s3_sylow():
    g = builders.symmetric(3)
    alpha = classify_cubing_structure(g).constructed_alpha
    report = check_quotient_inequality(g, alpha, g.sylow(3))
    assert not report.failures


def test_quotient_inequality_scans_all_normals():
    g = builders.type3_group_i(1)
    alpha = classify_cubing_structure(g).constructed_alpha
    report = check_property(g, alpha, "quotient_ratio_monotone")
    assert report.instances >= 3  # at least trivial, center, whole group
    assert not report.failures


def test_quotient_monotone_count_equals_quotient_table(monkeypatch):
    """With every element passed as cubed, the scan records each invariant
    N whose cubed-coset count is below |G/N|, with that count; it must equal
    the count read from the quotient table, cubing in G/N."""
    recorded, below = [], 0
    monkeypatch.setattr(verifier, "_record",
                        lambda acc, ctx, img, check, witness: recorded.append(witness))
    for name, group in built_in_catalog().groups(order_cap=24):
        ctx = GroupContext(group, name)
        everything = list(group.elements())
        quotients = []
        for sub in group.normal_subgroups:
            qgrp, proj = group.quotient(sub)
            reps = {}
            for g in group.elements():
                reps.setdefault(proj[g], g)
            quotients.append((sub, qgrp, proj, reps))
        for alpha in enumerate_automorphisms(group).members:
            img = alpha.images
            recorded.clear()
            acc = CheckReport("quotient_ratio_monotone")
            verifier._check_quotient_monotone(ctx, img, everything, None,
                                              {"quotient_ratio_monotone": acc})
            below += len(recorded)
            counts = {tuple(w["normal"]): w["quotient_cube_count"] for w in recorded}
            invariant = 0
            for sub, qgrp, proj, reps in quotients:
                if {img[x] for x in sub.elements} != set(sub.elements):
                    continue
                invariant += 1
                expected = sum(1 for c in qgrp.elements()
                               if proj[img[reps[c]]] == qgrp.pow(c, 3))
                assert counts.get(sub.elements, qgrp.order) == expected, name
            assert acc.instances == invariant, name
    assert below > 0


def old_check_coset_bound(ctx, img, members, mask, accs):
    """The coset-bound check with its own bytearray walk over the right
    cosets Hg, representative min(Hg): the reference for the walk
    through ``FiniteGroup.right_cosets``."""
    acc = accs["coset_bound_half"]
    group = ctx.group
    n = group.order
    if 2 * len(members) <= n or len(members) > 40:
        acc.skipped += 1
        return
    h_set = verifier._max_subgroup_inside(group, members, mask)
    h_elems = sorted(h_set)
    t = group.table
    for x in members:
        if x in h_set:
            continue
        acc.instances += 1
        hit = sum(1 for u in h_elems if (mask >> t[u][x]) & 1)
        if 2 * hit > len(h_elems):
            verifier._record(acc, ctx, img, "coset_bound_half",
                             {"subgroup": h_elems, "x": x, "intersection": hit})
    seen = bytearray(n)
    for g in range(n):
        if seen[g]:
            continue
        coset = [t[u][g] for u in h_elems]
        for y in coset:
            seen[y] = 1
        acc.instances += 1
        if not any((mask >> y) & 1 for y in coset):
            verifier._record(acc, ctx, img, "coset_bound_half",
                             {"subgroup": h_elems, "coset_rep": min(coset)})


def coset_bound_runs(ctx, img, members):
    """(instances, skipped, failures) of the new and the reference check."""
    runs = []
    for checker in (verifier._check_coset_bound, old_check_coset_bound):
        acc = CheckReport("coset_bound_half")
        checker(ctx, img, members, verifier._mask_of(members), {"coset_bound_half": acc})
        runs.append((acc.instances, acc.skipped, acc.failures))
    return runs


def test_coset_bound_walk_equals_old_walk():
    """Over the exhaustive pairs (catalog groups of order <= 24), the walk
    through ``right_cosets`` does the reference's work and records the
    same witnesses."""
    pairs = skipped = 0
    for name, group in built_in_catalog().groups(order_cap=24):
        ctx = GroupContext(group, name)
        for alpha in enumerate_automorphisms(group).members:
            members, _ = _cube_members(alpha.images, ctx.powers[3])
            new, old = coset_bound_runs(ctx, alpha.images, members)
            assert new == old, name
            pairs += 1
            skipped += new[1]
    assert pairs == 1908
    assert 0 < skipped < pairs


def test_coset_bound_records_equal_old_on_synthetic_members(monkeypatch):
    """Member sets drawn at random, so that whole cosets of H miss them:
    with ``_record`` accepting every witness, the coset representatives
    and the failure order equal the reference's."""
    monkeypatch.setattr(verifier, "_record",
                        lambda acc, ctx, img, check, witness: acc.failures.append(witness))
    rng = random.Random(24)
    coset_misses = 0
    for name, group in built_in_catalog().groups(order_cap=24):
        ctx = GroupContext(group, name)
        n = group.order
        for _ in range(6):
            size = rng.randint(n // 2 + 1, n)
            members = [0, *sorted(rng.sample(range(1, n), size - 1))]
            new, old = coset_bound_runs(ctx, None, members)
            assert new == old, (name, members)
            coset_misses += sum("coset_rep" in w for w in new[2])
    assert coset_misses > 0


def test_single_normal_check_equals_quotient_table():
    """check_quotient_inequality on one N fails exactly when the cube
    ratio of G exceeds that of the induced map on the quotient table G/N,
    over every alpha and every alpha-invariant normal N of the catalog
    groups of order <= 24."""
    checked = 0
    for name, group in built_in_catalog().groups(order_cap=24):
        for alpha in enumerate_automorphisms(group).members:
            whole = cube_set(group, alpha).ratio
            for sub in group.normal_subgroups:
                if {alpha(x) for x in sub.elements} != set(sub.elements):
                    continue
                induced = induced_on_quotient(alpha, sub)
                factor = cube_set(induced.source, induced).ratio
                report = check_quotient_inequality(group, alpha, sub)
                assert report.instances == 1, name
                assert bool(report.failures) == (whole > factor), name
                assert report.scope == {"group": group.name, "normal": list(sub.elements)}
                checked += 1
    assert checked > 1908  # more than one N per exhaustive pair


def test_quotient_revalidation_refuses_every_normal_subgroup():
    """The lemma holds, so revalidate accepts no (alpha, N) as a
    quotient counterexample: every alpha and every normal N, invariant
    or not, of the catalog groups of order <= 24. N = 1 gives G/N = G
    with an equal ratio, so a non-strict comparison would fail here."""
    triples = 0
    for name, group in built_in_catalog().groups(order_cap=24):
        normals = [list(sub.elements) for sub in group.normal_subgroups]
        for alpha in enumerate_automorphisms(group).members:
            for normal in normals:
                assert not revalidate(group, alpha.images, "quotient_ratio_monotone",
                                      {"normal": normal}), (name, alpha.images, normal)
                triples += 1
    assert triples == 17057


def test_record_raises_on_a_quotient_witness_that_does_not_revalidate():
    """A false quotient failure (S3's Type II alpha and N = A3, where
    G/N has ratio 1) aborts the scan instead of entering the report."""
    g = builders.symmetric(3)
    alpha = classify_cubing_structure(g).constructed_alpha
    acc = CheckReport("quotient_ratio_monotone")
    witness = {"normal": list(g.derived_subgroup.elements), "quotient_cube_count": 2}
    with pytest.raises(InternalCheckFailed, match="non-revalidating"):
        verifier._record(acc, GroupContext(g, "S3"), alpha.images,
                         "quotient_ratio_monotone", witness)
    assert acc.failures == []


@pytest.mark.parametrize("normal", [[0, 2], [0, 1]], ids=["not normal", "not a subgroup"])
def test_quotient_revalidation_refuses_a_witness_that_is_no_normal_subgroup(normal):
    """In S3, {0, 2} is a subgroup of order 2 that is not normal, and
    {0, 1} (1 has order 3) is no subgroup: the re-check returns False,
    so ``_record`` names the witness as non-revalidating."""
    g = builders.symmetric(3)
    img = identity_map(g).images
    assert not revalidate(g, img, "quotient_ratio_monotone", {"normal": normal})
    acc = CheckReport("quotient_ratio_monotone")
    with pytest.raises(InternalCheckFailed, match="non-revalidating"):
        verifier._record(acc, GroupContext(g, "S3"), img, "quotient_ratio_monotone",
                         {"normal": normal, "quotient_cube_count": 0})
    assert acc.failures == []


@pytest.mark.parametrize("fault", ["not normal", "not invariant", "not automorphism"])
@pytest.mark.parametrize("build", [lambda: builders.symmetric(3),
                                   lambda: builders.symmetric(4)], ids=["S3", "S4"])
def test_single_normal_check_refuses_each_fault(build, fault):
    g = build()
    derived = g.derived_subgroup  # A3 or A4, characteristic
    a = next(x for x in g.elements() if x not in derived)
    c = next(x for x in derived.elements if x)
    images = list(g.elements())
    images[a], images[c] = c, a
    swap = GroupMap(g, g, tuple(images))  # moves the derived subgroup: no automorphism
    alpha, normal, error = {
        "not normal": (identity_map(g), g.sylow(2), NotNormal),
        "not invariant": (swap, derived, NotInvariant),
        "not automorphism": (swap, g.subgroup(g.elements()), NotAutomorphism),
    }[fault]
    with pytest.raises(error):
        check_quotient_inequality(g, alpha, normal)


def test_normal_cosets_and_sylow_build_no_table(tables_built):
    catalog_groups = [group for _, group in built_in_catalog().groups(order_cap=60)]
    tables_built.clear()
    for group in catalog_groups:
        GroupContext(group, group.name).normal_cosets
        for p in range(2, group.order + 1):
            if group.order % p == 0 and all(p % d for d in range(2, p)):
                group.sylow(p)
    assert tables_built == []


def test_centralizer_cube_check():
    for build in (lambda: builders.symmetric(4), lambda: builders.alternating(5)):
        g = build()
        report = check_property(g, identity_map(g), "cube_centralizer")
        assert report.instances > 0
        assert not report.failures


def test_pattern_checks_pass_on_catalog_samples():
    for build in (lambda: builders.alternating(5), lambda: builders.dihedral(6)):
        g = build()
        alpha = identity_map(g)
        for check in PATTERN_IDS:
            report = check_property(g, alpha, check)
            assert not report.failures


def old_check_patterns(ctx, img, members, mask, accs):
    """The former pattern loop, with the five fourth elements written
    out by hand: the reference for ``pattern_walk`` over ``PATTERNS``."""
    group = ctx.group
    t = group.table
    for a in members:
        inv_a, sq_a, cu_a = group.inv(a), t[a][a], group.pow(a, 3)
        for b in members:
            if not (mask >> t[a][b]) & 1:
                continue
            commutes = group.commutator(a, b) == 0
            fourth = (t[b][a], t[inv_a][b], t[group.inv(sq_a)][b], t[sq_a][b], t[cu_a][b])
            for name, d in zip(PATTERN_IDS, fourth):
                if (mask >> d) & 1:
                    accs[name].instances += 1
                    if not commutes:
                        verifier._record(accs[name], ctx, img, name, {"a": a, "b": b})


def old_pattern_witness(group, members, mask, power_n):
    """The former search walk: the first non-commuting (a, b) with ab
    and a^n b members, and the count of such pairs, commuting or not."""
    t = group.table
    pairs, witness = 0, None
    for a in members:
        for b in members:
            if (mask >> t[a][b]) & 1 and (mask >> t[power_n[a]][b]) & 1:
                pairs += 1
                if witness is None and group.commutator(a, b) != 0:
                    witness = (a, b)
    return witness, pairs


def walks_equal_old_loops(ctx, img, members, mask, powers):
    """Asserts that the scan's walk over ``PATTERNS`` records what the old
    loop recorded, and that the walk with one table x -> x^n finds the
    old search's first witness and count for each table of ``powers``.
    Returns the scan's five pattern reports."""
    new = {check: CheckReport(check) for check in PATTERN_IDS}
    old = {check: CheckReport(check) for check in PATTERN_IDS}
    verifier._check_patterns(ctx, img, members, mask, new)
    old_check_patterns(ctx, img, members, mask, old)
    for check in PATTERN_IDS:
        assert ((new[check].instances, new[check].failures)
                == (old[check].instances, old[check].failures)), (ctx.name, check)
    for n, power_n in powers.items():
        (pairs,), (found,) = pattern_walk(ctx.group, members, mask, (power_n,))
        assert ((found[0] if found else None), pairs) \
            == old_pattern_witness(ctx.group, members, mask, power_n), (ctx.name, n)
    return new


def test_pattern_walk_equals_old_loops_on_synthetic_members(monkeypatch):
    """Member sets drawn at random, so that ab, ba and the a^n b differ
    in membership for non-commuting pairs: with ``_record`` accepting
    every witness, the walks equal the old loops for n = -4..8, and on
    some draws the five patterns list different pairs."""
    monkeypatch.setattr(verifier, "_record",
                        lambda acc, ctx, img, check, witness: acc.failures.append(witness))
    rng = random.Random(28)
    split = 0  # draws on which the patterns list different pairs
    for name, group in built_in_catalog().groups(order_cap=24):
        ctx = GroupContext(group, name)
        powers = {n: power_map(group, n).images for n in range(-4, 9)}
        for _ in range(4):
            members = sorted(rng.sample(range(group.order), rng.randint(1, group.order)))
            new = walks_equal_old_loops(ctx, None, members, verifier._mask_of(members), powers)
            split += len({tuple(map(str, new[c].failures)) for c in PATTERN_IDS}) > 1
    assert split > 0


def test_pattern_walk_equals_old_loops():
    """Over every member of the catalog groups of order <= 24, plus
    x -> x^3 on S3, S4 and A4 (not automorphisms, under which every
    element is cubed and the patterns fail): the walks equal the old
    loops for n = -4..8."""
    failures = 0
    for name, group, arrays in _catalog_maps_and_cubing(
            builders.symmetric(3), builders.symmetric(4), builders.alternating(4)):
        ctx = GroupContext(group, name)
        powers = {n: power_map(group, n).images for n in range(-4, 9)}
        for img in arrays:
            members, mask = _cube_members(img, ctx.powers[3])
            new = walks_equal_old_loops(ctx, img, members, mask, powers)
            failures += sum(len(report.failures) for report in new.values())
    assert failures > 0


def test_pattern_instances_counted_on_abelian():
    g = builders.cyclic(8)
    report = check_property(g, power_map(g, 3), "pattern_abba")
    # the whole group is cubed, so every ordered pair is an instance
    assert report.instances == 64
    assert not report.failures


def test_eltwoab_check():
    g = builders.symmetric(3)
    alpha = classify_cubing_structure(g).constructed_alpha
    report = check_property(g, alpha, "elementary_two_coset")
    assert report.instances > 0
    assert not report.failures


def test_trace_avoidance_public_op():
    a5 = builders.alternating(5)
    report = check_property(a5, identity_map(a5), "trace_avoidance")
    assert report.instances > 0
    assert not report.failures


def test_trace_avoidance_fast_path_matches_coset_trace():
    """The scan's cyclic-residue path agrees with coset_trace on every
    automorphism of every catalog group of order <= 24: the same
    modulus, centralizer order and residues for every (H, x)."""
    pairs = traces = 0
    for name, group in built_in_catalog().groups(order_cap=24):
        ctx = GroupContext(group, name)
        for alpha in enumerate_automorphisms(group).members:
            members, mask = _cube_members(alpha.images, ctx.powers[3])
            for sub_mask, powers in ctx.cyclic_subgroups:
                if sub_mask & ~mask:
                    continue
                sub = group.subgroup(sorted(powers))
                for x in members:
                    cent = (sub_mask & group.commuting_masks[x]).bit_count()
                    m = len(powers) // cent
                    residues = sorted({k % m for k, h in enumerate(powers)
                                       if (mask >> group.table[h][x]) & 1})
                    trace = coset_trace(group, alpha, sub, x)
                    assert (trace.quotient_order, trace.centralizer_order,
                            list(trace.trace)) == (m, cent, residues), (name, powers, x)
                    traces += 1
            pairs += 1
    assert (pairs, traces) == (1908, 18921)


def test_trace_avoidance_public_op_is_the_scan():
    """check_property is the scan on one pair: for every check id it
    records the instances, failures and skipped count of _run_all_checks,
    over every automorphism of the catalog groups of order <= 12."""
    pairs = 0
    totals = {check: [0, 0] for check in CHECK_IDS}  # instances, skipped
    for name, group in built_in_catalog().groups(order_cap=12):
        for alpha in enumerate_automorphisms(group).members:
            accs = {check: CheckReport(check) for check in CHECK_IDS}
            _run_all_checks(GroupContext(group, group.name or "group"), alpha.images, accs)
            for check in CHECK_IDS:
                report = check_property(group, alpha, check)
                scan = accs[check]
                assert ((report.instances, report.failures, report.skipped)
                        == (scan.instances, scan.failures, scan.skipped)), (name, check)
                totals[check][0] += report.instances
                totals[check][1] += report.skipped
            pairs += 1
    assert pairs == 414
    assert all(instances for instances, _ in totals.values()), totals
    assert totals["coset_bound_half"][1] > 0


def _unmemoized_trace_avoidance(ctx, img, members, mask, acc):
    """The trace scan with one solver call per (trace, equation) pair."""
    t = ctx.group.table
    for sub_mask, powers in ctx.cyclic_subgroups:
        if sub_mask & ~mask:
            continue
        size = len(powers)
        for x in members:
            cent = (sub_mask & ctx.comm[x]).bit_count()
            m = size // cent
            residue_list = sorted({k % m for k, h in enumerate(powers)
                                   if (mask >> t[h][x]) & 1})
            for eq_index, eq in enumerate(DEFAULT_EQUATIONS):
                acc.instances += 1
                if find_nontrivial_solution(residue_list, m, eq) is not None:
                    acc.failures.append({"group": ctx.name, "alpha": list(img),
                                         "subgroup": list(powers), "x": x, "modulus": m,
                                         "trace": residue_list, "equation": eq_index})


COSET_CHECKS = ("cube_centralizer", "elementary_two_coset", "trace_avoidance")


def _catalog_maps_and_cubing(*groups):
    """(name, group, image arrays): every automorphism of each catalog
    group of order <= 24, then x -> x^3 (not an automorphism) on each of
    ``groups``, under which every element is cubed."""
    cases = [(name, group, [m.images for m in enumerate_automorphisms(group).members])
             for name, group in built_in_catalog().groups(order_cap=24)]
    cases += [(f"{g.name} cubing map", g, [tuple(g.pow(x, 3) for x in g.elements())])
              for g in groups]
    return cases


def test_trace_memo_equals_unmemoized_loop(monkeypatch):
    """Over every member of the catalog groups of order <= 24, plus x -> x^3
    on S3 (not an automorphism). Under it every element is cubed: the
    three transpositions give A3 the trace {0, 1, 2} mod 3, which solves
    a + b = 2c, so the second and third are memo hits on a failing trace.
    The memo makes one solver call per distinct trace and equation, and
    each recorded failure one more: the count the ``trace_solves`` stat
    reports."""
    calls = []

    def counted(*args):
        calls.append(args)
        return find_nontrivial_solution(*args)

    monkeypatch.setattr(verifier, "find_nontrivial_solution", counted)
    for name, group, arrays in _catalog_maps_and_cubing(builders.symmetric(3)):
        ctx = GroupContext(group, name)
        calls.clear()
        memo = {name: CheckReport(name) for name in COSET_CHECKS}
        plain = CheckReport("trace_avoidance")
        for img in arrays:
            members, mask = _cube_members(img, ctx.powers[3])
            _check_cyclic_cosets(ctx, img, members, mask, memo)
            _unmemoized_trace_avoidance(ctx, img, members, mask, plain)
        assert memo["trace_avoidance"].instances == plain.instances, name
        assert memo["trace_avoidance"].failures == plain.failures, name
        assert len(calls) == (len(DEFAULT_EQUATIONS) * len(ctx.trace_solutions)
                              + len(plain.failures)), name  # a failure is re-checked
    failing = {(tuple(f["trace"]), f["modulus"]) for f in plain.failures}
    assert ((0, 1, 2), 3) in failing
    assert len(plain.failures) > len(DEFAULT_EQUATIONS) * len(failing)  # repeats were hits


def _separate_cube_centralizer(ctx, img, members, mask, accs):
    acc = accs["cube_centralizer"]
    comm = ctx.comm
    pow3 = ctx.powers[3]
    for x in members:
        acc.instances += 1
        if comm[x] != comm[pow3[x]]:
            verifier._record(acc, ctx, img, "cube_centralizer", {"x": x})
    for sub_mask, powers in ctx.cyclic_subgroups:
        if sub_mask & ~mask:
            continue
        size = len(powers)
        for x in members:
            cent = (sub_mask & comm[x]).bit_count()
            acc.instances += 1
            if (size // cent) % 3 == 0:
                verifier._record(acc, ctx, img, "cube_centralizer",
                                 {"subgroup": list(powers), "x": x, "index": size // cent})


def _separate_elementary_two_coset(ctx, img, members, mask, accs):
    acc = accs["elementary_two_coset"]
    t = ctx.group.table
    comm = ctx.comm
    squares = ctx.powers[2]
    for sub_mask, powers in ctx.cyclic_subgroups:
        if sub_mask & ~mask:
            continue
        for x in members:
            cent2_mask = sub_mask & comm[squares[x]]
            if any(not (cent2_mask >> squares[u]) & 1 for u in powers):
                continue
            for h in powers:
                acc.instances += 1
                if (mask >> t[h][x]) & 1 != (comm[x] >> h) & 1:
                    verifier._record(acc, ctx, img, "elementary_two_coset",
                                     {"subgroup": list(powers), "x": x, "h": h})


def _separate_trace_avoidance(ctx, img, members, mask, accs):
    acc = accs["trace_avoidance"]
    t = ctx.group.table
    for sub_mask, powers in ctx.cyclic_subgroups:
        if sub_mask & ~mask:
            continue
        for x in members:
            m = len(powers) // (sub_mask & ctx.comm[x]).bit_count()
            residue_list = sorted({k % m for k, h in enumerate(powers)
                                   if (mask >> t[h][x]) & 1})
            key = (tuple(residue_list), m)
            if key not in ctx.trace_solutions:
                ctx.trace_solutions[key] = tuple(
                    find_nontrivial_solution(residue_list, m, eq) is not None
                    for eq in DEFAULT_EQUATIONS)
            acc.instances += len(DEFAULT_EQUATIONS)
            for eq_index, hit in enumerate(ctx.trace_solutions[key]):
                if hit:
                    verifier._record(acc, ctx, img, "trace_avoidance",
                                     {"subgroup": list(powers), "x": x, "modulus": m,
                                      "trace": residue_list, "equation": eq_index})


def test_coset_walk_equals_three_separate_walks():
    """One walk over the (H, x) pairs fills the three coset reports as
    three walks, one per check, did: the same instances, the same
    failures in the same order, and the same memo of solved traces. The
    cubing maps give failures of all three. On S4's, some pairs fail the
    elementary-two-coset hypothesis; that skips the rule's own loop, but
    the other two checks still count those pairs."""
    hypothesis_fails = 0
    for name, group, arrays in _catalog_maps_and_cubing(
            builders.symmetric(3), builders.symmetric(4), builders.alternating(4)):
        ctx, ref_ctx = GroupContext(group, name), GroupContext(group, name)
        merged = {check: CheckReport(check) for check in COSET_CHECKS}
        separate = {check: CheckReport(check) for check in COSET_CHECKS}
        for img in arrays:
            members, mask = _cube_members(img, ctx.powers[3])
            _check_cyclic_cosets(ctx, img, members, mask, merged)
            for walk in (_separate_cube_centralizer, _separate_elementary_two_coset,
                         _separate_trace_avoidance):
                walk(ref_ctx, img, members, mask, separate)
        for check in COSET_CHECKS:
            assert merged[check].instances == separate[check].instances, (name, check)
            assert merged[check].failures == separate[check].failures, (name, check)
        assert list(ctx.trace_solutions.items()) == list(ref_ctx.trace_solutions.items()), name
        if name == "S4 cubing map":  # every element is cubed: all pairs are walked
            squares = ctx.powers[2]
            hypothesis_fails = sum(
                1 for sub_mask, powers in ctx.cyclic_subgroups for x in members
                if any(not (sub_mask & ctx.comm[squares[x]]) >> squares[u] & 1
                       for u in powers))
    assert hypothesis_fails


# Each check id's case keeps the id it had when every check was a
# function of its own, named as below.
CASE_IDS = {
    "quotient_ratio_monotone": "check_quotient_inequality",
    "cube_centralizer": "check_centralizer_cube",
    "elementary_two_coset": "check_eltwoab",
    "pattern_abba": "check_abba",
    "pattern_ap": "check_ap",
    "pattern_ap2": "check_ap2",
    "pattern_a2b": "check_a2b",
    "pattern_a3b": "check_a3b",
    "trace_avoidance": "check_trace_avoidance",
    "coset_bound_half": "check_coset_bound",
}


@pytest.mark.parametrize("check", CHECK_IDS, ids=CASE_IDS.get)
def test_public_checks_reject_non_automorphism(check):
    g = builders.symmetric(3)
    swap = GroupMap(g, g, (0, 2, 1, 3, 4, 5))
    with pytest.raises(NotAutomorphism):
        check_property(g, swap, check)


@pytest.mark.parametrize("check", CHECK_IDS, ids=CASE_IDS.get)
def test_public_checks_reject_map_on_another_group(check):
    """The identity of Z2 is an automorphism, but not one of Z3."""
    with pytest.raises(NotAutomorphism, match="does not act on this group"):
        check_property(builders.cyclic(3), identity_map(builders.cyclic(2)), check)


@pytest.mark.parametrize("check", ["pattern_abc", None, ["pattern_abba"]], ids=repr)
def test_check_property_refuses_unknown_ids(check):
    """Only an id of CHECK_IDS names a check; an unhashable one is
    refused the same way, and the message lists the known ids."""
    g = builders.symmetric(3)
    with pytest.raises(UnsupportedParameter,
                       match=f"^unknown check {re.escape(repr(check))}; known checks: "
                             f"{', '.join(CHECK_IDS)}$"):
        check_property(g, identity_map(g), check)


def test_coset_bound_check():
    g = builders.symmetric(3)
    alpha = classify_cubing_structure(g).constructed_alpha
    report = check_property(g, alpha, "coset_bound_half")
    assert report.instances > 0
    assert not report.failures


def test_coset_bound_requires_hypothesis():
    """At cube ratio <= 1/2 the pair is recorded as skipped, as the scan
    records it."""
    g = builders.alternating(4)
    report = check_property(g, identity_map(g), "coset_bound_half")
    assert (report.instances, report.skipped, report.failures) == (0, 1, [])


def test_type3_alpha_passes_all_checks():
    g = builders.type3_group_ii()
    alpha = classify_cubing_structure(g).constructed_alpha
    ctx = GroupContext(g, "T3ii")
    accs = {name: CheckReport(name) for name in CHECK_IDS}
    _run_all_checks(ctx, alpha.images, accs)
    for name, acc in accs.items():
        assert not acc.failures, name


# ---------------------------------------------------------------------------
# Revalidation machinery


def test_fabricated_counterexample_does_not_revalidate():
    g = builders.cyclic(8)
    img = tuple(range(8))
    # commuting pair presented as a pattern failure must be rejected
    assert not revalidate(g, img, "pattern_abba", {"a": 1, "b": 2})


def test_revalidation_accepts_genuine_pattern_instance():
    # fabricate a cube map under which a pattern genuinely fails, by
    # using a non-automorphism image array; revalidate only recomputes
    # the membership conditions, so this exercises the arithmetic
    g = builders.symmetric(3)
    img = tuple(g.pow(x, 3) for x in g.elements())  # x -> x^3 (not an automorphism)
    members = [x for x in g.elements() if img[x] == g.pow(x, 3)]
    assert members == list(g.elements())
    found = False
    for a in g.elements():
        for b in g.elements():
            if g.commutator(a, b) != 0:
                if revalidate(g, img, "pattern_abba", {"a": a, "b": b}):
                    found = True
    assert found


def test_trace_revalidation():
    """Under x -> x^3 on S3 (not an automorphism) every element is cubed:
    A3 = <h> has the trace {0, 1, 2} mod 3 at a transposition x, which
    solves a + b = 2c. The trace and modulus are re-derived from the
    table, so a witness that misstates either is rejected."""
    g = builders.symmetric(3)
    img = tuple(g.pow(x, 3) for x in g.elements())
    h = next(y for y in g.elements() if g.element_order(y) == 3)
    x = next(y for y in g.elements() if g.element_order(y) == 2)
    witness = {"subgroup": [0, h, g.mul(h, h)], "x": x, "modulus": 3,
               "trace": [0, 1, 2], "equation": 0}
    assert revalidate(g, img, "trace_avoidance", witness)
    for wrong in ({"trace": [0, 1]}, {"modulus": 1, "trace": [0]},
                  {"subgroup": [h, 0, g.mul(h, h)]}, {"subgroup": [0, h]}):
        assert not revalidate(g, img, "trace_avoidance", {**witness, **wrong}), wrong


def test_coset_bound_revalidation_refuses_scan_pairs():
    """Every "x" and "coset_rep" witness the coset-bound scan could build
    on the pairs with cube ratio above 1/2 (catalog groups of order <= 24,
    cube set of at most 40 elements) is refused: the bound holds there."""
    witnesses = 0
    for name, group in built_in_catalog().groups(order_cap=24):
        ctx = GroupContext(group, name)
        for alpha in enumerate_automorphisms(group).members:
            img = alpha.images
            members, mask = _cube_members(img, ctx.powers[3])
            if 2 * len(members) <= group.order or len(members) > 40:
                continue
            h_elems = sorted(verifier._max_subgroup_inside(group, members, mask))
            reps = group.right_cosets(group.subgroup(h_elems))[0]
            cases = [{"x": x} for x in members if x not in h_elems]
            cases += [{"coset_rep": rep} for rep in reps]
            for case in cases:
                assert not revalidate(group, img, "coset_bound_half",
                                      {"subgroup": h_elems, **case}), (name, img, case)
            witnesses += len(cases)
    assert witnesses == 342


def test_coset_bound_revalidation_accepts_a_broken_bound():
    """Synthetic maps of S3, none an automorphism. A map that cubes A3 and
    two transpositions x, y and sends the third to 0 has T = A3 ∪ {x, y},
    whose largest subgroup is A3, and |A3 x ∩ T| = 2 > 3/2. A map that
    cubes A3 only and sends each transposition to 0 leaves the coset of a
    transposition outside T. Misstated witnesses fail, and so does an H
    that is no largest subgroup inside T: under x -> x^3 every element is
    cubed, so T = S3 and A3 is not the largest."""
    g = builders.symmetric(3)
    a3 = list(g.derived_subgroup.elements)
    x, y, _ = [u for u in g.elements() if g.element_order(u) == 2]
    cubing_map = tuple(g.pow(u, 3) for u in g.elements())
    a3_only = tuple(g.pow(u, 3) if u in a3 else 0 for u in g.elements())
    two_of_three = tuple(g.pow(u, 3) if u in a3 or u in (x, y) else 0 for u in g.elements())
    assert revalidate(g, two_of_three, "coset_bound_half", {"subgroup": a3, "x": x})
    assert revalidate(g, a3_only, "coset_bound_half", {"subgroup": a3, "coset_rep": x})
    for img, witness in ((two_of_three, {"subgroup": a3, "coset_rep": x}),
                         (a3_only, {"subgroup": a3, "x": x}),
                         (two_of_three, {"subgroup": a3, "x": a3[1]}),
                         (a3_only, {"subgroup": [0, x], "coset_rep": a3[1]}),
                         (cubing_map, {"subgroup": a3, "x": x}),
                         (two_of_three, {"subgroup": [0, x], "x": y}),
                         (two_of_three, {"subgroup": [0, x, y], "x": a3[1]})):
        assert not revalidate(g, img, "coset_bound_half", witness), witness


@pytest.mark.parametrize("witness", [{"subgroup": [0, 2], "x": 1},
                                     {"subgroup": [0, 1], "x": 2}],
                         ids=["not largest", "not a subgroup"])
def test_coset_bound_revalidation_refuses_a_witness_that_is_no_largest_subgroup(witness):
    """Under x -> x^3 on Z4 every element is cubed, so T = Z4. {0, 2} is
    a subgroup inside T but not the largest, and {0, 1} is no subgroup;
    each would break the bound at its x. The re-check returns False, so
    ``_record`` names the witness as non-revalidating."""
    g = builders.cyclic(4)
    img = power_map(g, 3).images
    assert revalidate(g, img, "coset_bound_half", witness) is False
    acc = CheckReport("coset_bound_half")
    with pytest.raises(InternalCheckFailed, match="non-revalidating"):
        verifier._record(acc, GroupContext(g, "Z4"), img, "coset_bound_half",
                         {**witness, "intersection": 2})
    assert acc.failures == []


# One malformed witness per check id, on S3 and its identity map: each
# has the keys of its id's witnesses but states no counterexample. An id
# without an entry here fails the test below.
MALFORMED_WITNESSES = {
    "quotient_ratio_monotone": {"normal": [0, 1], "quotient_cube_count": 0},
    "cube_centralizer": {"subgroup": [0], "x": 0, "index": 3},
    "elementary_two_coset": {"subgroup": [0], "x": 0, "h": 0},
    **{check: {"a": 0, "b": 2} for check in PATTERN_IDS},
    "trace_avoidance": {"subgroup": [0], "x": 0, "modulus": 3, "trace": [0, 1, 2],
                        "equation": 0},
    "coset_bound_half": {"subgroup": [0, 2], "x": 2, "intersection": 2},
}


@pytest.mark.parametrize("check", CHECK_IDS, ids=CASE_IDS.get)
def test_every_check_id_has_a_revalidation_rule(check):
    g = builders.symmetric(3)
    assert revalidate(g, identity_map(g).images, check, MALFORMED_WITNESSES[check]) is False


def test_unsolvable_trace_does_not_revalidate():
    """Under the identity of S3 the cube set is the involutions. For
    transpositions s != x, H = <s> and x lie in it, C_H(x) = 1 gives the
    modulus 2, and sx has order 3, so the trace is {0}: every stated
    field matches the table, and only the solver, which finds nothing in
    a singleton, rejects the witness."""
    g = builders.symmetric(3)
    s, x = [y for y in g.elements() if g.element_order(y) == 2][:2]
    witness = {"subgroup": [0, s], "x": x, "modulus": 2, "trace": [0], "equation": 0}
    assert not revalidate(g, tuple(g.elements()), "trace_avoidance", witness)


@pytest.mark.parametrize("witness", [
    {"subgroup": list(range(8)), "x": 5, "modulus": 3, "trace": [0, 1, 2], "equation": 0},
    {"subgroup": [0], "x": 0, "modulus": 3, "trace": [0, 1, 2], "equation": 0},
])
def test_fabricated_trace_witness_does_not_revalidate(witness):
    """Under the identity of Z8 the cube set is {0, 4}. The first witness
    names a subgroup and x outside it, the second a modulus that
    |H| / |C_H(x)| = 1 contradicts; both state a solvable trace."""
    g = builders.cyclic(8)
    assert not revalidate(g, tuple(range(8)), "trace_avoidance", witness)


# ---------------------------------------------------------------------------
# Suite scans


def test_verify_properties_small_scope(cache_dir):
    report = verify_properties(exhaustive_cap=12, sample_count=25, sample_min=13,
                           sample_max=64, seed=11, cache_dir=cache_dir)
    assert report["pass"]
    assert {c["check"] for c in report["checks"]} == set(CHECK_IDS)
    assert report["scope"]["sampled_pairs"] == 25
    for check in report["checks"]:
        assert check["failures"] == []
        assert check["seed"] == 11


def test_verify_properties_whole_catalog_counts():
    """Every check over every member of all 149 catalog groups (41,744
    pairs, one checked per Aut(G)-conjugacy class), pinned count by count,
    so a change to any check on any catalog group shows."""
    report = verify_properties(exhaustive_cap=2184, sample_count=0)
    assert report["pass"]
    assert report["scope"]["exhaustive_groups"] == 149
    assert report["scope"]["exhaustive_pairs"] == 41744
    assert report["stats"] == {"checked_pairs": 2631, "trace_solves": 574}
    counts = {c["check"]: (c["instances"], c["skipped"]) for c in report["checks"]}
    patterns = {check: (1267229, 0) for check in PATTERN_IDS}
    assert counts == {"quotient_ratio_monotone": (294819, 0),
                      "cube_centralizer": (1352771, 0),
                      "elementary_two_coset": (3101752, 0),
                      **patterns,
                      "trace_avoidance": (2351072, 0),
                      "coset_bound_half": (2368, 41368)}


def test_verify_properties_deterministic(cache_dir):
    a = verify_properties(exhaustive_cap=8, sample_count=10, sample_min=9,
                      sample_max=32, seed=3, cache_dir=cache_dir)
    b = verify_properties(exhaustive_cap=8, sample_count=10, sample_min=9,
                      sample_max=32, seed=3, cache_dir=cache_dir)
    for left, right in zip(a["checks"], b["checks"]):
        assert left["instances"] == right["instances"]
        assert left["failures"] == right["failures"]


def test_verify_properties_jobs_match(cache_dir):
    kwargs = dict(exhaustive_cap=10, sample_count=8, sample_min=11,
                  sample_max=40, seed=5, cache_dir=cache_dir)
    a = verify_properties(jobs=1, **kwargs)
    b = verify_properties(jobs=3, **kwargs)
    for left, right in zip(a["checks"], b["checks"]):
        assert left["instances"] == right["instances"]
        assert left["skipped"] == right["skipped"]
        assert left["failures"] == right["failures"]


def test_reordered_cache_file_is_refused(tmp_path):
    """Member k of Aut(G) is representative k // |T|, so a cache file
    whose representatives are valid but reordered would change what a
    sampled draw picks. The loader refuses such a file and rewrites it,
    and the report equals the one run on a fresh cache."""
    kwargs = dict(exhaustive_cap=0, sample_count=10, sample_min=16,
                  sample_max=32, seed=3, cache_dir=tmp_path)
    fresh = verify_properties(**kwargs)
    path = tmp_path / f"aut-{build_named_group('Z2xD4').table_hash}.json"
    text = path.read_text()
    payload = json.loads(text)
    assert len(payload["representatives"]) == 16
    payload["representatives"].reverse()
    path.write_text(json.dumps(payload))
    report = verify_properties(**kwargs)
    assert path.read_text() == text  # refused, enumerated again and rewritten
    assert [{**c, "elapsed_ms": 0} for c in report["checks"]] \
        == [{**c, "elapsed_ms": 0} for c in fresh["checks"]]


def test_sampled_draws_build_no_members(monkeypatch, cache_dir):
    """A sampled-only scan builds each drawn automorphism through
    ``images_at`` and reports what indexing the members reports. Here
    ``members`` is built by hand in index order (member k is
    representative k // |T| conjugated by transversal element k % |T|),
    without ``images_at``."""
    kwargs = dict(exhaustive_cap=0, sample_count=30, sample_min=16,
                  sample_max=64, seed=9, cache_dir=cache_dir)

    def index_order_members(self):
        return tuple(GroupMap(self.base, self.base, _member(self, k)) for k in range(self.order))

    monkeypatch.setattr(AutomorphismGroup, "members", property(index_order_members))
    monkeypatch.setattr(AutomorphismGroup, "images_at",
                        lambda self, indices: [self.members[k].images for k in indices])
    expected = verify_properties(**kwargs)
    monkeypatch.undo()

    def refuse(self):
        raise AssertionError("a sampled draw built every member")

    monkeypatch.setattr(AutomorphismGroup, "members", property(refuse))
    report = verify_properties(**kwargs)
    assert report["scope"]["exhaustive_pairs"] == 0
    assert report["scope"]["sampled_pairs"] == 30
    assert report["stats"]["trace_solves"] == expected["stats"]["trace_solves"]
    assert [{**c, "elapsed_ms": 0} for c in report["checks"]] \
        == [{**c, "elapsed_ms": 0} for c in expected["checks"]]


# Check id -> why its counts are constant on an Aut(G)-conjugacy class:
# beta in Aut(G) maps the instances of (G, alpha) one to one onto those of
# (G, beta alpha beta^-1). The scan weights one member per class by the
# class size, so an id missing here fails the test below.
CLASS_INVARIANT = {
    "quotient_ratio_monotone": "N -> beta(N) on the alpha-invariant normal subgroups",
    "cube_centralizer": "x -> beta(x) and <h> -> <beta(h)> inside the cube set",
    "elementary_two_coset": "(<h>, x, u) -> (<beta(h)>, beta(x), beta(u))",
    **dict.fromkeys(PATTERN_IDS, "(a, b) -> (beta(a), beta(b))"),
    "trace_avoidance": "(<h>, x) -> (<beta(h)>, beta(x)), one instance per equation",
    "coset_bound_half": "T -> beta(T): the same size and largest subgroup order",
}


def _member(auts, k: int) -> tuple:
    """The image array of member k, built by hand: each image of
    representative k // |T| conjugated by transversal element k % |T|."""
    rep, coset = divmod(k, len(auts.transversal))
    t = auts.transversal[coset]
    return tuple(auts.base.conjugate(y, t) for y in auts.representatives[rep])


def _member_walk(ctx: GroupContext, arrays) -> list:
    """Per image array, each check id's (instances, skipped) on it alone."""
    counts = []
    for images in arrays:
        reports = {check: CheckReport(check) for check in CHECK_IDS}
        _run_all_checks(ctx, images, reports)
        counts.append({c: (r.instances, r.skipped) for c, r in reports.items()})
    return counts


@pytest.fixture(scope="module")
def class_walks():
    """Per catalog group of order <= 24: its Aut(G), the per-member counts
    (members built by ``_member``) and the exhaustive task's result."""
    rows = []
    for name, group in built_in_catalog().groups(order_cap=24):
        auts = enumerate_automorphisms(group)
        counts = _member_walk(GroupContext(group, name),
                              [_member(auts, k) for k in range(auts.order)])
        task = verifier._property_task(
            {"name": name, "group": group, "cache_dir": None, "kind": "exhaustive"})
        rows.append((name, auts, counts, task))
    return rows


@pytest.mark.parametrize("check", CHECK_IDS, ids=CASE_IDS.get)
def test_class_weighted_counts_equal_member_counts(check, class_walks):
    """Each member's counts are its class's, and the exhaustive task's
    report is the sum over all members."""
    assert check in CLASS_INVARIANT
    for name, auts, counts, task in class_walks:
        for cls in auts.conjugacy_classes:
            assert len({counts[k][check] for k in cls}) == 1, (name, cls)
        report = task["checks"][check]
        total = tuple(map(sum, zip(*(c[check] for c in counts))))
        assert (report.instances, report.skipped) == total, name
        assert report.failures == []
        assert task["pairs"] == auts.order
        assert task["checked_pairs"] == len(auts.conjugacy_classes)


def test_class_invariant_table_names_every_check():
    assert set(CLASS_INVARIANT) == set(CHECK_IDS)


def test_sampled_task_weights_repeated_draws():
    """Repeated draws are checked once and counted once per draw: the
    report equals the walk over every draw."""
    group = builders.symmetric(4)
    auts = enumerate_automorphisms(group)
    draws = [5, 5 + auts.order, 3, 5, 17, 3]
    task = verifier._property_task({"name": "S4", "group": group, "cache_dir": None,
                                    "kind": "sampled", "draws": draws})
    counts = _member_walk(GroupContext(group, "S4"),
                          [_member(auts, d % auts.order) for d in draws])
    assert (task["pairs"], task["checked_pairs"]) == (6, 3)
    for check in CHECK_IDS:
        report = task["checks"][check]
        assert (report.instances, report.skipped) \
            == tuple(map(sum, zip(*(c[check] for c in counts)))), check


def test_a_failure_sends_the_group_back_to_the_member_walk(monkeypatch):
    """A patched check that fails on one member, the least of a class of
    three in Aut(S3), gives the failure list of a walk over every member:
    that one failure, and the counts of that walk."""
    group = builders.symmetric(3)
    auts = enumerate_automorphisms(group)
    cls = next(c for c in auts.conjugacy_classes if len(c) == 3)
    failing = _member(auts, cls[0])
    checker = verifier._CHECKERS["coset_bound_half"]

    def patched(ctx, img, members, mask, accs):
        checker(ctx, img, members, mask, accs)
        if img == failing:
            verifier._record(accs["coset_bound_half"], ctx, img, "coset_bound_half",
                             {"subgroup": [0], "x": 0})

    monkeypatch.setitem(verifier._CHECKERS, "coset_bound_half", patched)
    monkeypatch.setattr(verifier, "revalidate", lambda *args: True)
    task = verifier._property_task(
        {"name": "S3", "group": group, "cache_dir": None, "kind": "exhaustive"})
    reference = {check: CheckReport(check) for check in CHECK_IDS}
    ctx = GroupContext(group, "S3")
    for k in range(auts.order):
        _run_all_checks(ctx, _member(auts, k), reference)
    assert task["checks"]["coset_bound_half"].failures == [
        {"group": "S3", "alpha": list(failing), "subgroup": [0], "x": 0}]
    assert {c: (r.instances, r.skipped, r.failures) for c, r in task["checks"].items()} \
        == {c: (r.instances, r.skipped, r.failures) for c, r in reference.items()}
    assert task["checked_pairs"] == len(auts.conjugacy_classes) + auts.order


def test_class_sizes_must_sum_to_the_aut_order(monkeypatch):
    group = builders.symmetric(3)
    monkeypatch.setattr(AutomorphismGroup, "conjugacy_classes", property(lambda self: ((0,),)))
    with pytest.raises(InternalCheckFailed, match="partition"):
        verifier._property_task(
            {"name": "S3", "group": group, "cache_dir": None, "kind": "exhaustive"})


# Per check id, (instances, skipped) at seed 101: the 500 draws name the
# members of their indices, so a change to the numbering of Aut(G)
# changes these on purpose.
SEED_101_COUNTS = {
    "quotient_ratio_monotone": (12308, 0),
    "cube_centralizer": (35482, 0),
    "elementary_two_coset": (83754, 0),
    **dict.fromkeys(PATTERN_IDS, (41498, 0)),
    "trace_avoidance": (56512, 0),
    "coset_bound_half": (370, 2322),
}


def test_checked_pairs_pinned(cache_dir):
    """At seed 101 the 1,908 exhaustive pairs fall into 441 classes, and
    the 500 draws hit 462 distinct indices. The sampled counters are
    pinned: ``trace_solves`` and each check's counts."""
    report = verify_properties(seed=101, cache_dir=cache_dir)
    assert (report["scope"]["exhaustive_pairs"], report["scope"]["sampled_pairs"]) == (1908, 500)
    assert report["stats"] == {"checked_pairs": 441 + 462, "trace_solves": 416}
    assert {c["check"]: (c["instances"], c["skipped"]) for c in report["checks"]} \
        == SEED_101_COUNTS
    assert report["pass"]


def test_verify_classification_small(cache_dir):
    report = verify_classification(order_cap=16, cache_dir=cache_dir)
    assert report["pass"]
    assert not report["mismatches"]
    verdicts = {r["group"]: r["verdict"] for r in report["rows"]}
    assert verdicts["Z5"] == "TypeI"
    assert verdicts["D4"] == "TypeIII(i)"
    assert verdicts["Z9"] == "None"


def _counting_catalog(builds: list) -> Catalog:
    """C7 (absent from the built-in catalog), a second spelling of the
    same table, and D4; each build is appended to ``builds``."""
    def entry(name, order, build):
        return CatalogEntry(name, order, lambda: builds.append(name) or build())
    return Catalog([entry("C7", 7, lambda: builders.cyclic(7)),
                    entry("Z7 again", 7, lambda: builders.cyclic(7)),
                    entry("D4", 8, lambda: builders.dihedral(4))])


def test_verify_classification_runs_on_its_own_catalog(cache_dir):
    reports = [verify_classification(catalog=_counting_catalog([]), jobs=jobs,
                                     cache_dir=cache_dir) for jobs in (1, 2)]
    for report in reports:
        assert report["pass"]
        assert [r["group"] for r in report["rows"]] == ["C7", "D4"]
    assert reports[0]["rows"] == reports[1]["rows"]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and
    maps in this process, so no process starts."""

    created: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, cores, workers", [
    (5000, 64, [5]),  # bounded by the 5 tasks
    (4, 2, [2]),      # bounded by the cores
    (3, None, []),    # an unknown core count is taken as one: no pool
    (1, 64, []),
    (0, 64, []),
])
def test_parallel_bounds_the_pool(monkeypatch, cache_dir, jobs, cores, workers):
    monkeypatch.setattr(verifier, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_RecordingPool, "created", [])
    report = verify_classification(order_cap=4, jobs=jobs, cache_dir=cache_dir)
    assert report["groups"] == 5 and report["pass"]
    assert _RecordingPool.created == workers


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_classification_builds_each_entry_once(cache_dir, jobs):
    builds = []
    verify_classification(catalog=_counting_catalog(builds), jobs=jobs,
                          cache_dir=cache_dir)
    assert sorted(builds) == ["C7", "D4", "Z7 again"]


def test_verify_boundary_named_groups_only(cache_dir):
    # restrict the catalog-wide part to tiny orders; named five always run
    report = verify_solvability_boundary(order_cap=10, cache_dir=cache_dir)
    assert report["pass"]
    by_name = {r["group"]: r for r in report["rows"]}
    assert by_name["A5"]["max_ratio"] == {"num": 4, "den": 15}
    for name in ("S5", "L2(7)", "PGL2(7)", "A6"):
        ratio = Fraction(by_name[name]["max_ratio"]["num"],
                         by_name[name]["max_ratio"]["den"])
        assert ratio <= Fraction(4, 15)
        assert not by_name[name]["solvable"]


def test_catalog_entry_lookup():
    cat = built_in_catalog()
    assert cat.entry("a5").name == "A5"
    assert "pgl2(7)" in cat and "Q16" not in cat
    with pytest.raises(UnsupportedParameter):
        cat.entry("Q16")


@pytest.mark.parametrize("overrides, expected", [
    ({"A5": Fraction(1, 5)}, [("A5", "maximum ratio is not exactly 4/15")]),
    *(({name: Fraction(1, 2)}, [(name, "maximum ratio exceeds 4/15"),
                                (name, "ratio above 4/15 on an insolvable group")])
      for name in BOUNDARY_GROUPS[1:]),
    ({"A5": Fraction(1, 3), "Z4": Fraction(1, 1)},
     [("A5", "maximum ratio is not exactly 4/15"),
      ("A5", "ratio above 4/15 on an insolvable group")]),
], ids=["A5 below", *(f"{name} above" for name in BOUNDARY_GROUPS[1:]), "A5 above"])
def test_verify_boundary_reports_each_failure(monkeypatch, cache_dir, overrides, expected):
    """With max_cube_ratio patched for the named groups, each failure
    reason fires, once per group it concerns; a solvable group above
    4/15 (Z4 at 1) is no failure."""
    real = verifier.max_cube_ratio

    def patched(group, n, auts):
        if group.name in overrides:
            return overrides[group.name], None
        return real(group, n=n, auts=auts)

    monkeypatch.setattr(verifier, "max_cube_ratio", patched)
    report = verify_solvability_boundary(order_cap=4, cache_dir=cache_dir)
    assert not report["pass"]
    assert [(f["group"], f["reason"]) for f in report["failures"]] == expected
    assert {r["group"] for r in report["rows"]} >= set(BOUNDARY_GROUPS)


def test_verify_boundary_names_missing_groups(cache_dir):
    tiny = Catalog([CatalogEntry("Z2", 2, lambda: builders.cyclic(2))])
    with pytest.raises(UnsupportedParameter) as info:
        verify_solvability_boundary(catalog=tiny, cache_dir=cache_dir)
    for name in ("A5", "S5", "L2(7)", "PGL2(7)", "A6"):
        assert name in str(info.value)


def test_verify_abelian_indices_small():
    report = verify_abelian_indices(qs=(5, 7), budget=500_000)
    assert report["pass"]
    assert [r["index"] for r in report["rows"]] == [12, 24]


def test_verify_abelian_indices_pins_the_search_nodes():
    """Every row's node count, so a change to the search shows as a count:
    one root per non-central class, the chain below it, cosets for growth."""
    report = verify_abelian_indices()
    assert report["pass"]
    assert [(r["q"], r["nodes"]) for r in report["rows"]] == [
        (5, 4), (7, 11), (9, 12), (8, 8), (11, 17), (13, 8)]


def test_verify_abelian_indices_refuses_unknown_q_before_building(monkeypatch):
    def no_build(q):
        raise AssertionError(f"psl2({q}) built")
    monkeypatch.setattr(builders, "psl2", no_build)
    with pytest.raises(UnsupportedParameter, match="no expected index for q = 4"):
        verify_abelian_indices(qs=(5, 4))
    with pytest.raises(UnsupportedParameter, match="no q to check"):
        verify_abelian_indices(qs=())


@pytest.mark.parametrize("n", [2, 3, -1, -2])
def test_power_pattern_known_exponents(n, cache_dir):
    report = power_pattern_search(n, order_cap=16, cache_dir=cache_dir)
    assert report["counterexample"] is None
    assert report["known_commuting_pattern"]
    assert report["pairs_scanned"] > 0


def test_power_pattern_experimental_exponent(cache_dir):
    report = power_pattern_search(5, order_cap=16, cache_dir=cache_dir)
    assert not report["known_commuting_pattern"]
    assert report["counterexample"] is None  # data at this scope


def test_pattern_witness_detector():
    """The pattern walk with the one table of search pattern. On the
    synthetic member set all of S3 (as if every element were cubed) and
    n = 0, all 36 pairs are pattern-complete and the non-commuting ones
    are listed; on all of Z6, nothing is."""
    s3 = builders.symmetric(3)
    (pairs,), (found,) = pattern_walk(s3, list(s3.elements()), (1 << 6) - 1,
                                      (power_map(s3, 0).images,))
    assert pairs == 36
    assert found == [(a, b) for a in s3.elements() for b in s3.elements()
                     if s3.commutator(a, b) != 0]
    z6 = builders.cyclic(6)
    (pairs,), (found,) = pattern_walk(z6, list(range(6)), (1 << 6) - 1,
                                      (power_map(z6, 5).images,))
    assert (pairs, found) == (36, [])


def test_power_pattern_counterexample_is_rechecked(monkeypatch):
    """A catalog of S3 alone whose one map is x -> x^3 (not an
    automorphism): every element is cubed, so the first non-commuting
    pair is a counterexample for any n, and the raw re-check accepts it.
    A walk that lists a commuting pair instead ends the search in
    InternalCheckFailed."""
    s3 = builders.symmetric(3)
    cubing_map = tuple(s3.pow(x, 3) for x in s3.elements())
    monkeypatch.setattr(verifier, "built_in_catalog",
                        lambda: Catalog([CatalogEntry("S3", 6, lambda: s3)]))
    fake = SimpleNamespace(order=1, conjugacy_classes=((0,),),
                           images_at=lambda indices: [cubing_map for _ in indices])
    monkeypatch.setattr(verifier, "automorphism_group", lambda group, cache_dir: fake)
    report = power_pattern_search(5, order_cap=6)
    first = next((a, b) for a in s3.elements() for b in s3.elements()
                 if s3.commutator(a, b) != 0)
    assert report["counterexample"] == {"group": "S3", "alpha": list(cubing_map),
                                        "a": first[0], "b": first[1], "n": 5}
    assert report["pairs_scanned"] == 36
    monkeypatch.setattr(verifier, "pattern_walk",
                        lambda group, members, mask, tables: ([1], [[(0, 2)]]))
    with pytest.raises(InternalCheckFailed, match="non-revalidating counterexample for n = 5"):
        power_pattern_search(5, order_cap=6)


PATTERN_EXPONENTS = range(-3, 7)


@pytest.fixture(scope="module")
def member_pattern_walks():
    """Reference for search pattern at order cap 16: every member of every
    catalog group in index order, each pair (a, b) of its cube set tried
    on the raw table. Per exponent n: (groups, pairs, first witness),
    stopping after the group of the first witness."""
    per_group = []  # per group, per n: [pairs, first witness]
    for name, group in built_in_catalog().groups(order_cap=16):
        t = group.table
        auts = enumerate_automorphisms(group)
        cubes = [group.pow(x, 3) for x in group.elements()]
        found = {n: [0, None] for n in PATTERN_EXPONENTS}
        for k in range(auts.order):
            img = _member(auts, k)
            cubed = [x for x in group.elements() if img[x] == cubes[x]]
            for a, b in ((a, b) for a in cubed for b in cubed
                         if img[t[a][b]] == cubes[t[a][b]]):
                for n, entry in found.items():
                    fourth = t[group.pow(a, n)][b]
                    if img[fourth] == cubes[fourth]:
                        entry[0] += 1
                        if entry[1] is None and group.commutator(a, b) != 0:
                            entry[1] = {"group": name, "alpha": list(img), "a": a, "b": b, "n": n}
        per_group.append(found)
    results = {}
    for n in PATTERN_EXPONENTS:
        groups = pairs = 0
        witness = None
        for found in per_group:
            groups += 1
            pairs += found[n][0]
            witness = found[n][1]
            if witness:
                break
        results[n] = (groups, pairs, witness)
    return results


@pytest.mark.parametrize("n", PATTERN_EXPONENTS)
def test_power_pattern_class_walk_equals_member_walk(n, member_pattern_walks, cache_dir):
    """The walk over one member per Aut(G)-class, weighted by the class
    size, reports what the walk over every member reports, and
    ``stats.checked_pairs`` counts the classes it walked."""
    report = power_pattern_search(n, order_cap=16, cache_dir=cache_dir)
    groups, pairs, counterexample = member_pattern_walks[n]
    assert (report["groups_scanned"], report["pairs_scanned"], report["counterexample"]) \
        == (groups, pairs, counterexample)
    assert report["stats"] == {"checked_pairs": sum(
        len(enumerate_automorphisms(group).conjugacy_classes)
        for _, group in list(built_in_catalog().groups(order_cap=16))[:groups])}


def test_power_pattern_scope_is_data(cache_dir):
    report = power_pattern_search(0, order_cap=8, cache_dir=cache_dir)
    assert report["counterexample"] is None
    assert report["groups_scanned"] > 0
    assert not report["known_commuting_pattern"]
