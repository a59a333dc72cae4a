"""Property verification over concrete (group, automorphism) instances.

Each check asserts a commutation or counting statement over every pair
or coset meeting its hypothesis and accumulates into a ``CheckReport``.
A failing instance enters a report only through ``_record``, which
re-validates it without the scan's tables first (``revalidate``); a
non-revalidating failure aborts the run as an internal bug. The
commutation patterns are one table, ``PATTERNS`` (pattern id -> the
exponent n of the fourth element a^n b; None for ba). One walk,
``pattern_walk``, fills all five pattern reports, and
``power_pattern_search`` runs it for any other exponent and re-checks
its counterexample on the raw table. One walk over the pairs (H, x),
H a cyclic subgroup inside the cube set and x in it, fills the three
coset reports. ``check_property(group, alpha, check)`` runs the
checker of one check id on a single pair and returns that id's report;
``check_quotient_inequality`` runs the quotient check on one normal
subgroup.

Scans run exhaustively over all automorphisms of all catalog groups up
to a small order cap, plus a seeded sample of larger instances. Every
count a check makes is constant on an Aut(G)-conjugacy class, so a scan
checks one member per class (``AutomorphismGroup.conjugacy_classes``),
or per distinct draw, and weights its counts; a failure sends the group
back to a walk over every member, so failure lists are per member. A
task builds its members t-major (``AutomorphismGroup.images_at``). The
sample list is derived once from the seed, so reports are identical at
any worker count. ``ratio_row`` is a group's one maximum-ratio row:
``cube max`` and the classification and solvability-boundary suites
report it. ``verify_properties`` is the only suite that draws
from a seed and the only one whose report carries it; the CLI adds
``--seed`` to every report itself.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .automorphisms import (
    GroupMap,
    _check_invariant,
    automorphism_group,
    check_automorphism,
    induced_on_quotient,
    power_map,
)
from .catalog import Catalog, built_in_catalog
from .cubing import (
    HALF,
    SOLVABILITY_BOUND,
    classify_cubing_structure,
    cube_set,
    max_cube_ratio,
    ratio_json,
    Kind,
)
from .errors import (
    InternalCheckFailed,
    NotASubgroup,
    NotAutomorphism,
    NotNormal,
    UnsupportedParameter,
)
from .groups import MAX_ABELIAN_BUDGET, FiniteGroup, Subgroup, _mask_of, max_abelian_subgroup_order
from .sfs import DEFAULT_EQUATIONS, find_nontrivial_solution

# Theorem 1's commutation patterns: if a, b, ab and the fourth element lie
# in the cube set, then [a, b] = 1. Pattern id -> exponent n of the fourth
# element a^n b; None means the fourth element is ba.
PATTERNS = {"pattern_abba": None, "pattern_ap": -1, "pattern_ap2": -2,
            "pattern_a2b": 2, "pattern_a3b": 3}
PATTERN_IDS = tuple(PATTERNS)
KNOWN_COMMUTING_EXPONENTS = tuple(sorted(n for n in PATTERNS.values() if n is not None))
CHECK_IDS = (
    "quotient_ratio_monotone",
    "cube_centralizer",
    "elementary_two_coset",
    *PATTERN_IDS,
    "trace_avoidance",
    "coset_bound_half",
)

EXPECTED_ABELIAN_INDEX = {5: 12, 7: 24, 9: 40, 8: 56, 11: 60, 13: 84}
# A5 first: it attains 4/15 exactly; the others must not exceed it
BOUNDARY_GROUPS = ("A5", "S5", "L2(7)", "PGL2(7)", "A6")


@dataclass
class CheckReport:
    check: str
    instances: int = 0
    failures: list = field(default_factory=list)
    skipped: int = 0
    scope: dict = field(default_factory=dict)
    seed: Optional[int] = None
    elapsed_ms: int = 0

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "scope": self.scope,
            "instances": self.instances,
            "failures": self.failures,
            "skipped": self.skipped,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
        }


# ---------------------------------------------------------------------------
# Per-group context


class GroupContext:
    """Everything the per-automorphism checks reuse across a group."""

    def __init__(self, group: FiniteGroup, name: str):
        self.group = group
        self.name = name
        n = group.order
        # exponent -> the images of x -> x^n; the cube table is powers[3]
        self.powers = {e: power_map(group, e).images for e in KNOWN_COMMUTING_EXPONENTS}
        self.comm = group.commuting_masks
        # distinct cyclic subgroups, each as (mask, power list h^0..h^(s-1))
        cyclic = {}
        for h in range(n):
            powers = [0]
            x = h
            while x != 0:
                powers.append(x)
                x = group.table[x][h]
            cyclic.setdefault(_mask_of(powers), powers)
        self.cyclic_subgroups = tuple(sorted(cyclic.items(), key=lambda kv: kv[1]))
        # (trace, modulus) -> per equation of DEFAULT_EQUATIONS, whether the
        # trace has a nontrivial solution; traces repeat across x and maps
        self.trace_solutions: dict = {}

    @cached_property
    def normal_cosets(self) -> tuple:
        """(element set, right-coset representatives) per normal subgroup."""
        group = self.group
        return tuple((sub._element_set, group.right_cosets(sub)[0])
                     for sub in group.normal_subgroups)


def _cube_members(img, cubes) -> tuple:
    """The cube set of ``img`` as a list and a mask; ``cubes`` maps x to x^3."""
    members = [x for x, cube in enumerate(cubes) if img[x] == cube]
    return members, _mask_of(members)


# ---------------------------------------------------------------------------
# Revalidation (independent of every fast path above)


def revalidate(group: FiniteGroup, img, check: str, witness: dict) -> bool:
    """Recompute a reported counterexample without the scan's tables.

    The pattern, centralizer, coset and trace branches re-derive it from
    the raw table and take any image array. The quotient branch compares
    ``cube_set`` on G with ``cube_set`` on the map that
    ``induced_on_quotient`` induces on G/N, so there ``img`` must be an
    automorphism of ``group``; a witness N that is not an invariant
    normal subgroup is refused. The coset-bound branch refuses an H that
    is not a largest subgroup inside the cube set."""
    t = group.table

    def in_cube(x):
        return img[x] == group.pow(x, 3)

    if check in PATTERNS:
        return _breaks_pattern(group, img, witness["a"], witness["b"], PATTERNS[check])
    if check == "cube_centralizer":
        if "x" in witness and "index" not in witness:
            x = witness["x"]
            cube = group.pow(x, 3)
            cx = {g for g in range(group.order) if t[g][x] == t[x][g]}
            c3 = {g for g in range(group.order) if t[g][cube] == t[cube][g]}
            return in_cube(x) and cx != c3
        h_elems, x = witness["subgroup"], witness["x"]
        cent = sum(1 for u in h_elems if t[u][x] == t[x][u])
        return (all(in_cube(u) for u in h_elems) and in_cube(x)
                and (len(h_elems) // cent) % 3 == 0)
    if check == "elementary_two_coset":
        h_elems, x, h = witness["subgroup"], witness["x"], witness["h"]
        if not (all(in_cube(u) for u in h_elems) and in_cube(x)):
            return False
        x2 = t[x][x]
        cent2 = {u for u in h_elems if t[u][x2] == t[x2][u]}
        if any(t[u][u] not in cent2 for u in h_elems):
            return False  # hypothesis fails, not a counterexample
        commutes = t[h][x] == t[x][h]
        return (t[h][x] in {g for g in range(group.order) if in_cube(g)}) != commutes
    if check == "quotient_ratio_monotone":
        n_elems = witness["normal"]
        try:
            sub = group.subgroup(n_elems)
        except NotASubgroup:
            return False
        if not group.is_normal(sub) or {img[x] for x in n_elems} != set(n_elems):
            return False
        alpha = GroupMap(group, group, tuple(img))
        induced = induced_on_quotient(alpha, sub)
        return cube_set(group, alpha).ratio > cube_set(induced.source, induced).ratio
    if check == "trace_avoidance":
        # H must be <h> listed as h^0, h^1, ..., and the trace is re-derived
        h_elems, x, modulus = witness["subgroup"], witness["x"], witness["modulus"]
        h = h_elems[1] if len(h_elems) > 1 else 0
        powers = [0]
        while t[powers[-1]][h] != 0:
            powers.append(t[powers[-1]][h])
        if h_elems != powers or not (all(in_cube(u) for u in h_elems) and in_cube(x)):
            return False
        if len(h_elems) // sum(1 for u in h_elems if t[u][x] == t[x][u]) != modulus:
            return False
        residues = sorted({k % modulus for k, u in enumerate(h_elems) if in_cube(t[u][x])})
        return residues == witness["trace"] and find_nontrivial_solution(
            residues, modulus, DEFAULT_EQUATIONS[witness["equation"]]) is not None
    if check == "coset_bound_half":
        h_elems = witness["subgroup"]
        members = [g for g in range(group.order) if in_cube(g)]
        cube = set(members)
        try:
            h_order = group.subgroup(h_elems).order
        except NotASubgroup:
            return False
        if (h_order != len(h_elems) or not cube.issuperset(h_elems)
                or h_order != len(_max_subgroup_inside(group, members, _mask_of(members)))):
            return False
        if "x" in witness:
            x = witness["x"]
            hit = sum(1 for u in h_elems if t[u][x] in cube)
            return x in cube and x not in set(h_elems) and 2 * hit > len(h_elems)
        rep = witness["coset_rep"]
        return all(t[u][rep] not in cube for u in h_elems)
    raise ValueError(f"unknown check id {check!r}")


def _breaks_pattern(group: FiniteGroup, img, a: int, b: int, n) -> bool:
    """From the raw table: a, b, ab and a^n b (ba for ``n`` None) are
    all cubed by ``img``, yet [a, b] != 1."""
    t = group.table
    fourth = t[b][a] if n is None else t[group.pow(a, n)][b]
    return (all(img[x] == group.pow(x, 3) for x in (a, b, t[a][b], fourth))
            and group.commutator(a, b) != 0)


def _record(acc: CheckReport, ctx: GroupContext, img, check: str, witness: dict):
    """The one way a failure enters a report: after it re-validates."""
    if not revalidate(ctx.group, img, check, witness):
        raise InternalCheckFailed(
            f"non-revalidating counterexample for {check} on {ctx.name}: {witness}")
    acc.failures.append({"group": ctx.name, "alpha": list(img), **witness})


# ---------------------------------------------------------------------------
# The per-(group, automorphism) checks


def pattern_walk(group: FiniteGroup, members, mask, tables) -> tuple:
    """One walk over the pairs (a, b) of the member set with ab also a
    member, for several patterns at once. ``tables`` holds, per pattern,
    the images of x -> x^n (``power_map(group, n).images``) when its
    fourth element is a^n b, or None when it is ba. Returns, per pattern,
    the count of pairs whose fourth element is a member too and the list
    of the non-commuting ones among them, in walk order."""
    t = group.table
    comm = group.commuting_masks
    counts = [0] * len(tables)
    found = [[] for _ in tables]
    for a in members:
        row = t[a]
        comm_a = comm[a]
        rows = [None if p is None else t[p[a]] for p in tables]
        for b in members:
            if not (mask >> row[b]) & 1:
                continue
            commutes = (comm_a >> b) & 1
            for i, fourth in enumerate(rows):
                if (mask >> (t[b][a] if fourth is None else fourth[b])) & 1:
                    counts[i] += 1
                    if not commutes:
                        found[i].append((a, b))
    return counts, found


def _check_patterns(ctx: GroupContext, img, members, mask, accs):
    tables = [None if n is None else ctx.powers[n] for n in PATTERNS.values()]
    for name, count, pairs in zip(PATTERN_IDS, *pattern_walk(ctx.group, members, mask, tables)):
        acc = accs[name]
        acc.instances += count
        for a, b in pairs:
            _record(acc, ctx, img, name, {"a": a, "b": b})


def _check_quotient_monotone(ctx: GroupContext, img, members, mask, accs):
    acc = accs["quotient_ratio_monotone"]
    t = ctx.group.table
    inv = ctx.powers[-1]
    pow3 = ctx.powers[3]
    n = ctx.group.order
    t_count = len(members)
    for elem_set, reps in ctx.normal_cosets:
        if any(img[x] not in elem_set for x in elem_set):
            continue
        acc.instances += 1
        # (Nr)^3 = Nr^3, so the coset Nr is cubed when img(r) (r^3)^-1 is in N
        tq = sum(1 for r in reps if t[img[r]][inv[pow3[r]]] in elem_set)
        if t_count * len(reps) > tq * n:
            _record(acc, ctx, img, "quotient_ratio_monotone",
                    {"normal": sorted(elem_set), "quotient_cube_count": tq})


def _check_cyclic_cosets(ctx: GroupContext, img, members, mask, accs):
    """The three checks on a coset Hx, H a cyclic subgroup inside the
    cube set and x in it, in one walk over the (H, x) pairs: the
    centralizer index, the elementary-two-coset rule and the trace."""
    cube_acc = accs["cube_centralizer"]
    two_acc = accs["elementary_two_coset"]
    trace_acc = accs["trace_avoidance"]
    t = ctx.group.table
    comm = ctx.comm
    pow3 = ctx.powers[3]
    squares = ctx.powers[2]
    for x in members:
        cube_acc.instances += 1
        if comm[x] != comm[pow3[x]]:
            _record(cube_acc, ctx, img, "cube_centralizer", {"x": x})
    for sub_mask, powers in ctx.cyclic_subgroups:
        if sub_mask & ~mask:
            continue
        size = len(powers)
        for x in members:
            comm_x = comm[x]
            cent = (sub_mask & comm_x).bit_count()
            m = size // cent
            cube_acc.instances += 1
            if m % 3 == 0:
                _record(cube_acc, ctx, img, "cube_centralizer",
                        {"subgroup": list(powers), "x": x, "index": m})
            hits = [(mask >> t[h][x]) & 1 for h in powers]
            # the rule needs H/C_H(x^2) elementary abelian of exponent 2
            cent2_mask = sub_mask & comm[squares[x]]
            if all((cent2_mask >> squares[u]) & 1 for u in powers):
                two_acc.instances += size
                for h, hit in zip(powers, hits):
                    if hit != (comm_x >> h) & 1:
                        _record(two_acc, ctx, img, "elementary_two_coset",
                                {"subgroup": list(powers), "x": x, "h": h})
            # cyclic quotient: the coset of h^k is k mod m
            residues = {k % m for k, hit in enumerate(hits) if hit}
            if sum(hits) != len(residues) * cent:
                raise InternalCheckFailed("trace is not a union of centralizer cosets")
            residue_list = sorted(residues)
            key = (tuple(residue_list), m)
            solved = ctx.trace_solutions.get(key)
            if solved is None:
                solved = tuple(find_nontrivial_solution(residue_list, m, eq) is not None
                               for eq in DEFAULT_EQUATIONS)
                ctx.trace_solutions[key] = solved
            trace_acc.instances += len(solved)
            for eq_index, hit in enumerate(solved):
                if hit:
                    _record(trace_acc, ctx, img, "trace_avoidance",
                            {"subgroup": list(powers), "x": x, "modulus": m,
                             "trace": residue_list, "equation": eq_index})


def _max_subgroup_inside(group: FiniteGroup, members, mask) -> frozenset:
    """Largest subgroup contained in the member set, by exhaustive
    closure search (every subgroup inside the set is visited once)."""
    best = frozenset({0})
    seen = {best}
    stack = [best]
    while stack:
        current = stack.pop()
        if len(current) > len(best):
            best = current
        for x in members:
            if x in current:
                continue
            closed = frozenset(group.closure(list(current) + [x]))
            if closed in seen:
                continue
            if _mask_of(closed) & ~mask:
                continue
            seen.add(closed)
            stack.append(closed)
    return best


def _check_coset_bound(ctx: GroupContext, img, members, mask, accs):
    acc = accs["coset_bound_half"]
    group = ctx.group
    if 2 * len(members) <= group.order:
        acc.skipped += 1
        return
    if len(members) > 40:
        # the bound needs a certified-maximum subgroup; above this size
        # the exhaustive search is not attempted and the pair is skipped
        acc.skipped += 1
        return
    h_set = _max_subgroup_inside(group, members, mask)
    h_elems = sorted(h_set)
    h_size = len(h_elems)
    t = group.table
    for x in members:
        if x in h_set:
            continue
        acc.instances += 1
        hit = sum(1 for u in h_elems if (mask >> t[u][x]) & 1)
        if 2 * hit > h_size:
            _record(acc, ctx, img, "coset_bound_half",
                    {"subgroup": h_elems, "x": x, "intersection": hit})
    for rep, coset in zip(*group.right_cosets(Subgroup(group, tuple(h_elems)))):
        acc.instances += 1
        if not any((mask >> y) & 1 for y in coset):
            _record(acc, ctx, img, "coset_bound_half",
                    {"subgroup": h_elems, "coset_rep": rep})


# Check id -> bulk checker. One _check_patterns call fills all five
# pattern accumulators, one _check_cyclic_cosets call the three coset ones.
_CHECKERS = {
    "quotient_ratio_monotone": _check_quotient_monotone,
    **dict.fromkeys(("cube_centralizer", "elementary_two_coset", "trace_avoidance"),
                    _check_cyclic_cosets),
    **dict.fromkeys(PATTERN_IDS, _check_patterns),
    "coset_bound_half": _check_coset_bound,
}


def _run_all_checks(ctx: GroupContext, img, accs: dict):
    members, mask = _cube_members(img, ctx.powers[3])
    for checker in dict.fromkeys(_CHECKERS.values()):
        checker(ctx, img, members, mask, accs)


# ---------------------------------------------------------------------------
# Public single-instance checks (the bulk checkers on one pair)


def _single_report(group: FiniteGroup, alpha: GroupMap, check: str,
                   ctx: GroupContext, scope: dict) -> CheckReport:
    started = time.monotonic()
    if alpha.source is not group:
        raise NotAutomorphism("map does not act on this group")
    check_automorphism(alpha)
    reports = {name: CheckReport(name) for name in CHECK_IDS}
    members, mask = _cube_members(alpha.images, ctx.powers[3])
    _CHECKERS[check](ctx, alpha.images, members, mask, reports)
    report = reports[check]
    report.scope = scope
    report.elapsed_ms = int((time.monotonic() - started) * 1000)
    return report


def check_property(group: FiniteGroup, alpha: GroupMap, check: str) -> CheckReport:
    """The report of ``check``, an id of ``CHECK_IDS``, on the one pair
    (group, alpha): the scan's checker on a fresh context, so a pair the
    scan skips is skipped here too. A checker that fills several reports
    in one walk returns only this one."""
    if check not in CHECK_IDS:  # a tuple test: an unhashable id is refused too
        raise UnsupportedParameter(
            f"unknown check {check!r}; known checks: {', '.join(CHECK_IDS)}")
    return _single_report(group, alpha, check, GroupContext(group, group.name or "group"),
                          {"group": group.name, "order": group.order})


def check_quotient_inequality(group: FiniteGroup, alpha: GroupMap,
                              normal: Subgroup) -> CheckReport:
    """Cube ratio of G never exceeds that of the invariant factor group
    G/``normal``: the scan's check on a context whose only normal
    subgroup is N. Every invariant N at once is
    ``check_property(group, alpha, "quotient_ratio_monotone")``."""
    if not group.is_normal(normal):
        raise NotNormal(f"subgroup of order {normal.order} is not normal")
    _check_invariant(alpha, normal)
    ctx = GroupContext(group, group.name or "group")
    ctx.normal_cosets = ((normal._element_set, group.right_cosets(normal)[0]),)
    return _single_report(group, alpha, "quotient_ratio_monotone", ctx,
                          {"group": group.name, "normal": list(normal.elements)})


# ---------------------------------------------------------------------------
# Suite scans (parallelizable, deterministic)


def _task(cat: Catalog, name: str, cache_dir, **extra) -> dict:
    """A picklable worker task: the group the catalog built to
    deduplicate, plus the cache directory of automorphism_group."""
    return {"name": name, "group": cat.build(name), "cache_dir": cache_dir, **extra}


def _class_weights(auts, name: str) -> dict:
    """The least index of each Aut(G)-conjugacy class -> the class size.
    Every count a check or a pattern walk makes is constant on a class:
    beta maps the instances of (G, alpha) one to one onto those of
    (G, beta alpha beta^-1)."""
    classes = auts.conjugacy_classes
    if sum(map(len, classes)) != auts.order:
        raise InternalCheckFailed(f"the Aut(G)-classes of {name} do not partition Aut(G)")
    return {cls[0]: len(cls) for cls in classes}


def _property_task(task: dict) -> dict:
    """Every check over the task's automorphisms.

    An exhaustive task checks the least member of each Aut(G)-conjugacy
    class and weights its counts by the class size (``_class_weights``),
    and a sampled task checks each distinct drawn index once and weights
    it by its draws. If any of these checks records a failure, the task
    walks every index in order instead, so the failure lists are the
    per-member ones."""
    group = task["group"]
    ctx = GroupContext(group, task["name"])
    auts = automorphism_group(group, task["cache_dir"])
    if task["kind"] == "exhaustive":
        indices = range(auts.order)
        weights = _class_weights(auts, task["name"])
    else:
        indices = [draw % auts.order for draw in task["draws"]]
        weights = Counter(indices)
    reports = {name: CheckReport(name) for name in CHECK_IDS}
    failures = rechecked_traces = 0
    for images, weight in zip(auts.images_at(list(weights)), weights.values()):
        part = {name: CheckReport(name) for name in CHECK_IDS}
        _run_all_checks(ctx, images, part)
        for name, report in part.items():
            reports[name].instances += weight * report.instances
            reports[name].skipped += weight * report.skipped
            failures += len(report.failures)
        rechecked_traces += len(part["trace_avoidance"].failures)
    checked = len(weights)
    if failures:
        reports = {name: CheckReport(name) for name in CHECK_IDS}
        for images in auts.images_at(indices):
            _run_all_checks(ctx, images, reports)
        checked += len(indices)
    return {
        "pairs": len(indices),
        "checked_pairs": checked,
        # one per distinct trace and equation, one per failure's re-check
        "trace_solves": (len(ctx.trace_solutions) * len(DEFAULT_EQUATIONS) + rechecked_traces
                         + len(reports["trace_avoidance"].failures)),
        "checks": reports,
    }


def _parallel(tasks: list, worker, jobs: int) -> list:
    """``worker`` over ``tasks`` in order, on at most ``jobs`` processes,
    never more than there are tasks or cores."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def verify_properties(catalog: Optional[Catalog] = None, exhaustive_cap: int = 24,
                  sample_count: int = 500, sample_min: int = 25,
                  sample_max: int = 360, seed: int = 0, jobs: int = 1,
                  cache_dir=None) -> dict:
    """Run every check over the exhaustive scope plus a seeded sample.

    Exhaustive: all automorphisms of all catalog groups of order at
    most ``exhaustive_cap``. Sampled: ``sample_count`` draws of
    (group, automorphism) with group order in [sample_min, sample_max].
    Every pair is counted, but the checks run on one member per
    Aut(G)-conjugacy class of an exhaustive group and once per distinct
    draw, weighted by the class size or the number of draws; a group
    whose checks find a failure is walked member by member instead.

    The ``stats`` block holds two work counters. ``checked_pairs``: the
    pairs whose checks ran. ``trace_solves``: the calls of the equation
    solver (each group solves a distinct trace once per equation; a
    recorded failure is solved once more, when it is re-checked).
    """
    started = time.monotonic()
    if sample_count < 0:
        raise UnsupportedParameter(f"sample count {sample_count} is negative")
    cat = catalog if catalog is not None else built_in_catalog()
    eligible = cat.names(order_cap=sample_max, min_order=sample_min) if sample_count else []
    if sample_count and not eligible:
        raise UnsupportedParameter(
            f"no catalog group has order in the sample window [{sample_min}, {sample_max}]")
    exhaustive_names = cat.names(order_cap=exhaustive_cap)
    if not exhaustive_names and not sample_count:
        raise UnsupportedParameter(
            f"no catalog group has order at most {exhaustive_cap} and no sample is drawn")
    tasks = [_task(cat, name, cache_dir, kind="exhaustive")
             for name in exhaustive_names]
    rng = random.Random(seed)
    draws_by_name: dict = {}
    for _ in range(sample_count):
        name = eligible[rng.randrange(len(eligible))]
        draws_by_name.setdefault(name, []).append(rng.getrandbits(48))
    for name in eligible:
        if name in draws_by_name:
            tasks.append(_task(cat, name, cache_dir, kind="sampled",
                               draws=draws_by_name[name]))

    results = _parallel(tasks, _property_task, jobs)
    exhaustive_pairs = sum(r["pairs"] for r, t in zip(results, tasks)
                           if t["kind"] == "exhaustive")
    sampled_pairs = sum(r["pairs"] for r, t in zip(results, tasks)
                        if t["kind"] == "sampled")
    reports = []
    scope = {
        "exhaustive_order_cap": exhaustive_cap,
        "exhaustive_groups": len(exhaustive_names),
        "exhaustive_pairs": exhaustive_pairs,
        "sample_window": [sample_min, sample_max],
        "sampled_pairs": sampled_pairs,
    }
    for name in CHECK_IDS:
        report = CheckReport(name, scope=dict(scope), seed=seed)
        for result in results:
            part = result["checks"][name]
            report.instances += part.instances
            report.failures.extend(part.failures)
            report.skipped += part.skipped
        reports.append(report)
    stats = {"trace_solves": sum(r["trace_solves"] for r in results),
             "checked_pairs": sum(r["checked_pairs"] for r in results)}
    elapsed = int((time.monotonic() - started) * 1000)
    for report in reports:
        report.elapsed_ms = elapsed
    return {
        "suite": "property-checks",
        "seed": seed,
        "scope": scope,
        "checks": [r.to_json() for r in reports],
        "pass": all(not r.failures for r in reports),
        "stats": stats,
        "elapsed_ms": elapsed,
    }


# ---------------------------------------------------------------------------
# Maximum-ratio rows


def ratio_row(group: FiniteGroup, name: str, cache_dir=None, n: int = 3) -> tuple:
    """The largest share of G that an automorphism sends to n-th powers,
    as (row, ratio, witness, stats): the row that ``cube max`` and both
    theorem suites report (name, order, ``max_ratio``, ``aut_order``),
    and the counts of coset representatives and of twisted classes, one
    ratio evaluation each."""
    auts = automorphism_group(group, cache_dir)
    ratio, witness = max_cube_ratio(group, n=n, auts=auts)
    row = {"group": name, "order": group.order, "max_ratio": ratio_json(ratio),
           "aut_order": auts.order}
    stats = {"aut_representatives": len(auts.representatives),
             "ratio_evaluations": len(auts.twisted_classes)}
    return row, ratio, witness, stats


def _ratio_rows(cat: Catalog, names: list, worker, jobs: int, cache_dir) -> tuple:
    """``worker`` on one task per name, on at most ``jobs`` processes:
    the rows and exact ratios it returns, in name order, and the
    ``ratio_row`` stats summed key by key."""
    results = _parallel([_task(cat, name, cache_dir) for name in names], worker, jobs)
    rows, ratios, stats = zip(*results)
    return list(rows), ratios, {key: sum(s[key] for s in stats) for key in stats[0]}


# ---------------------------------------------------------------------------
# Classification equivalence


def _classification_task(task: dict) -> tuple:
    group = task["group"]
    verdict = classify_cubing_structure(group)
    row, ratio, _, stats = ratio_row(group, task["name"], task["cache_dir"])
    row["verdict"] = verdict.kind.value
    row["equivalent"] = (verdict.kind != Kind.NONE) == (ratio > HALF)
    row["attains_max"] = verdict.kind == Kind.NONE or verdict.predicted_ratio == ratio
    if verdict.predicted_ratio is not None:
        row["predicted_ratio"] = ratio_json(verdict.predicted_ratio)
    return row, ratio, stats


def verify_classification(catalog: Optional[Catalog] = None, order_cap: int = 64,
                          jobs: int = 1, cache_dir=None) -> dict:
    """On every catalog group up to the cap: a structural verdict exists
    iff the brute-force maximum ratio exceeds 1/2, and when it does the
    constructed automorphism attains the maximum. Each row is the group's
    ``ratio_row`` with the verdict, and the ``stats`` block sums the
    rows' stats."""
    started = time.monotonic()
    cat = catalog if catalog is not None else built_in_catalog()
    names = cat.names(order_cap=order_cap)
    if not names:
        raise UnsupportedParameter(f"no catalog group has order at most {order_cap}")
    rows, _, stats = _ratio_rows(cat, names, _classification_task, jobs, cache_dir)
    mismatches = [r for r in rows if not (r["equivalent"] and r["attains_max"])]
    return {
        "suite": "classification-equivalence",
        "order_cap": order_cap,
        "groups": len(rows),
        "rows": rows,
        "mismatches": mismatches,
        "pass": not mismatches,
        "stats": stats,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }


# ---------------------------------------------------------------------------
# Solvability boundary


def _boundary_task(task: dict) -> tuple:
    row, ratio, _, stats = ratio_row(task["group"], task["name"], task["cache_dir"])
    row["solvable"] = task["group"].is_solvable
    return row, ratio, stats


def verify_solvability_boundary(catalog: Optional[Catalog] = None,
                                order_cap: int = 64, jobs: int = 1,
                                cache_dir=None) -> dict:
    """The named boundary groups max out at 4/15 (A5 exactly), and on
    the whole scanned catalog a ratio above 4/15 forces solvability. Each
    row is the group's ``ratio_row`` with ``solvable``, and the ``stats``
    block sums the rows' stats."""
    started = time.monotonic()
    cat = catalog if catalog is not None else built_in_catalog()
    missing = [name for name in BOUNDARY_GROUPS if name not in cat]
    if missing:
        raise UnsupportedParameter(
            f"catalog lacks the boundary groups {', '.join(missing)}")
    names = list(cat.names(order_cap=order_cap))
    names += [name for name in BOUNDARY_GROUPS if name not in names]
    rows, ratios, stats = _ratio_rows(cat, names, _boundary_task, jobs, cache_dir)
    ratio = dict(zip(names, ratios))
    extremal, *others = BOUNDARY_GROUPS
    flagged = []
    if ratio[extremal] != SOLVABILITY_BOUND:
        flagged.append((extremal, "maximum ratio is not exactly 4/15"))
    flagged += [(name, "maximum ratio exceeds 4/15")
                for name in others if ratio[name] > SOLVABILITY_BOUND]
    flagged += [(r["group"], "ratio above 4/15 on an insolvable group")
                for r in rows if ratio[r["group"]] > SOLVABILITY_BOUND and not r["solvable"]]
    failures = [{"group": name, "reason": reason, "max_ratio": ratio_json(ratio[name])}
                for name, reason in flagged]
    return {
        "suite": "solvability-boundary",
        "order_cap": order_cap,
        "rows": rows,
        "failures": failures,
        "pass": not failures,
        "stats": stats,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }


# ---------------------------------------------------------------------------
# Maximum abelian subgroup table


def verify_abelian_indices(qs=tuple(EXPECTED_ABELIAN_INDEX),
                           budget: int = MAX_ABELIAN_BUDGET) -> dict:
    """Indices of maximum abelian subgroups in the small projective
    simple groups, against the expected column."""
    from .builders import psl2
    started = time.monotonic()
    known = ", ".join(map(str, sorted(EXPECTED_ABELIAN_INDEX)))
    if not qs:
        raise UnsupportedParameter(f"no q to check; expected indices are known for q = {known}")
    for q in qs:
        if q not in EXPECTED_ABELIAN_INDEX:
            raise UnsupportedParameter(f"no expected index for q = {q}; known for q = {known}")
    rows = []
    failures = []
    for q in qs:
        group = psl2(q)
        result = max_abelian_subgroup_order(group, budget=budget)
        index = group.order // result.size
        expected = EXPECTED_ABELIAN_INDEX[q]
        row = {
            "q": q,
            "order": group.order,
            "max_abelian": result.size,
            "index": index,
            "expected_index": expected,
            "exact": result.exact,
            "nodes": result.nodes,
        }
        rows.append(row)
        if not result.exact or index != expected:
            failures.append(row)
    return {
        "suite": "max-abelian-indices",
        "rows": rows,
        "failures": failures,
        "pass": not failures,
        "stats": {"nodes": sum(row["nodes"] for row in rows),
                  "exact": all(row["exact"] for row in rows)},
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }


# ---------------------------------------------------------------------------
# Commutation-pattern search for other exponents


def power_pattern_search(n: int, order_cap: int = 24, cache_dir=None) -> dict:
    """Search all (G, alpha, a, b) in scope for a, b, ab, a^n b all in
    the cube set with [a, b] != 1.

    The walk runs on the least member of each Aut(G)-conjugacy class and
    weights ``pairs_scanned`` by the class size; ``stats.checked_pairs``
    counts the walks. Returns the first witness in index order, re-checked
    on the raw table, or a coverage record: a failing member's class
    fails as a whole, so the least member of the first failing class is
    the first failing member. This is an experiment: absence of a witness
    at this scope is data, not a theorem.
    """
    started = time.monotonic()
    counterexample = None
    pairs_scanned = groups_scanned = checked_pairs = 0
    for name, group in built_in_catalog().groups(order_cap=order_cap):
        groups_scanned += 1
        auts = automorphism_group(group, cache_dir)
        cubes = power_map(group, 3).images
        power_n = power_map(group, n).images
        weights = _class_weights(auts, name)
        checked_pairs += len(weights)
        for img, weight in zip(auts.images_at(list(weights)), weights.values()):
            members, mask = _cube_members(img, cubes)
            (pairs,), (found,) = pattern_walk(group, members, mask, (power_n,))
            pairs_scanned += weight * pairs
            if found and counterexample is None:
                a, b = found[0]
                if not _breaks_pattern(group, img, a, b, n):
                    raise InternalCheckFailed(
                        f"non-revalidating counterexample for n = {n} on {name}: "
                        f"a = {a}, b = {b}")
                counterexample = {"group": name, "alpha": list(img), "a": a, "b": b, "n": n}
        if counterexample:
            break
    if not groups_scanned:
        raise UnsupportedParameter(f"no catalog group has order at most {order_cap}")
    return {
        "suite": "power-pattern-search",
        "n": n,
        "order_cap": order_cap,
        "known_commuting_pattern": n in KNOWN_COMMUTING_EXPONENTS,
        "groups_scanned": groups_scanned,
        "pairs_scanned": pairs_scanned,
        "counterexample": counterexample,
        "stats": {"checked_pairs": checked_pairs},
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
