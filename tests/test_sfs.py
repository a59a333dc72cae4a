import functools
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cubeaut import sfs
from cubeaut.errors import InternalCheckFailed, UnsupportedParameter
from cubeaut.sfs import (
    _Search,
    _conflict_tables,
    DEFAULT_EQUATIONS,
    THREE_TERM_AP,
    WEIGHTED_AP,
    LinearEquation,
    MAX_MODULUS,
    REFERENCE_TABLE,
    SfsInstance,
    canonical_form,
    enumerate_extremal,
    find_nontrivial_solution,
    is_avoiding,
    max_free_subset,
    reproduce_table,
    units,
    verify_tau_bound,
)

# frozen output of the plain recursive oracle (definition-only search)
ORACLE_T = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2, 8: 2, 9: 2, 10: 2,
            11: 2, 12: 2, 13: 3, 14: 3, 15: 3, 16: 4, 17: 4, 18: 4, 19: 4,
            20: 4, 21: 4, 22: 4}
# same oracle restricted to the single equation a + b = 2c
ORACLE_T_AP_ONLY = {2: 1, 3: 2, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 4, 10: 4,
                    11: 4, 12: 4, 13: 4, 14: 4, 15: 4, 16: 4, 17: 5}


FOUR_TERM = tuple(LinearEquation(c) for c in ((1, 1, -2), (1, 2, -3), (1, 1, 1, -3)))


def oracle_t(n, equations=DEFAULT_EQUATIONS):
    """Plain recursive search; shares nothing with the solver's pruning."""
    best = [1]

    def rec(current, start):
        for v in range(start, n):
            extended = current + [v]
            if is_avoiding(extended, n, equations):
                best[0] = max(best[0], len(extended))
                rec(extended, v + 1)

    rec([0], 1)
    return best[0]


# ---------------------------------------------------------------------------
# Equations


def test_equation_requires_zero_sum():
    with pytest.raises(UnsupportedParameter):
        LinearEquation((1, 1, 1))
    assert LinearEquation((1, 1, -2)).coefficients == (1, 1, -2)


@pytest.mark.parametrize("coefficients", [(1.9, True, -2), (1, 1, -2.0), ("1", 1, -2),
                                          (True, 1, -2)])
def test_equation_refuses_non_int_coefficients(coefficients):
    """A bool, float or str coefficient is refused, never read through int()."""
    with pytest.raises(UnsupportedParameter, match="not all integers"):
        LinearEquation(coefficients)


def test_equation_refuses_non_iterable():
    with pytest.raises(UnsupportedParameter, match="not iterable"):
        LinearEquation(5)


def test_equation_refuses_more_than_max_variables():
    """The generic search walks 3^k slot splits and |A|^(k-1) prefixes
    that no budget bounds, so a long equation is refused up front."""
    longest = (1,) * (sfs.MAX_VARIABLES - 1) + (1 - sfs.MAX_VARIABLES,)
    assert LinearEquation(longest).coefficients == longest
    with pytest.raises(UnsupportedParameter, match=f"at most {sfs.MAX_VARIABLES} variables"):
        LinearEquation((1,) * sfs.MAX_VARIABLES + (-sfs.MAX_VARIABLES,))


def test_instance_refuses_equations_that_are_not_linear_equations():
    with pytest.raises(UnsupportedParameter, match="not a nonempty sequence"):
        max_free_subset(SfsInstance(12, ((1, 1, -2),)))


@pytest.mark.parametrize("equations", [(), THREE_TERM_AP, "1,1,-2"])
def test_instance_refuses_empty_or_bare_equations(equations):
    with pytest.raises(UnsupportedParameter, match="not a nonempty sequence"):
        SfsInstance(12, equations)


def test_instance_stores_equations_as_a_tuple():
    instance = SfsInstance(12, [THREE_TERM_AP])
    assert instance.equations == (THREE_TERM_AP,)
    assert hash(instance) == hash(SfsInstance(12, (THREE_TERM_AP,)))


@pytest.mark.parametrize("modulus", [10.5, 12.0, "12", True])
def test_instance_refuses_non_int_modulus(modulus):
    with pytest.raises(UnsupportedParameter, match="not an integer"):
        SfsInstance(modulus)


def test_default_equations():
    assert THREE_TERM_AP.coefficients == (1, 1, -2)
    assert WEIGHTED_AP.coefficients == (1, 2, -3)


def test_find_nontrivial_examples():
    # 0 + 0 = 2*1 in Z2
    assert find_nontrivial_solution((0, 1), 2, THREE_TERM_AP) == (0, 0, 1)
    # singletons only admit all-equal assignments
    assert find_nontrivial_solution((0,), 17, THREE_TERM_AP) is None
    assert find_nontrivial_solution((0,), 17, WEIGHTED_AP) is None
    # 0 + 2*0 = 3*1 = 0 in Z3
    assert find_nontrivial_solution((0, 1), 3, WEIGHTED_AP) == (0, 0, 1)


def test_find_nontrivial_detects_plain_ap():
    assert find_nontrivial_solution((1, 5, 9), 20, THREE_TERM_AP) is not None
    assert find_nontrivial_solution((0, 1, 3), 9, THREE_TERM_AP) is None


# ---------------------------------------------------------------------------
# Solver vs oracle


@pytest.mark.parametrize("n", sorted(ORACLE_T))
def test_solver_matches_oracle(n):
    result = max_free_subset(SfsInstance(n))
    assert result.exact
    assert result.size == ORACLE_T[n]
    assert result.tau == Fraction(ORACLE_T[n], n)


@pytest.mark.parametrize("n", [23, 26, 29, 31, 34])
def test_solver_matches_live_oracle_midrange(n):
    assert max_free_subset(SfsInstance(n)).size == oracle_t(n)


def test_reference_table_reproduced():
    report = reproduce_table()
    assert report["pass"]
    assert not report["diffs"]
    assert {row["n"]: row["T"] for row in report["rows"]} == REFERENCE_TABLE


def test_tau_values():
    for n, expected in ((14, Fraction(3, 14)), (5, Fraction(2, 5)), (1, 1)):
        assert max_free_subset(SfsInstance(n)).tau == expected


def test_reported_sets_reverify():
    for n in (13, 16, 17, 20):
        result = max_free_subset(SfsInstance(n), collect_sets=True)
        assert result.extremal_sets
        for s in result.extremal_sets:
            assert is_avoiding(s, n)
            assert len(s) == result.size


def test_monotone_in_equations():
    for n in sorted(ORACLE_T_AP_ONLY):
        ap_only = max_free_subset(SfsInstance(n, (THREE_TERM_AP,)))
        assert ap_only.size == ORACLE_T_AP_ONLY[n]
        assert ap_only.size >= ORACLE_T[n]


def test_budget_flagged():
    result = max_free_subset(SfsInstance(60), budget=5)
    assert not result.exact
    assert result.size >= 1
    assert is_avoiding(range(0, 1), 60)


@pytest.mark.parametrize("budget, exact", [(504, False), (679, False), (680, True)])
def test_collect_sets_cut_by_budget_is_not_exact(budget, exact):
    """For n = 40 the maximum search takes 504 nodes and the extremal
    enumeration 680 (cut at 504 it has 27 of the 28 classes, cut at 679
    all 28): a cut enumeration leaves the result inexact."""
    result = max_free_subset(SfsInstance(40), budget=budget, collect_sets=True)
    assert (result.size, result.nodes, result.exact) == (6, 504, exact)
    if exact:
        assert len(result.extremal_sets) == 28


def test_even_modulus_halving_pairs():
    # (a, a, a + n/2) solves a + b = 2c whenever 2c = 2a, so no avoiding
    # set contains a pair {a, c} with 2c = 2a (mod n) and c != a
    for n in (8, 10, 16):
        result = max_free_subset(SfsInstance(n), collect_sets=True)
        for s in result.extremal_sets:
            for a in s:
                for c in s:
                    if a != c:
                        assert (2 * a - 2 * c) % n != 0


# T(n) for n = 61..72, as the benchmark's sfs-search workload pins them
PINNED_T = {61: 8, 62: 8, 63: 8, 64: 8, 65: 8, 66: 8, 67: 8, 68: 9, 69: 8,
            70: 9, 71: 10, 72: 9}


def test_pinned_t_61_to_72():
    got = {n: max_free_subset(SfsInstance(n)) for n in PINNED_T}
    assert all(r.exact for r in got.values())
    assert {n: r.size for n, r in got.items()} == PINNED_T


def test_search_work_is_pinned():
    """Nodes of the benchmark's sfs-search instances and of the sfs
    commands of criterion 9: a search change that alters the work shows
    here."""
    fast = [max_free_subset(SfsInstance(n)) for n in range(60, 73)]
    fast += [max_free_subset(SfsInstance(n), collect_sets=True) for n in (40, 45)]
    assert sum(r.nodes for r in fast) == 217_556
    assert sum(enumerate_extremal(SfsInstance(n), 6).nodes for n in (40, 45)) == 1_779
    assert sum(max_free_subset(SfsInstance(n, FOUR_TERM)).nodes for n in range(31, 35)) == 418
    assert verify_tau_bound(18, 60, Fraction(4, 17))["stats"] == {"nodes": 48_052, "exact": True}
    assert reproduce_table()["stats"] == {"nodes": 35, "exact": True}


# ---------------------------------------------------------------------------
# The search's incremental machinery against the plain definitions


def old_children_mask(current, v, cand, n, equations):
    """Per-candidate filter: keep w when current + (v, w) avoids."""
    keep = 0
    for w in range(n):
        if cand >> w & 1 and is_avoiding(list(current) + [v, w], n, equations):
            keep |= 1 << w
    return keep


@pytest.mark.parametrize("n", range(1, 25))
def test_generic_children_mask_equals_per_candidate_filter(n):
    instance = SfsInstance(n, FOUR_TERM)
    best = max_free_subset(instance).size
    for target in (None, best):
        search = _Search(instance, None, target)
        assert not search.fast
        incremental = search._children_mask

        def checked(current, v, cand):
            got = incremental(current, v, cand)
            assert got == old_children_mask(current, v, cand, n, FOUR_TERM)
            return got

        search._children_mask = checked
        search.run_from_zero()


class OldSearch(_Search):
    """The search before bulk-counted cuts: root candidates and greedy
    seed through is_avoiding, every child built and cut by its own
    bound, the budget polled through ``exact``."""

    avoids = staticmethod(is_avoiding)  # the sweep below swaps in a cached copy

    def run_from_zero(self):
        n = self.n
        self.best, self.best_set = 1, (0,)
        if self.target == 1:
            self.collected.append((0,))
        cand = 0
        for v in range(1, n):
            if self.avoids((0, v), n, self.instance.equations):
                cand |= 1 << v
        self._greedy_seed(cand)
        roots = [d for d in range(1, n) if n % d == 0 and cand >> d & 1]
        for d in roots:
            if not self.exact:
                return
            coarse = 0
            for w in range(d + 1, n):
                if math.gcd(w, n) >= d:
                    coarse |= 1 << w
            self._branch((0,), d, cand & coarse)

    def _greedy_seed(self, cand):
        if self.target is not None:
            return
        current = [0]
        mask = cand
        while mask:
            v = (mask & -mask).bit_length() - 1
            if self.avoids((*current, v), self.n, self.instance.equations):
                current.append(v)
            mask &= mask - 1
        if len(current) > self.best:
            self.best, self.best_set = len(current), tuple(current)

    def _dfs(self, current, cand):
        if self.target is None:
            if len(current) + cand.bit_count() <= self.best:
                return
        else:
            if len(current) + cand.bit_count() < self.target:
                return
        mask = cand
        while mask:
            if not self.exact:
                return
            low = mask & -mask
            mask ^= low
            self._branch(current, low.bit_length() - 1, cand & ~((low << 1) - 1))

    def _branch(self, current, v, above):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            self.exact = False
            return
        extended = current + (v,)
        if self.target is None and len(extended) > self.best:
            self.best, self.best_set = len(extended), extended
        if self.target is not None and len(extended) == self.target:
            self.collected.append(extended)
            return
        self._dfs(extended, self._children_mask(current, v, above))


def old_enumeration(search):
    """enumerate_extremal's (raw, canonical, nodes, exact) from a run search."""
    n = search.n
    canonical = tuple(sorted({canonical_form(s, n) for s in search.collected}))
    raw = tuple(sorted({tuple(sorted(u * a % n for a in c))
                        for c in canonical for u in units(n)}))
    return raw, canonical, search.nodes, search.exact


# budgets 1, 2, 3, 5, ..., 233 run out inside bulk-counted cuts too
FIBONACCI_BUDGETS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)


def run_search(search_class, instance, budget, target):
    search = search_class(instance, budget, target)
    search.run_from_zero()
    return search


@pytest.mark.parametrize("equations,top", [
    (DEFAULT_EQUATIONS, 45), ((THREE_TERM_AP,), 45),
    ((LinearEquation((1, 1, 1, -3)),), 45), (FOUR_TERM, 35)],
    ids=["default", "ap", "four-term", "three-equations"])
def test_search_equals_old_search(monkeypatch, equations, top):
    """Same best set, collected sets (in order), nodes and exactness at
    every size; the public results follow from these."""
    # the sweep repeats every instance's tables and root checks
    for name in ("_conflict_tables", "_slot_splits"):
        monkeypatch.setattr(sfs, name, functools.cache(getattr(sfs, name)))
    monkeypatch.setattr(OldSearch, "avoids", staticmethod(functools.cache(is_avoiding)))
    for n in range(1, top + 1):
        instance = SfsInstance(n, equations)
        size = max_free_subset(instance).size
        for budget in (None, *FIBONACCI_BUDGETS):
            runs = {}
            for target in (None, *range(1, size + 1)):
                old, new = (run_search(cls, instance, budget, target)
                            for cls in (OldSearch, _Search))
                assert (new.best, new.best_set, new.collected, new.nodes, new.exact) == \
                    (old.best, old.best_set, old.collected, old.nodes, old.exact), \
                    (n, budget, target)
                runs[target] = old
            result = max_free_subset(instance, budget)
            old = runs[None]
            assert (result.size, result.nodes, result.exact) == (old.best, old.nodes, old.exact)
            enum = enumerate_extremal(instance, size, budget)
            assert (enum.raw, enum.canonical, enum.nodes, enum.exact) == \
                old_enumeration(runs[size]), (n, budget)


def old_solve_congruence(coeff, rhs, n):
    """All v with coeff*v = rhs (mod n)."""
    coeff %= n
    rhs %= n
    if coeff == 0:
        return list(range(n)) if rhs == 0 else []
    g = math.gcd(coeff, n)
    if rhs % g:
        return []
    reduced_n = n // g
    v0 = (rhs // g) * pow(coeff // g, -1, reduced_n) % reduced_n
    return [v0 + t * reduced_n for t in range(g)]


def old_conflict_tables(n, equations):
    pair = [[0] * n for _ in range(n)]
    double = [0] * n
    slots = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    for eq in equations:
        c = eq.coefficients
        for v_slot, s1, s2 in slots:
            for a in range(n):
                for b in range(n):
                    rhs = -(c[s1] * a + c[s2] * b)
                    for v in old_solve_congruence(c[v_slot], rhs, n):
                        if not (a == b == v):
                            pair[a][b] |= 1 << v
        for e_slot, s1, s2 in slots:
            for e in range(n):
                for v in old_solve_congruence(c[s1] + c[s2], -c[e_slot] * e, n):
                    if v != e:
                        double[e] |= 1 << v
    for a in range(n):
        for b in range(a + 1, n):
            pair[a][b] = pair[b][a] = pair[a][b] | pair[b][a]
    return pair, double


def test_conflict_tables_equal_congruence_builder():
    for n in range(1, 80):
        assert _conflict_tables(n, DEFAULT_EQUATIONS) == \
            old_conflict_tables(n, DEFAULT_EQUATIONS), n
    others = (LinearEquation((2, 3, -5)), LinearEquation((4, -1, -3)))
    for n in range(1, 30):
        assert _conflict_tables(n, others) == old_conflict_tables(n, others), n


def old_find_nontrivial_solution(subset, n, equation):
    """The first of the |A|^k tuples in sorted order that solves the
    equation with not all values equal."""
    elems = sorted(set(a % n for a in subset))
    coeffs = equation.coefficients
    for assignment in product(elems, repeat=len(coeffs)):
        if all(v == assignment[0] for v in assignment):
            continue
        if sum(c * v for c, v in zip(coeffs, assignment)) % n == 0:
            return assignment
    return None


@given(n=st.integers(1, 30),
       head=st.lists(st.integers(-6, 6), min_size=1, max_size=3),
       subset=st.lists(st.integers(0, 60), max_size=7))
@settings(max_examples=300, deadline=None)
def test_find_nontrivial_matches_full_scan(n, head, subset):
    equation = LinearEquation(head + [-sum(head)])
    assert find_nontrivial_solution(subset, n, equation) == \
        old_find_nontrivial_solution(subset, n, equation)


def unrestricted_enumeration(instance, size):
    """Every avoiding size-set through 0: the search entered at the root
    with every candidate, without the divisor restriction."""
    n = instance.modulus
    search = _Search(instance, None, size)
    cand = sum(1 << v for v in range(1, n) if is_avoiding((0, v), n, instance.equations))
    search._branch((), 0, cand)
    return tuple(sorted(search.collected))


@pytest.mark.parametrize("equations", [
    DEFAULT_EQUATIONS, (THREE_TERM_AP,), (LinearEquation((1, 1, 1, -3)),)],
    ids=["default", "ap", "four-term"])
def test_enumeration_equals_unrestricted_search(equations):
    for n in range(1, 41):
        instance = SfsInstance(n, equations)
        size = max_free_subset(instance).size
        enum = enumerate_extremal(instance, size)
        raw = unrestricted_enumeration(instance, size)
        assert enum.exact
        assert enum.raw == raw, n
        assert enum.canonical == tuple(sorted({canonical_form(s, n) for s in raw})), n


# ---------------------------------------------------------------------------
# Extremal enumeration


def test_z16_extremal_sets():
    enum = enumerate_extremal(SfsInstance(16), 4)
    assert enum.exact
    listed = {(0, 1, 4, 5), (0, 1, 4, 13), (0, 1, 5, 12), (0, 1, 12, 13)}
    assert listed <= set(enum.raw)
    assert all(4 in s or 12 in s for s in enum.raw)
    for s in enum.raw:
        assert is_avoiding(s, 16)
        assert s[0] == 0


def test_z2_extremal():
    enum = enumerate_extremal(SfsInstance(2), 1)
    assert enum.raw == ((0,),)
    assert enum.canonical == ((0,),)


def test_enumeration_complete_against_product_scan():
    # independent full scan over all 4-subsets of Z16 containing 0
    from itertools import combinations
    expected = sorted(
        (0,) + rest for rest in combinations(range(1, 16), 3)
        if is_avoiding((0,) + rest, 16))
    enum = enumerate_extremal(SfsInstance(16), 4)
    assert list(enum.raw) == expected


def refusing(refused):
    """is_avoiding, except that it refuses the one set ``refused``."""
    return lambda subset, n, equations=DEFAULT_EQUATIONS: \
        tuple(subset) != refused and is_avoiding(subset, n, equations)


def test_enumeration_rechecks_each_class(monkeypatch):
    classes = enumerate_extremal(SfsInstance(45), 6).canonical
    monkeypatch.setattr(sfs, "is_avoiding", refusing(classes[-1]))
    with pytest.raises(InternalCheckFailed):
        enumerate_extremal(SfsInstance(45), 6)


def test_raw_sets_are_rechecked_when_built(monkeypatch):
    enum = enumerate_extremal(SfsInstance(45), 6)
    outside = next(s for s in enumerate_extremal(SfsInstance(45), 6).raw
                   if s not in enum.canonical)
    monkeypatch.setattr(sfs, "is_avoiding", refusing(outside))
    with pytest.raises(InternalCheckFailed):
        enum.raw


def test_collecting_sets_rechecks_the_classes_alone(monkeypatch):
    """The maximum set and each of the 69 classes once: no raw set is built."""
    calls = []

    def counted(subset, n, equations=DEFAULT_EQUATIONS):
        calls.append(tuple(subset))
        return is_avoiding(subset, n, equations)

    monkeypatch.setattr(sfs, "is_avoiding", counted)
    result = max_free_subset(SfsInstance(45), collect_sets=True)
    assert len(result.extremal_sets) == 69
    assert len(calls) == 1 + 69
    assert calls[1:] == list(result.extremal_sets)


def test_canonical_form():
    assert canonical_form((0, 1, 4, 13), 16) == (0, 1, 4, 5)
    assert canonical_form((0, 11, 12, 15), 16) == (0, 1, 4, 5)
    assert canonical_form((0,), 1) == (0,)


# ---------------------------------------------------------------------------
# Bound verification


def test_tau_bound_small_window():
    report = verify_tau_bound(18, 30, Fraction(4, 17))
    assert report["all_pass"]
    assert len(report["rows"]) == 13


def test_tau_bound_fails_when_too_tight():
    report = verify_tau_bound(18, 20, Fraction(1, 9))
    assert not report["all_pass"]


# ---------------------------------------------------------------------------
# Invariance properties


@given(n=st.integers(min_value=2, max_value=36), seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_unit_dilation_preserves_avoidance(n, seed):
    import random
    rng = random.Random(seed)
    result = max_free_subset(SfsInstance(n), collect_sets=True)
    sets = result.extremal_sets
    if not sets:
        return
    chosen = sets[rng.randrange(len(sets))]
    u = units(n)[rng.randrange(len(units(n)))]
    t = rng.randrange(n)
    transformed = sorted(((u * a + t) % n) for a in chosen)
    assert is_avoiding(transformed, n)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=30, deadline=None)
def test_singleton_always_avoids(n):
    for v in range(min(n, 5)):
        assert is_avoiding((v,), n)


def test_generic_equation_fallback():
    # four-variable equation a + b + c = 3d exercises the generic solver
    eq = LinearEquation((1, 1, 1, -3))
    inst = SfsInstance(7, (eq,))
    result = max_free_subset(inst)

    def brute(n):
        best = 1

        def rec(current, start):
            nonlocal best
            for v in range(start, n):
                extended = current + [v]
                if find_nontrivial_solution(extended, n, eq) is None:
                    best = max(best, len(extended))
                    rec(extended, v + 1)

        rec([0], 1)
        return best

    assert result.size == brute(7)


def test_tau_range_refuses_above_modulus_limit_before_searching():
    with pytest.raises(UnsupportedParameter, match="above the limit"):
        verify_tau_bound(MAX_MODULUS, MAX_MODULUS + 1, Fraction(1, 2))


def test_tau_range_refuses_empty_range():
    with pytest.raises(UnsupportedParameter, match="empty range"):
        verify_tau_bound(60, 18, Fraction(4, 17))
