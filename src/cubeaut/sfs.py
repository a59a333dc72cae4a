"""Exact solver for subsets of Z_n avoiding translation-invariant
linear equations.

The default instance avoids non-trivial solutions (variables not all
equal, repetition allowed) of both a+b=2c and a+2b=3c. The solver is a
depth-first branch and bound over elements in ascending order with
bitmask conflict tables; every reported set is re-verified by the
independent exhaustive checker, which shares none of the incremental
machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .errors import InternalCheckFailed, UnsupportedParameter


@dataclass(frozen=True)
class LinearEquation:
    """Sum of coefficients times variables = 0 (mod n); the coefficient
    sum must vanish so the equation is translation invariant."""

    coefficients: tuple

    def __init__(self, coefficients: Sequence[int]):
        coeffs = tuple(int(c) for c in coefficients)
        if len(coeffs) < 2:
            raise UnsupportedParameter("an equation needs at least two variables")
        if sum(coeffs) != 0:
            raise UnsupportedParameter(
                f"coefficients {coeffs} do not sum to zero (not translation invariant)")
        object.__setattr__(self, "coefficients", coeffs)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coefficients)


THREE_TERM_AP = LinearEquation((1, 1, -2))      # a + b = 2c
WEIGHTED_AP = LinearEquation((1, 2, -3))        # a + 2b = 3c
DEFAULT_EQUATIONS = (THREE_TERM_AP, WEIGHTED_AP)


@dataclass(frozen=True)
class SfsInstance:
    modulus: int
    equations: tuple = DEFAULT_EQUATIONS

    def __post_init__(self):
        if self.modulus < 1:
            raise UnsupportedParameter("modulus must be >= 1")
        if not self.equations:
            raise UnsupportedParameter("need at least one equation")


@dataclass(frozen=True)
class SfsResult:
    instance: SfsInstance
    size: int
    tau: Fraction
    extremal_sets: tuple  # canonical representatives, when collected
    exact: bool
    nodes: int

    def to_json(self) -> dict:
        return {
            "n": self.instance.modulus,
            "equations": [str(e) for e in self.instance.equations],
            "T": self.size,
            "tau": {"num": self.tau.numerator, "den": self.tau.denominator},
            "extremal_sets": [list(s) for s in self.extremal_sets],
            "exact": self.exact,
            "nodes": self.nodes,
        }


def find_nontrivial_solution(subset: Sequence[int], n: int,
                             equation: LinearEquation) -> Optional[tuple]:
    """First assignment from the subset (repetition allowed) satisfying
    the equation mod n with not all values equal, else None. Exhaustive
    over |A|^k tuples in sorted order."""
    elems = sorted(set(int(a) % n for a in subset))
    coeffs = equation.coefficients
    for assignment in product(elems, repeat=len(coeffs)):
        if all(v == assignment[0] for v in assignment):
            continue
        if sum(c * v for c, v in zip(coeffs, assignment)) % n == 0:
            return assignment
    return None


def is_avoiding(subset: Sequence[int], n: int,
                equations: Sequence[LinearEquation] = DEFAULT_EQUATIONS) -> bool:
    return all(find_nontrivial_solution(subset, n, eq) is None for eq in equations)


def units(n: int) -> list:
    return [u for u in range(1, n) if math.gcd(u, n) == 1] or [0]


def canonical_form(subset: Sequence[int], n: int) -> tuple:
    """Lexicographically least sorted tuple among the unit multiples
    u*A mod n. Translations are not quotiented out (0 is distinguished)."""
    if n == 1:
        return tuple(sorted(set(subset)))
    best = None
    for u in units(n):
        image = tuple(sorted((u * a) % n for a in set(subset)))
        if best is None or image < best:
            best = image
    return best


# ---------------------------------------------------------------------------
# Conflict tables for 3-variable equations


def _solve_congruence(coeff: int, rhs: int, n: int) -> list:
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


def _conflict_tables(n: int, equations: Sequence[LinearEquation]) -> tuple:
    """pair[a][b]: mask of v completing a violation with a and b each
    used once; double[e]: mask of v used twice against e used once."""
    pair = [[0] * n for _ in range(n)]
    double = [0] * n
    slots = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    for eq in equations:
        c = eq.coefficients
        for v_slot, s1, s2 in slots:
            cv = c[v_slot]
            for a in range(n):
                row = pair[a]
                for b in range(n):
                    rhs = -(c[s1] * a + c[s2] * b)
                    for v in _solve_congruence(cv, rhs, n):
                        if not (a == b == v):
                            row[b] |= 1 << v
        for e_slot, s1, s2 in slots:
            cv = c[s1] + c[s2]
            ce = c[e_slot]
            for e in range(n):
                for v in _solve_congruence(cv, -ce * e, n):
                    if v != e:
                        double[e] |= 1 << v
    # a and b may land in either non-v slot
    for a in range(n):
        for b in range(a + 1, n):
            merged = pair[a][b] | pair[b][a]
            pair[a][b] = pair[b][a] = merged
    return pair, double


# ---------------------------------------------------------------------------
# Branch and bound


class _Search:
    def __init__(self, instance: SfsInstance, budget: Optional[int],
                 descending: bool, target: Optional[int]):
        self.n = instance.modulus
        self.instance = instance
        self.budget = budget
        self.descending = descending
        self.target = target  # when set, collect all avoiding sets of this size
        self.nodes = 0
        self.exact = True
        self.best = 0
        self.best_set: tuple = ()
        self.collected: list = []
        self.fast = all(len(eq.coefficients) == 3 for eq in instance.equations)
        if self.fast:
            self.pair, self.double = _conflict_tables(self.n, instance.equations)

    def run_from_zero(self):
        n = self.n
        self.best, self.best_set = 1, (0,)
        if self.target == 1:
            self.collected.append((0,))
        cand = 0
        for v in range(1, n):
            if is_avoiding((0, v), n, self.instance.equations):
                cand |= 1 << v
        self._greedy_seed(cand)
        self._dfs((0,), cand)

    def _greedy_seed(self, cand: int):
        if self.target is not None:
            return
        current = [0]
        mask = cand
        while mask:
            v = (mask & -mask).bit_length() - 1
            if is_avoiding(current + [v], self.n, self.instance.equations):
                current.append(v)
            mask &= mask - 1
        if len(current) > self.best:
            self.best, self.best_set = len(current), tuple(current)

    def _children_mask(self, current: tuple, v: int, cand: int) -> int:
        if self.fast:
            removed = self.double[v] | self.pair[v][v]
            pair_v = self.pair[v]
            for u in current:
                removed |= pair_v[u]
            return cand & ~removed
        keep = 0
        mask = cand
        extended = list(current) + [v]
        while mask:
            w_bit = mask & -mask
            mask ^= w_bit
            w = w_bit.bit_length() - 1
            if is_avoiding(extended + [w], self.n, self.instance.equations):
                keep |= w_bit
        return keep

    def _dfs(self, current: tuple, cand: int):
        if self.target is None:
            if len(current) + cand.bit_count() <= self.best:
                return
        else:
            if len(current) + cand.bit_count() < self.target:
                return
        bits = []
        mask = cand
        while mask:
            low = mask & -mask
            bits.append(low)
            mask ^= low
        if self.descending:
            bits.reverse()
        for low in bits:
            if not self.exact:
                return
            v = low.bit_length() - 1
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                self.exact = False
                return
            extended = current + (v,)
            if self.target is None and len(extended) > self.best:
                self.best, self.best_set = len(extended), extended
            if self.target is not None and len(extended) == self.target:
                self.collected.append(extended)
                continue
            above = ~((low << 1) - 1)
            child = self._children_mask(current, v, cand & above)
            self._dfs(extended, child)


def max_free_subset(instance: SfsInstance, budget: Optional[int] = None,
                    collect_sets: bool = False, descending: bool = False) -> SfsResult:
    """Exact maximum size of an avoiding subset of Z_n.

    The equations are translation invariant, so the search fixes 0 in
    the set (any nonempty avoiding set shifts onto one through 0).
    With ``collect_sets`` the canonical extremal representatives are
    gathered by a second pass. If the node budget runs out the result
    carries the best certified lower bound with exact=False.
    """
    search = _Search(instance, budget, descending, None)
    search.run_from_zero()
    size = search.best
    n = instance.modulus
    if not is_avoiding(search.best_set, n, instance.equations):
        raise InternalCheckFailed("reported maximum set fails the independent re-check")
    sets: tuple = ()
    if collect_sets and search.exact:
        enum = enumerate_extremal(instance, size, budget=budget)
        sets = enum.canonical
    return SfsResult(instance, size, Fraction(size, n), sets, search.exact, search.nodes)


@dataclass(frozen=True)
class SfsEnumeration:
    instance: SfsInstance
    size: int
    raw: tuple        # all avoiding sets of the target size containing 0
    canonical: tuple  # lex-least representatives under unit multiplication
    exact: bool
    nodes: int


def enumerate_extremal(instance: SfsInstance, size: int,
                       budget: Optional[int] = None) -> SfsEnumeration:
    """All avoiding subsets of the target size containing 0, raw and
    reduced to canonical form under multiplication by units."""
    if size < 1:
        raise UnsupportedParameter("target size must be >= 1")
    search = _Search(instance, budget, False, size)
    search.run_from_zero()
    n = instance.modulus
    raw = tuple(sorted(search.collected))
    if not all(is_avoiding(s, n, instance.equations) for s in raw):
        raise InternalCheckFailed("enumerated set fails the independent re-check")
    canonical = tuple(sorted({canonical_form(s, n) for s in raw}))
    return SfsEnumeration(instance, size, raw, canonical, search.exact, search.nodes)


# ---------------------------------------------------------------------------
# Derived quantities and the reference table


def tau(n: int, budget: Optional[int] = None) -> Fraction:
    return max_free_subset(SfsInstance(n), budget=budget).tau


def verify_tau_bound(lo: int, hi: int, bound: Fraction,
                     budget: Optional[int] = None) -> dict:
    """Check tau_n < bound (strict, exact) for every n in [lo, hi]."""
    rows = []
    all_pass = True
    for n in range(lo, hi + 1):
        result = max_free_subset(SfsInstance(n), budget=budget)
        ok = result.exact and result.tau < bound
        all_pass = all_pass and ok
        rows.append({
            "n": n,
            "T": result.size,
            "tau": {"num": result.tau.numerator, "den": result.tau.denominator},
            "pass": ok,
        })
    return {
        "bound": {"num": bound.numerator, "den": bound.denominator},
        "lo": lo,
        "hi": hi,
        "rows": rows,
        "all_pass": all_pass,
    }


# reference values for the two default equations
REFERENCE_TABLE = {
    2: 1, 4: 2, 5: 2, 7: 2, 8: 2, 10: 2, 11: 2, 13: 3, 14: 3, 16: 4, 17: 4,
}


def reproduce_table(budget: Optional[int] = None) -> dict:
    """Recompute every reference row and diff; empty diff means pass."""
    rows = []
    diffs = []
    for n in sorted(REFERENCE_TABLE):
        expected = REFERENCE_TABLE[n]
        result = max_free_subset(SfsInstance(n), budget=budget)
        match = result.exact and result.size == expected
        row = {
            "n": n,
            "T": result.size,
            "T_expected": expected,
            "tau": {"num": result.tau.numerator, "den": result.tau.denominator},
            "match": match,
        }
        rows.append(row)
        if not match:
            diffs.append(row)
    return {"rows": rows, "diffs": diffs, "pass": not diffs}
