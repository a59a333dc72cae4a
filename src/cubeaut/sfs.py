"""Exact solver for subsets of Z_n avoiding translation-invariant
linear equations.

The default instance avoids non-trivial solutions (variables not all
equal, repetition allowed) of both a+b=2c and a+2b=3c. The solver is a
depth-first branch and bound over avoiding sets through 0, elements
added in ascending order, with bitmask tables of the values that would
complete a solution: per-pair conflict tables when every equation has
three variables, else one forbidden mask per node from a table of
solution masks.

Multiplication by a unit keeps a set avoiding, so the search is rooted
at the divisors d of n: it visits only sets whose least nonzero element
is d and whose other elements w have gcd(w, n) >= d, the shape of the
lexicographically least unit multiple of every avoiding set through 0
(McKay's isomorph rejection, reduced to the root). Node counts count
this restricted search; a child that its own bound cuts is counted but
not built, so a count means the same as when every child was visited.
Extremal enumeration collects the canonical classes from it and
reports the raw sets as their unit orbits. Every reported set is
re-verified by the independent exhaustive checker, which shares none
of the incremental machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import or_
from typing import Optional, Sequence

from .errors import InternalCheckFailed, UnsupportedParameter


@dataclass(frozen=True)
class LinearEquation:
    """Sum of coefficients times variables = 0 (mod n); the coefficient
    sum must vanish so the equation is translation invariant. A
    coefficient that is not an int (a bool, float or str) is refused,
    never converted."""

    coefficients: tuple

    def __init__(self, coefficients: Sequence[int]):
        coeffs = tuple(coefficients)
        if any(type(c) is not int for c in coeffs):
            raise UnsupportedParameter(f"coefficients {coeffs} are not all integers")
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

# Largest modulus an instance accepts. The conflict tables hold n^2 masks
# of n bits: at n = 1024 building them takes 1.1 s and peaks at 180 MB
# resident (Python 3.11, x86-64); they grow as n^3, so n = 5000 needs ~17 GB.
MAX_MODULUS = 1024


@dataclass(frozen=True)
class SfsInstance:
    modulus: int
    equations: tuple = DEFAULT_EQUATIONS

    def __post_init__(self):
        if type(self.modulus) is not int:
            raise UnsupportedParameter(f"modulus {self.modulus!r} is not an integer")
        if self.modulus < 1:
            raise UnsupportedParameter("modulus must be >= 1")
        if self.modulus > MAX_MODULUS:
            raise UnsupportedParameter(
                f"modulus {self.modulus} is above the limit {MAX_MODULUS}")
        if not self.equations:
            raise UnsupportedParameter("need at least one equation")


@dataclass(frozen=True)
class SfsResult:
    instance: SfsInstance
    size: int
    tau: Fraction
    extremal_sets: tuple  # canonical representatives, when collected
    exact: bool
    nodes: int  # nodes of the divisor-rooted search

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
    the equation mod n with not all values equal, else None.

    Exhaustive and in lexicographic order over the sorted subset: each of
    the |A|^(k-1) prefixes of the first k-1 variables is tried in order,
    and the values the last variable may take are looked up, ascending,
    by their residue c_k*x mod n. The result is the first of the |A|^k
    tuples in sorted order, as a plain scan over all of them finds."""
    elems = sorted(set(int(a) % n for a in subset))
    *head, penult, last = equation.coefficients
    by_residue: dict = {}
    for x in elems:
        by_residue.setdefault(last * x % n, []).append(x)
    weighted = [(penult * y, y) for y in elems]
    for prefix in product(elems, repeat=len(head)):
        partial = sum(c * v for c, v in zip(head, prefix))
        for cy, y in weighted:
            for x in by_residue.get(-(partial + cy) % n, ()):
                if x != y or any(v != x for v in prefix):
                    return prefix + (y, x)
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
# Solution masks and conflict tables


def _solution_masks(n: int, coefficients) -> dict:
    """rows[c % n][r]: bitmask of the v in Z_n with c*v = r (mod n)."""
    rows = {}
    for c in coefficients:
        c %= n
        if c not in rows:
            row = [0] * n
            for v in range(n):
                row[c * v % n] |= 1 << v
            rows[c] = row
    return rows


def _conflict_tables(n: int, equations: Sequence[LinearEquation]) -> tuple:
    """For 3-variable equations. pair[a][b]: mask of v completing a
    violation with a and b each used once; double[e]: mask of v used
    twice against e used once."""
    pair = [[0] * n for _ in range(n)]
    double = [0] * n
    slots = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    for eq in equations:
        c = eq.coefficients
        sol = _solution_masks(n, list(c) + [c[s1] + c[s2] for _, s1, s2 in slots])
        for v_slot, s1, s2 in slots:
            row_v = sol[c[v_slot] % n]
            # pair[a][b] |= row_v[(-c1*a - c2*b) % n], a row at a time:
            # row_v rotated left by -c1*a % n, read at -c2*b % n
            c1, c2 = c[s1], c[s2]
            twice = row_v + row_v
            stride = [-c2 * b % n for b in range(n)]
            for a in range(n):
                start = -c1 * a % n
                window = twice[start:start + n]
                pair[a] = list(map(or_, pair[a], map(window.__getitem__, stride)))
            # e in this slot, v in both others
            row_e = sol[(c1 + c2) % n]
            ce = c[v_slot]
            double = [m | row_e[-ce * e % n] for e, m in enumerate(double)]
    # v = a = b (or v = e) is the trivial all-equal assignment
    for a in range(n):
        pair[a][a] &= ~(1 << a)
        double[a] &= ~(1 << a)
    # a and b may land in either non-v slot
    for a in range(n):
        for b in range(a + 1, n):
            merged = pair[a][b] | pair[b][a]
            pair[a][b] = pair[b][a] = merged
    return pair, double


def _slot_splits(n: int, equations: Sequence[LinearEquation]) -> list:
    """Every way to put an equation's slots into a nonempty w part, a
    nonempty v part and the rest, grouped by the rest's coefficients:
    [(rest coefficients mod n, [(w coefficient sum, v coefficient sum)])]."""
    groups: dict = {}
    for eq in equations:
        c = eq.coefficients
        for parts in product(range(3), repeat=len(c)):
            if 0 in parts and 1 in parts:
                cw = sum(ci for ci, p in zip(c, parts) if p == 0) % n
                cv = sum(ci for ci, p in zip(c, parts) if p == 1) % n
                rest = tuple(sorted(ci % n for ci, p in zip(c, parts) if p == 2))
                groups.setdefault(rest, set()).add((cw, cv))
    return [(rest, sorted(pairs)) for rest, pairs in sorted(groups.items())]


# ---------------------------------------------------------------------------
# Branch and bound


class _Search:
    """Depth-first search over avoiding sets through 0, elements added in
    ascending order. Invariant: every w in a node's candidate mask lies
    above the node's elements and keeps the set avoiding when added.
    ``nodes`` counts every child visited, including those counted in
    bulk because their own bound would cut them as soon as built."""

    def __init__(self, instance: SfsInstance, budget: Optional[int],
                 target: Optional[int]):
        self.n = instance.modulus
        self.instance = instance
        self.budget = budget
        self.target = target  # when set, collect all avoiding sets of this size
        self.nodes = 0
        self.exact = True
        self.best = 0
        self.best_set: tuple = ()
        self.collected: list = []
        self.fast = all(len(eq.coefficients) == 3 for eq in instance.equations)
        if self.fast:
            self.pair, self.double = _conflict_tables(self.n, instance.equations)
        else:
            self.splits = _slot_splits(self.n, instance.equations)
            self.sol = _solution_masks(
                self.n, {cw for _, pairs in self.splits for cw, _ in pairs})

    def run_from_zero(self):
        """Multiplying by a unit keeps a set avoiding and sends each
        nonzero a to gcd(a, n), the least element of its unit orbit. So
        every avoiding set through 0 has a unit multiple whose least
        nonzero element is d = min gcd(a, n), a divisor of n, and whose
        other elements w have gcd(w, n) >= d. The root branches on those
        d alone; the lexicographically least unit multiple of every set
        has this shape, so no canonical class is lost."""
        n = self.n
        self.best, self.best_set = 1, (0,)
        if self.target == 1:
            self.collected.append((0,))
        cand = self._children_mask((), 0, (1 << n) - 2)
        self._greedy_seed(cand)
        roots = [d for d in range(1, n) if n % d == 0 and cand >> d & 1]
        for d in roots:
            coarse = 0
            for w in range(d + 1, n):
                if math.gcd(w, n) >= d:
                    coarse |= 1 << w
            if not self._branch((0,), d, cand & coarse):
                self.exact = False
                return

    def _greedy_seed(self, cand: int):
        """Take the least candidate while one is left; the mask then
        keeps only the candidates that still avoid with it."""
        if self.target is not None:
            return
        current = (0,)
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand = self._children_mask(current, v, cand & (cand - 1))
            current += (v,)
        if len(current) > self.best:
            self.best, self.best_set = len(current), current

    def _children_mask(self, current: tuple, v: int, cand: int) -> int:
        """The w in cand that keep current + (v, w) avoiding. A new
        solution must use both v and w, since current + (v,) and
        current + (w,) avoid."""
        if self.fast:
            removed = self.double[v] | self.pair[v][v]
            pair_v = self.pair[v]
            for u in current:
                removed |= pair_v[u]
            return cand & ~removed
        if not cand:
            return 0
        # the slots taking v and w are split off; the rest take values
        # in current, so each such assignment is met exactly once
        n = self.n
        removed = 0
        for rest, pairs in self.splits:
            sums = {0}
            for c in rest:
                sums = {(s + c * u) % n for s in sums for u in current}
            for cw, cv in pairs:
                row = self.sol[cw]
                base = -cv * v
                for r in sums:
                    removed |= row[(base - r) % n]
        return cand & ~removed

    def _branch(self, current: tuple, v: int, above: int) -> bool:
        """Visit current + (v,); ``above`` holds the candidates above v.
        Returns False once the node budget is spent.

        The node is searched only while its size plus its candidates
        can beat the best size (or reach the target, when collecting).
        Once the candidates left cannot, every child left would be
        counted and then cut by its own bound, as its candidates lie
        among them: those children are counted in bulk, not built."""
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            return False
        extended = current + (v,)
        size = len(extended)
        if self.target is None:
            if size > self.best:
                self.best, self.best_set = size, extended
        elif size == self.target:
            self.collected.append(extended)
            return True
        remaining = self._children_mask(current, v, above)
        if size + remaining.bit_count() < (self.target or self.best + 1):
            return True
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            if not self._branch(extended, low.bit_length() - 1, remaining):
                return False
            left = remaining.bit_count()
            if size + left < (self.target or self.best + 1):
                self.nodes += left
                if self.budget is not None and self.nodes > self.budget:
                    self.nodes = self.budget + 1
                    return False
                return True
        return True


def max_free_subset(instance: SfsInstance, budget: Optional[int] = None,
                    collect_sets: bool = False) -> SfsResult:
    """Exact maximum size of an avoiding subset of Z_n.

    The equations are translation invariant, so the search fixes 0 in
    the set (any nonempty avoiding set shifts onto one through 0).
    With ``collect_sets`` the canonical extremal representatives are
    gathered by a second pass. If the node budget runs out the result
    carries the best certified lower bound with exact=False; a second
    pass cut by the budget also makes it inexact. ``nodes`` counts the
    first pass only.
    """
    search = _Search(instance, budget, None)
    search.run_from_zero()
    size = search.best
    n = instance.modulus
    if not is_avoiding(search.best_set, n, instance.equations):
        raise InternalCheckFailed("reported maximum set fails the independent re-check")
    sets: tuple = ()
    exact = search.exact
    if collect_sets and exact:
        enum = enumerate_extremal(instance, size, budget=budget)
        sets = enum.canonical
        exact = enum.exact
    return SfsResult(instance, size, Fraction(size, n), sets, exact, search.nodes)


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
    reduced to canonical form under multiplication by units.

    The search visits only sets whose least nonzero element d divides n
    and whose other elements w have gcd(w, n) >= d; the canonical form
    of every avoiding set has that shape. The raw sets are the unit
    orbits of the canonical classes (A = u^-1 * canonical(A)), and each
    is re-checked by ``is_avoiding``."""
    if size < 1:
        raise UnsupportedParameter("target size must be >= 1")
    search = _Search(instance, budget, size)
    search.run_from_zero()
    n = instance.modulus
    canonical = tuple(sorted({canonical_form(s, n) for s in search.collected}))
    raw = tuple(sorted({tuple(sorted(u * a % n for a in c))
                        for c in canonical for u in units(n)}))
    if not all(is_avoiding(s, n, instance.equations) for s in raw):
        raise InternalCheckFailed("enumerated set fails the independent re-check")
    return SfsEnumeration(instance, size, raw, canonical, search.exact, search.nodes)


# ---------------------------------------------------------------------------
# Derived quantities and the reference table


def verify_tau_bound(lo: int, hi: int, bound: Fraction,
                     budget: Optional[int] = None) -> dict:
    """Check tau_n < bound, exactly and with equality failing, for every n in [lo, hi]."""
    if lo > hi:
        raise UnsupportedParameter(f"empty range: {lo} is above {hi}")
    instances = [SfsInstance(n) for n in range(lo, hi + 1)]  # refuse before searching
    results = [max_free_subset(instance, budget=budget) for instance in instances]
    rows = [{
        "n": result.instance.modulus,
        "T": result.size,
        "tau": {"num": result.tau.numerator, "den": result.tau.denominator},
        "pass": result.exact and result.tau < bound,
    } for result in results]
    return {
        "bound": {"num": bound.numerator, "den": bound.denominator},
        "lo": lo,
        "hi": hi,
        "rows": rows,
        "all_pass": all(row["pass"] for row in rows),
        "stats": _search_stats(results),
    }


def _search_stats(results) -> dict:
    """Nodes over every search, and whether every search was exact."""
    return {"nodes": sum(r.nodes for r in results), "exact": all(r.exact for r in results)}


# reference values for the two default equations
REFERENCE_TABLE = {
    2: 1, 4: 2, 5: 2, 7: 2, 8: 2, 10: 2, 11: 2, 13: 3, 14: 3, 16: 4, 17: 4,
}


def reproduce_table(budget: Optional[int] = None) -> dict:
    """Recompute every reference row and diff; empty diff means pass."""
    results = {n: max_free_subset(SfsInstance(n), budget=budget) for n in sorted(REFERENCE_TABLE)}
    rows = [{
        "n": n,
        "T": result.size,
        "T_expected": REFERENCE_TABLE[n],
        "tau": {"num": result.tau.numerator, "den": result.tau.denominator},
        "match": result.exact and result.size == REFERENCE_TABLE[n],
    } for n, result in results.items()]
    diffs = [row for row in rows if not row["match"]]
    return {"rows": rows, "diffs": diffs, "pass": not diffs,
            "stats": _search_stats(results.values())}
