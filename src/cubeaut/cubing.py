"""Cube sets, cubing ratios, coset traces, and the ratio-above-half
structure classifier with its three explicit automorphism constructors.

All ratios are exact fractions end to end; the thresholds 1/2 and 4/15
are compared symbolically. No floating point enters any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from operator import eq
from typing import Optional

from .automorphisms import (
    AutomorphismGroup,
    GroupMap,
    check_automorphism,
    enumerate_automorphisms,
    power_map,
)
from .errors import (
    BadDecomposition,
    BadIndex,
    InternalCheckFailed,
    KNotAbelian,
    NotAbelian,
    NotAutomorphism,
    NotClass2,
    OrderDivisibleBy3,
    PreconditionViolated,
    SylowCondition,
    XInK,
)
from .groups import FiniteGroup, Subgroup

HALF = Fraction(1, 2)
SOLVABILITY_BOUND = Fraction(4, 15)


def ratio_json(r: Fraction) -> dict:
    return {"num": r.numerator, "den": r.denominator}


# ---------------------------------------------------------------------------
# Cube sets


@dataclass(frozen=True)
class CubeReport:
    """The elements g with alpha(g) = g^n, ascending, and their exact
    share |T| / |G| of the group."""

    members: tuple
    ratio: Fraction


def cube_set(group: FiniteGroup, alpha: GroupMap, n: int = 3) -> CubeReport:
    """All g with alpha(g) = g^n, and the exact ratio |T| / |G|; alpha
    is checked to be an automorphism of ``group`` first."""
    if alpha.source is not group:
        raise NotAutomorphism("map does not act on this group")
    check_automorphism(alpha)
    targets = power_map(group, n).images
    img = alpha.images
    members = tuple(x for x in group.elements() if img[x] == targets[x])
    return CubeReport(members, Fraction(len(members), group.order))


def max_cube_ratio(group: FiniteGroup, n: int = 3,
                   auts: Optional[AutomorphismGroup] = None) -> tuple:
    """Exact maximum of the cubing ratio over all of Aut(G).

    Returns (ratio, witness map); the witness is the lexicographically
    least maximizing image array. Pass ``auts`` to reuse an enumeration
    of this group's Aut(G); one of another group is refused.

    Power maps commute with automorphisms, so a and its conjugates
    phi a phi^-1 send the same number of elements to their n-th power.
    One member per twisted class (an Inn(G)-conjugacy class of Aut(G))
    is evaluated, and only the maximal classes are expanded to find the
    witness; no other member is built.
    """
    if auts is None:
        auts = enumerate_automorphisms(group)
    elif auts.base is not group:
        raise NotAutomorphism("automorphisms do not act on this group")
    table, size = group.table, len(auts.transversal)
    targets = power_map(group, n).images
    # t^-1 b(x) t = x^n iff b(x) = t x^n t^-1; one list per t evaluated
    moved = {}
    best_count = -1
    best = []  # classes attaining best_count
    for cls in auts.twisted_classes:
        rep, coset = divmod(cls[0], size)
        if coset not in moved:
            t = auts.transversal[coset]
            row, t_inv = table[t], group.inv(t)
            moved[coset] = [table[row[y]][t_inv] for y in targets]
        count = sum(map(eq, auts.representatives[rep], moved[coset]))
        if count > best_count:
            best_count, best = count, []
        if count == best_count:
            best.append(cls)
    witness = min(auts.images_at([k for cls in best for k in cls]))
    return Fraction(best_count, group.order), GroupMap(group, group, witness)


# ---------------------------------------------------------------------------
# Coset traces


@dataclass(frozen=True)
class CosetTrace:
    """Image of Hx intersected with the cube set inside the cyclic
    quotient H / C_H(x): the residues modulo ``quotient_order`` that
    the hit cosets take as powers of the quotient's least generator.
    """

    subgroup: Subgroup
    x: int
    quotient_order: int
    centralizer_order: int
    trace: tuple


def coset_trace(group: FiniteGroup, alpha: GroupMap, sub: Subgroup, x: int) -> CosetTrace:
    """The trace of the coset Hx in the cyclic quotient H / C_H(x).

    Preconditions (each checked): alpha an automorphism of ``group``, H
    a subgroup of ``group``, H abelian, H inside the cube set, x an
    element in the cube set, and H / C_H(x) cyclic.
    """
    sub._check_parent(group)
    group._check_element(x)
    report = cube_set(group, alpha)
    inside = set(report.members)
    if not sub.is_abelian:
        raise PreconditionViolated("H is not abelian")
    for h in sub.elements:
        if h not in inside:
            raise PreconditionViolated("H is not inside the cube set", witness=h)
    if x not in inside:
        raise PreconditionViolated("x is not in the cube set", witness=x)
    cent = [h for h in sub.elements if group.table[h][x] == group.table[x][h]]
    hgrp, embed = sub.as_group()
    back = {g: i for i, g in enumerate(embed)}
    cgrp = hgrp.subgroup(sorted(back[c] for c in cent))
    qgrp, proj = hgrp.quotient(cgrp)
    hits = {proj[back[h]] for h in sub.elements if group.table[h][x] in inside}
    # membership is constant on centralizer cosets, so sizes must agree
    raw = sum(1 for h in sub.elements if group.table[h][x] in inside)
    if raw != len(hits) * len(cent):
        raise InternalCheckFailed("trace is not a union of centralizer cosets")
    m = qgrp.order
    gen = next((c for c in qgrp.elements() if qgrp.element_orders[c] == m), None)
    if gen is None:
        raise PreconditionViolated("H / C_H(x) is not cyclic")
    exponent = {qgrp.pow(gen, e): e for e in range(m)}
    return CosetTrace(sub, x, m, len(cent), tuple(sorted(exponent[c] for c in hits)))


# ---------------------------------------------------------------------------
# The three constructors


def build_type_I(group: FiniteGroup) -> GroupMap:
    """g -> g^3 on an abelian group of order coprime to 3; ratio 1."""
    if not group.is_abelian:
        raise NotAbelian("type I needs an abelian group")
    if group.order % 3 == 0:
        raise OrderDivisibleBy3("type I needs gcd(|G|, 3) = 1")
    alpha = power_map(group, 3)
    check_automorphism(alpha)
    return alpha


def build_type_II(group: FiniteGroup, k_sub: Subgroup, x: int) -> tuple:
    """The index-2 construction k -> k^2 x^-1 k x, x -> x^3.

    Preconditions: (G:K) = 2 with K abelian; 3 does not divide |Z(G)|;
    x lies outside K. K's 3-part is then a Sylow 3-subgroup S of G,
    characteristic in the normal K, so S is normal and inside K, and
    the middle condition says S meets the center trivially.

    Returns (automorphism, ratio) with ratio (n+1)/2n for
    n = (K : C_K(x)); the cube set is exactly Kx together with C_K(x).
    """
    k_sub._check_parent(group)
    group._check_element(x)
    if 2 * k_sub.order != group.order:
        raise BadIndex("K must have index 2")
    if not k_sub.is_abelian:
        raise KNotAbelian("K must be abelian")
    if group.center.order % 3 == 0:
        raise SylowCondition("Sylow 3-subgroup meets the center nontrivially")
    if x in k_sub:
        raise XInK(f"x = {x} lies in K")
    t = group.table
    xinv = group.inv(x)
    x3 = group.pow(x, 3)
    images = [0] * group.order
    for k in k_sub.elements:
        images[k] = t[t[k][k]][t[t[xinv][k]][x]]
    for g in group.elements():
        if g not in k_sub:
            k = t[g][xinv]
            images[g] = t[images[k]][x3]
    alpha = GroupMap(group, group, tuple(images))
    cent_k = [k for k in k_sub.elements if t[k][x] == t[x][k]]
    n = k_sub.order // len(cent_k)
    ratio = Fraction(n + 1, 2 * n)
    report = cube_set(group, alpha)
    expected = {t[k][x] for k in k_sub.elements} | set(cent_k)
    if set(report.members) != expected or report.ratio != ratio:
        raise InternalCheckFailed("type II postcondition failed")
    return alpha, ratio


@dataclass(frozen=True)
class Type3Decomposition:
    """Witness for the class-2 construction: commuting generators a_i
    paired with x_i so that [a_i, x_i] generate the derived subgroup and
    everything else commutes."""

    shape: str  # "i" or "ii"
    a_elements: tuple
    x_elements: tuple
    z_elements: tuple


def build_type_III(group: FiniteGroup, decomposition: Type3Decomposition) -> tuple:
    """The class-2 construction (a x1^e1 ... xk^ek) -> a^3 x1^3e1 ... xk^3ek.

    ``decomposition`` provides the a- and x-generators, each an element
    index (see ``FiniteGroup._check_element``). A is the
    subgroup generated by the center and the a-generators; every group
    element must factor uniquely as a * x1^e1 ... xk^ek with e in {0,1}.

    Returns (automorphism, ratio) with the exact measured ratio. An
    element a*X lies in the cube set iff X commutes with a, so the
    ratio is sum_X |C_A(X)| / |G|. When the derived subgroup is C2
    (shape (i)) every nontrivial X has centralizer index 2 in A and the
    ratio collapses to (2^k + 1) / 2^(k+1); with a C2 x C2 derived
    subgroup (shape (ii)) the mixed word x1 x2 has centralizer index 4
    and the ratio is 9/16.
    """
    a_gens, x_gens = decomposition.a_elements, decomposition.x_elements
    group._check_elements([*a_gens, *x_gens])
    if group.order % 3 == 0:
        raise OrderDivisibleBy3("type III needs gcd(|G|, 3) = 1")
    derived = group.derived_subgroup
    center = group.center
    if derived.order == 1 or any(d not in center for d in derived.elements):
        raise NotClass2("group is not nilpotent of class exactly 2")
    a_part = group.subgroup_generated(list(center.elements) + list(a_gens))
    if not a_part.is_abelian:
        raise BadDecomposition("A = <Z(G), a_1..a_k> is not abelian")
    k = len(x_gens)
    if a_part.order * (1 << k) != group.order:
        raise BadDecomposition(
            f"|A| * 2^k = {a_part.order * (1 << k)} does not match |G| = {group.order}")
    t = group.table
    cubes = {a: group.pow(a, 3) for a in a_part.elements}
    x_cubes = [group.pow(xg, 3) for xg in x_gens]
    images = [-1] * group.order
    for a in a_part.elements:
        for eps in product((0, 1), repeat=k):
            g = a
            target = cubes[a]
            for xg, xc, e in zip(x_gens, x_cubes, eps):
                if e:
                    g = t[g][xg]
                    target = t[target][xc]
            if images[g] != -1:
                raise BadDecomposition(f"element {g} factors twice")
            images[g] = target
    if any(v == -1 for v in images):
        raise BadDecomposition("factorization does not cover the group")
    alpha = GroupMap(group, group, tuple(images))
    report = cube_set(group, alpha)
    if derived.order == 2 and report.ratio != Fraction((1 << k) + 1, 1 << (k + 1)):
        raise InternalCheckFailed("type III shape (i) postcondition failed")
    if decomposition.shape == "ii" and report.ratio != Fraction(9, 16):
        raise InternalCheckFailed("type III shape (ii) postcondition failed")
    return alpha, report.ratio


def find_type3_decomposition(group: FiniteGroup) -> tuple:
    """Hunt for a type III pairing on a group of class at most 2 whose
    central quotient is an elementary abelian 2-group. Such a group is
    nilpotent with a central odd part (an odd-order g lies in <g^2>), so
    its commutator form is that of its Sylow 2-subgroup.

    Returns (decomposition, reason): the decomposition is None when the
    group does not have one, with the reason naming the failing shape
    condition. Shape (i) extracts a symplectic basis of the commutator
    form on G/Z over F2; shape (ii) searches exhaustively for a basis
    splitting the form into two planes hitting the two derived
    generators separately.
    """
    if group.is_abelian:
        return None, "abelian group has trivial derived subgroup"
    derived = group.derived_subgroup
    center = group.center
    if any(d not in center for d in derived.elements):
        return None, "class exceeds 2"
    if any(square not in center for square in power_map(group, 2).images):
        return None, "central quotient is not elementary abelian"
    if derived.order == 2:
        return _split_symplectic(group, derived, center)
    if derived.order == 4 and all(
            group.element_orders[d] <= 2 for d in derived.elements):
        return _split_two_planes(group, derived, center)
    return None, f"derived subgroup of order {derived.order} is not C2 or C2xC2"


def _split_symplectic(group: FiniteGroup, derived: Subgroup, center: Subgroup) -> tuple:
    z = derived.elements[1]
    reps = group.right_cosets(center)[0][1:]
    # seed with an independent generating set of G/Z: greedily extend
    basis = []
    span = center.elements
    span_set = set(span)
    for g in reps:
        if g not in span_set:
            basis.append(g)
            span_set = group.closure(list(span_set) + [g])
    if len(basis) % 2:
        return None, "commutator form has odd rank"

    def beta(u, v):
        return 0 if group.commutator(u, v) == 0 else 1

    pairs = []
    vectors = basis
    while vectors:
        u = vectors[0]
        partner = next((j for j in range(1, len(vectors)) if beta(u, vectors[j])), None)
        if partner is None:
            return None, "commutator form is degenerate"
        v = vectors[partner]
        rest = []
        for idx, w in enumerate(vectors[1:], start=1):
            if idx == partner:
                continue
            # project w into the orthogonal complement of the (u, v) plane
            if beta(w, v):
                w = group.table[w][u]
            if beta(w, u):
                w = group.table[w][v]
            rest.append(w)
        pairs.append((u, v))
        vectors = rest
    a_elems = tuple(u for u, _ in pairs)
    x_elems = tuple(v for _, v in pairs)
    return Type3Decomposition("i", a_elems, x_elems, (z,)), "shape (i)"


def _split_two_planes(group: FiniteGroup, derived: Subgroup, center: Subgroup) -> tuple:
    if group.order // center.order != 16:
        return None, "central quotient does not have order 16"
    reps = group.right_cosets(center)[0][1:]
    involutions = [d for d in derived.elements if d != 0]
    comm = {(u, v): group.commutator(u, v) for u in reps for v in reps}
    for z1 in involutions:
        for z2 in involutions:
            if z2 == z1:
                continue
            for a1 in reps:
                for x1 in reps:
                    if comm[(a1, x1)] != z1:
                        continue
                    for a2 in reps:
                        if comm[(a2, a1)] or comm[(a2, x1)]:
                            continue
                        for x2 in reps:
                            if (comm[(a2, x2)] != z2 or comm[(x2, a1)]
                                    or comm[(x2, x1)]):
                                continue
                            span = group.closure(
                                list(center.elements) + [a1, x1, a2, x2])
                            if len(span) == group.order:
                                return (Type3Decomposition(
                                    "ii", (a1, a2), (x1, x2), (z1, z2)),
                                    "shape (ii)")
    return None, "no basis splits the form into two planes"


# ---------------------------------------------------------------------------
# Classification


class Kind(str, Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III_I = "TypeIII(i)"
    TYPE_III_II = "TypeIII(ii)"
    NONE = "None"


@dataclass(frozen=True)
class ClassificationVerdict:
    kind: Kind
    witnesses: dict
    constructed_alpha: Optional[GroupMap]
    predicted_ratio: Optional[Fraction]
    reason: str

    def to_json(self) -> dict:
        out = {"kind": self.kind.value, "reason": self.reason}
        if self.predicted_ratio is not None:
            out["predicted_ratio"] = ratio_json(self.predicted_ratio)
        witnesses = {}
        for key, value in self.witnesses.items():
            if isinstance(value, Subgroup):
                witnesses[key] = list(value.elements)
            elif isinstance(value, (tuple, list)):
                witnesses[key] = list(value)
            else:
                witnesses[key] = value
        if witnesses:
            out["witnesses"] = witnesses
        return out


def classify_cubing_structure(group: FiniteGroup) -> ClassificationVerdict:
    """Structural test for a cubing ratio above one half.

    Type I: abelian with order coprime to 3. Type III: order coprime
    to 3, G' and every square central (so G is nilpotent of class 2
    with a central odd part), and G's own table splits as shape (i) or
    (ii). Type II: an abelian subgroup K of index 2, and 3 does not
    divide |Z(G)|; K then holds a normal Sylow 3-subgroup missing the
    center. Groups that are simultaneously II and III report as III.

    Whenever the verdict is not None the matching constructor runs and
    its automorphism and exact predicted ratio are attached.
    """
    order = group.order
    if group.is_abelian:
        if order % 3 == 0:
            return ClassificationVerdict(
                Kind.NONE, {}, None, None, "abelian but order divisible by 3")
        alpha = build_type_I(group)
        return ClassificationVerdict(
            Kind.TYPE_I, {}, alpha, Fraction(1), "abelian, order coprime to 3")

    verdict = _try_type_iii(group)
    if verdict is not None:
        return verdict
    verdict = _try_type_ii(group)
    if verdict is not None:
        return verdict
    return ClassificationVerdict(Kind.NONE, {}, None, None, "no structure matched")


def _try_type_iii(group: FiniteGroup) -> Optional[ClassificationVerdict]:
    if group.order % 3 == 0:
        return None
    decomposition, _ = find_type3_decomposition(group)
    if decomposition is None:
        return None
    alpha, ratio = build_type_III(group, decomposition)
    kind = Kind.TYPE_III_I if decomposition.shape == "i" else Kind.TYPE_III_II
    witnesses = {
        "a_elements": decomposition.a_elements,
        "x_elements": decomposition.x_elements,
        "z_elements": decomposition.z_elements,
        "center": group.center,
    }
    return ClassificationVerdict(kind, witnesses, alpha, ratio,
                                 f"class 2 with shape ({decomposition.shape}) Sylow 2-subgroup")


def _try_type_ii(group: FiniteGroup) -> Optional[ClassificationVerdict]:
    """Type II through the first abelian K from ``_index_two_subgroups``,
    x the least element outside K. The Sylow condition, 3 not dividing
    |Z(G)|, holds for every K or none, so no other K is tried: a
    ``SylowCondition`` refusal gives None, any other is a bug and
    raised. The reported K, built unchecked, is re-validated."""
    k_sub = next((k for k in _index_two_subgroups(group) if k.is_abelian), None)
    if k_sub is None:
        return None
    x = next(g for g in group.elements() if g not in k_sub)
    try:
        alpha, ratio = build_type_II(group, k_sub, x)
    except SylowCondition:
        return None
    witnesses = {"K": group.subgroup(k_sub.elements), "S": group.sylow(3), "x": x}
    return ClassificationVerdict(Kind.TYPE_II, witnesses, alpha, ratio,
                                 "abelian subgroup of index 2 with the Sylow conditions")


def _index_two_subgroups(group: FiniteGroup) -> list:
    """All subgroups of index 2, ascending by elements: the kernels of
    the nonzero functionals on the elementary abelian 2-group G / G'G^2,
    with each element labelled by its coordinates there (2^r - 1 passes
    over G for rank r; no quotient table is built)."""
    t = group.table
    # G'G^2: modulo G' the squares of the generators generate every square
    m_sub = group.subgroup_generated(list(group.derived_subgroup.generators)
                                     + [t[g][g] for g in group.generating_set])
    # vec[y]: y's coordinates mod G'G^2 (-1 until reached); a generator g
    # outside the span reached so far doubles it to span + span*g
    vec = [0 if y in m_sub else -1 for y in group.elements()]
    rank = 0
    for g in group.generating_set:
        if vec[g] < 0:
            for y in [y for y in group.elements() if vec[y] >= 0]:
                vec[t[y][g]] = vec[y] | 1 << rank
            rank += 1
    return sorted((Subgroup(group, tuple(y for y in group.elements()
                                         if not (vec[y] & f).bit_count() & 1))
                   for f in range(1, 1 << rank)), key=lambda s: s.elements)
