"""Constructors for the standard groups the library works with.

Everything returns a FiniteGroup with identity 0, built from the rows
of a generating set by ``groups._from_generator_rows``, whose one walk
composes the whole table and proves it a group: a builder hands over k
rows of |G| entries, not |G|^2, and the walk composes |G| - 1 rows from
them and 2k^2 more for its proof, whatever k is. The projective groups
are built from the natural action on the projective line over GF(q),
via permutation closure.
"""

from __future__ import annotations

import math
from typing import Sequence

from .automorphisms import GroupMap
from .errors import UnsupportedParameter
from .groups import (
    MAX_ORDER,
    FiniteGroup,
    _from_generator_rows,
    _is_permutation,
    from_permutation_generators,
    prime_divisors,
)

# bounds n before n! is formed; S8 and A8 pass it and are refused by order
MAX_SYMMETRIC_DEGREE = 8
SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13)

# irreducible polynomials for the non-prime fields, coefficients low-to-high
_IRREDUCIBLE = {
    4: (1, 1, 1),        # x^2 + x + 1 over F2
    8: (1, 1, 0, 1),     # x^3 + x + 1 over F2
    9: (1, 0, 1),        # x^2 + 1 over F3
}


def _check_order(order: int) -> None:
    """Refuse a table above MAX_ORDER before allocating its order^2 entries."""
    if order > MAX_ORDER:
        try:
            shown = str(order)
        except ValueError:  # too many digits to convert to decimal
            shown = f">= 2^{order.bit_length() - 1}"
        raise UnsupportedParameter(f"order {shown} is above the limit {MAX_ORDER}")


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, written additively."""
    if n < 1:
        raise UnsupportedParameter("cyclic order must be positive")
    _check_order(n)
    rows = {1: tuple(range(1, n)) + (0,)} if n > 1 else {}
    return _from_generator_rows(n, rows, name=f"Z{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the n-gon), n >= 3.

    Element e*n + i encodes r^i s^e with s r s = r^-1; r = 1 and s = n
    generate.
    """
    if n < 3:
        raise UnsupportedParameter("dihedral parameter must be >= 3")
    order = 2 * n
    _check_order(order)

    def mul(x, y):
        i, e = x % n, x // n
        j, f = y % n, y // n
        if e == 0:
            return ((i + j) % n) + n * f
        return ((i - j) % n) + n * ((e + f) % 2)

    rows = {g: tuple([mul(g, y) for y in range(order)]) for g in (1, n)}
    return _from_generator_rows(order, rows, name=f"D{n}")


def quaternion8() -> FiniteGroup:
    """Quaternion group of order 8: <x,y | x^4 = 1, y^2 = x^2, y^-1xy = x^-1>.

    Element b*4 + a encodes x^a y^b; x = 1 and y = 4 generate.
    """

    def mul(u, v):
        a, b = u % 4, u // 4
        c, d = v % 4, v // 4
        if b == 0:
            return ((a + c) % 4) + 4 * d
        if d == 0:
            return ((a - c) % 4) + 4
        return (a - c + 2) % 4

    rows = {g: tuple([mul(g, v) for v in range(8)]) for g in (1, 4)}
    return _from_generator_rows(8, rows, name="Q8")


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n points, of order n! <= MAX_ORDER."""
    if not (1 <= n <= MAX_SYMMETRIC_DEGREE):
        raise UnsupportedParameter(f"symmetric degree must be 1..{MAX_SYMMETRIC_DEGREE}")
    order = math.factorial(n)
    _check_order(order)
    gens = []
    if n >= 2:
        gens.append(list(range(1, n)) + [0])      # n-cycle
        gens.append([1, 0] + list(range(2, n)))   # transposition
    return from_permutation_generators(gens, n, cap=order, name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    """Alternating group on n points, of order n!/2 <= MAX_ORDER."""
    if not (1 <= n <= MAX_SYMMETRIC_DEGREE):
        raise UnsupportedParameter(f"alternating degree must be 1..{MAX_SYMMETRIC_DEGREE}")
    cap = max(1, math.factorial(n) // 2)
    _check_order(cap)
    gens = []
    for k in range(2, n):
        # 3-cycle (0 1 k)
        perm = list(range(n))
        perm[0], perm[1], perm[k] = 1, k, 0
        gens.append(perm)
    return from_permutation_generators(gens, n, cap=cap, name=f"A{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product: the semidirect product with the trivial action, so
    element a*|H| + b encodes the pair (a, b)."""
    group = semidirect_product(g, h, [range(g.order)] * h.order)
    group.name = f"{g.name or 'G'}x{h.name or 'H'}"
    return group


def semidirect_product(n: FiniteGroup, h: FiniteGroup,
                       action: Sequence[Sequence[int]]) -> FiniteGroup:
    """Semidirect product N x| H for an action of H on N.

    ``action[k]`` is the image array of the automorphism of N attached
    to element k of H. The action must be a homomorphism into Aut(N)
    with action[k1*k2] = action[k1] after action[k2], matching the
    product (n1, h1)(n2, h2) = (n1 * action[h1](n2), h1 h2). Each
    distinct action[k] is checked on N's generating set, and, with
    action[0] the identity, the law on H's: every k2 is a word in them.
    """
    _check_order(n.order * h.order)
    if len(action) != h.order:
        raise UnsupportedParameter("need one automorphism of N per element of H")
    maps = [tuple(m) for m in action]
    # the law is checked once per distinct map (a direct product repeats
    # one map |H| times); passing the permutation test makes m hashable
    checked = set()
    for k, m in enumerate(maps):
        if not _is_permutation(m, n.order):
            raise UnsupportedParameter(f"action[{k}] is not a permutation of N")
        if m in checked:
            continue
        if GroupMap(n, n, m).homomorphism_witness() is not None:
            raise UnsupportedParameter(f"action[{k}] is not an automorphism of N")
        checked.add(m)
    if maps[0] != tuple(range(n.order)):
        raise UnsupportedParameter("action[0] must be the identity map")
    for k1, m1 in enumerate(maps):
        for g in h.generating_set:
            if maps[h.table[k1][g]] != tuple(map(m1.__getitem__, maps[g])):
                raise UnsupportedParameter("action is not a homomorphism into Aut(N)")
    # generated by N's generators (n1, 1), with (n1, 1)(n2, h2) = (n1 n2, h2),
    # and H's (1, h1), with (1, h1)(n2, h2) = (action[h1](n2), h1 h2)
    hn = h.order
    rows = {n1 * hn: tuple([x * hn + h2 for x in n.table[n1] for h2 in range(hn)])
            for n1 in n.generating_set}
    rows.update((h1, tuple([x * hn + y for x in maps[h1] for y in h.table[h1]]))
                for h1 in h.generating_set)
    return _from_generator_rows(n.order * hn, rows, name=f"{n.name or 'N'}:{h.name or 'H'}")


# ---------------------------------------------------------------------------
# GF(q) and the projective groups


def _field_tables(q: int):
    """Addition and multiplication tables for GF(q), q a prime power
    (in ``_IRREDUCIBLE`` unless prime).

    Elements are 0..q-1; non-prime fields encode polynomials base p
    with the constant term as the low digit.
    """
    primes = prime_divisors(q)
    if len(primes) != 1:
        raise UnsupportedParameter(f"{q} is not a prime power")
    p = primes[0]
    k = 1
    while p ** k < q:
        k += 1

    def digits(x):
        out = []
        for _ in range(k):
            out.append(x % p)
            x //= p
        return out

    def undigits(ds):
        x = 0
        for d in reversed(ds):
            x = x * p + d
        return x

    irred = _IRREDUCIBLE.get(q)  # None for a prime field, which never reduces
    add = [[undigits([(da + db) % p for da, db in zip(digits(a), digits(b))])
            for b in range(q)] for a in range(q)]

    def polymul(a, b):
        da, db = digits(a), digits(b)
        prod = [0] * (2 * k - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce modulo the irreducible polynomial (monic of degree k)
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for j in range(k):
                    prod[top - k + j] = (prod[top - k + j] - c * irred[j]) % p
        return undigits(prod[:k])

    mul = [[polymul(a, b) for b in range(q)] for a in range(q)]
    return add, mul


def _projective_permutation(matrix, q, add, mul, inverse):
    """Permutation of the q+1 projective points induced by a 2x2 matrix.

    Point i < q is [i : 1]; point q is [1 : 0].
    """
    a, b, c, d = matrix
    images = []
    for i in range(q + 1):
        x, y = (i, 1) if i < q else (1, 0)
        nx = add[mul[a][x]][mul[b][y]]
        ny = add[mul[c][x]][mul[d][y]]
        if ny != 0:
            images.append(mul[nx][inverse[ny]])
        else:
            images.append(q)
    return images


def _projective_group(q: int, extend_to_gl: bool, name: str, expected: int) -> FiniteGroup:
    if q not in SUPPORTED_Q:
        raise UnsupportedParameter(f"q must be one of {SUPPORTED_Q}")
    add, mul = _field_tables(q)
    inverse = [0] * q
    for x in range(1, q):
        inverse[x] = next(y for y in range(1, q) if mul[x][y] == 1)
    # p-basis of the field: 1, u, u^2, ... where u encodes the polynomial x
    p = prime_divisors(q)[0]
    basis = [1]
    while p ** len(basis) < q:
        basis.append(mul[basis[-1]][p])
    matrices = []
    for t in basis:
        matrices.append((1, t, 0, 1))
        matrices.append((1, 0, t, 1))
    if extend_to_gl:
        primitive = next((u for u in range(2, q)
                          if _multiplicative_order(u, mul) == q - 1), 1)
        matrices.append((primitive, 0, 0, 1))
    gens = [_projective_permutation(m, q, add, mul, inverse) for m in matrices]
    group = from_permutation_generators(gens, q + 1, cap=expected, name=name)
    if group.order != expected:
        raise UnsupportedParameter(
            f"{name}: closure has order {group.order}, expected {expected}")
    return group


def _multiplicative_order(u, mul):
    x, k = u, 1
    while x != 1:
        x = mul[x][u]
        k += 1
    return k


def psl2(q: int) -> FiniteGroup:
    """PSL(2, q) acting on the projective line, order q(q^2-1)/gcd(2,q-1)."""
    expected = q * (q * q - 1) // math.gcd(2, q - 1)
    return _projective_group(q, False, f"L2({q})", expected)


def pgl2(q: int) -> FiniteGroup:
    """PGL(2, q) acting on the projective line, order q(q^2-1)."""
    expected = q * (q * q - 1)
    return _projective_group(q, True, f"PGL2({q})", expected)


# ---------------------------------------------------------------------------
# The two central-extension families with many square-central elements


def type3_group_i(k: int) -> FiniteGroup:
    """Order 2^(2k+1): triples (v, w, z) in F2^k x F2^k x F2 with
    (v,w,z)(v',w',z') = (v+v', w+w', z+z'+w.v').

    Derived subgroup C2, center of order 2, central quotient elementary
    abelian of rank 2k carrying the standard symplectic commutator form.
    """
    if k < 1:
        raise UnsupportedParameter("k must be >= 1")
    if 2 * k + 1 >= MAX_ORDER.bit_length():  # 2^(2k+1) > MAX_ORDER, tested before forming it
        raise UnsupportedParameter(f"order 2^{2 * k + 1} is above the limit {MAX_ORDER}")
    order = 1 << (2 * k + 1)

    def mul(x, y):
        v1, w1, z1 = x >> (k + 1), (x >> 1) & ((1 << k) - 1), x & 1
        v2, w2, z2 = y >> (k + 1), (y >> 1) & ((1 << k) - 1), y & 1
        zinc = (w1 & v2).bit_count() & 1
        return ((v1 ^ v2) << (k + 1)) | ((w1 ^ w2) << 1) | (z1 ^ z2 ^ zinc)

    # the unit vectors of v and w generate; z is their commutator
    rows = {1 << j: tuple([mul(1 << j, y) for y in range(order)]) for j in range(1, 2 * k + 1)}
    return _from_generator_rows(order, rows, name=f"T3i({k})")


def type3_group_ii() -> FiniteGroup:
    """Order 64: triples (v, w, z) in F2^2 x F2^2 x F2^2 with the split
    pairing (v,w,z)(v',w',z') = (v+v', w+w', z+z'+(w1 v'1, w2 v'2)).

    Derived subgroup C2 x C2, central quotient elementary abelian of
    order 16. Each coordinate i multiplies on its own as (v_i, w_i, z_i)
    with z_i += w_i v'_i, so this is two coordinatewise copies of T3i(1),
    i.e. D4 x D4. |Aut| = 2048, and the maximum cube ratio over Aut is
    9/16 (not the shape (i) value 5/8).
    """

    def mul(x, y):
        v1, w1, z1 = x >> 4, (x >> 2) & 3, x & 3
        v2, w2, z2 = y >> 4, (y >> 2) & 3, y & 3
        return ((v1 ^ v2) << 4) | ((w1 ^ w2) << 2) | (z1 ^ z2 ^ (w1 & v2))

    # the unit vectors of v and w generate; each z_i is a commutator
    rows = {g: tuple([mul(g, y) for y in range(64)]) for g in (4, 8, 16, 32)}
    return _from_generator_rows(64, rows, name="T3ii")
