"""Ordinary character tables by the Burnside-Dixon method.

All arithmetic is exact. Tables are computed modulo a prime l with
l = 1 (mod exponent) and l^2 > 4|G|^3, then lifted to dense integer
vectors over the basis 1, z, ..., z^{e-1} of e-th roots of unity: the
entry at z^m of a value is the multiplicity of the eigenvalue z^m.
Every table is built from its group on each call; nothing is stored
between runs. Below A7, 50 to 80 percent of a build is the central
characters, and 20 to 50 percent the roots in GF(l) of one class-algebra
element's characteristic polynomial. At A7 about 25 percent, and at A8
(20,160 elements) about 55, is the class multiplication constants, which
count one of each mirrored pair of columns (class_algebra), composing
the encoded members of one class at a time with the group's codec and
looking up the class of each product in the group's encoded class map
(PermGroup.class_map); no member is decoded. The lift reads every power
of z from one table of z^i mod l.

The table keeps the class multiplication constants, and class-triple
counts are read from them: no character value is multiplied.
"""

import math
import operator
from typing import NamedTuple

from . import ff, linalg
from .perm import GroupTooLarge, PermGroup, pinv, ppow


class LiftFailure(RuntimeError):
    """Internal consistency check failed during table construction."""


# class algebra ----------------------------------------------------------------


def class_algebra(group: PermGroup) -> tuple:
    """The class multiplication constants over the group's classes:
    constants[i][j][k] = #{x in C_i : x^{-1} z_k in C_j}, the number of
    (x, y) in C_i x C_j with xy = z_k.

    Counting the column (i, k), all j at once, costs |C_i| products, so
    only the columns with (|C_i|, i) <= (|C_k|, k) are counted. Reversing
    and inverting the product-one triples (x, y, (xy)^{-1}) gives
    |C_k| constants[i][j][k] = |C_i| constants[k][j bar][i], j bar the
    inverse class, which fills the other columns (Dixon 1967)."""
    classes = group.conjugacy_classes()
    where = group.class_map()
    r = len(classes)
    codec = group.codec
    apply = codec.apply
    reps = [codec.right(codec.encode(c.rep)) for c in classes]
    bar = [group.class_of(pinv(c.rep)) for c in classes]
    size = [c.size for c in classes]
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        # as x runs over C_i, x^{-1} runs over the inverse class
        inverses = classes[bar[i]].encoded
        row = a[i]
        for k, z in enumerate(reps):
            if (size[i], i) <= (size[k], k):
                for w in inverses:
                    row[where[apply(w, z)]][k] += 1
    for i in range(r):
        for k in range(r):
            if (size[i], i) > (size[k], k):
                for j in range(r):
                    n, rest = divmod(a[k][bar[j]][i] * size[i], size[k])
                    if rest:
                        raise LiftFailure("class constants break the inverse-triple symmetry")
                    a[i][j][k] = n
    return tuple(tuple(tuple(v) for v in m) for m in a)


# table construction ------------------------------------------------------------

MAX_CLASSES = 60   # most classes character_table takes


class CharTable(NamedTuple):
    group: PermGroup
    classes: tuple
    exponent: int
    modulus: int              # the Dixon prime l
    degrees: tuple
    values: tuple             # rows of length-e integer vectors over powers of zeta
    inverse_class: tuple      # position of the inverse class
    constants: tuple          # class_algebra(group)


def _dixon_prime(order: int, exponent: int) -> int:
    n = exponent + 1
    while n * n <= 4 * order**3 or not ff.is_prime(n):
        n += exponent
    return n


def character_table(group: PermGroup) -> CharTable:
    """GroupTooLarge above perm.CLASS_CAP elements or MAX_CLASSES classes,
    before any class multiplication constant is counted."""
    classes = group.conjugacy_classes()
    r = len(classes)
    if r > MAX_CLASSES:
        raise GroupTooLarge(f"{r} classes exceed {MAX_CLASSES}")
    constants = class_algebra(group)
    e = math.lcm(*(c.element_order for c in classes))
    l = _dixon_prime(group.order, e)
    F = ff.make_field(l)

    omegas = _central_characters(F, constants)
    inverse_class = tuple(group.class_of(pinv(c.rep)) for c in classes)

    inv_size = [pow(classes[j].size, -1, l) for j in range(r)]
    rows_mod = []
    degrees = []
    for v in omegas:
        s = 0
        for j in range(r):
            s = (s + v[j] * v[inverse_class[j]] * inv_size[j]) % l
        if s == 0:
            raise LiftFailure("degenerate character norm")
        d2 = group.order * pow(s, -1, l) % l
        d = math.isqrt(d2)
        if d * d != d2 or d == 0:
            raise LiftFailure(f"degree recovery failed: d^2 = {d2} mod {l}")
        degrees.append(d)
        rows_mod.append(tuple(d * v[j] * inv_size[j] % l for j in range(r)))

    z = pow(ff.multiplicative_generator(F), (l - 1) // e, l)
    zpow = [1] * e
    for i in range(1, e):
        zpow[i] = zpow[i - 1] * z % l
    # per class of order o: its power classes, e/o, 1/o mod l, and the
    # rows zo^(-m t) (m, t < o) for zo = z^(e/o)
    lifts = []
    for c in classes:
        o = c.element_order
        step = e // o
        lifts.append(([group.class_of(ppow(c.rep, t)) for t in range(o)], step, pow(o, -1, l),
                      [[zpow[(-m * t) % o * step] for t in range(o)] for m in range(o)]))
    rows_cyc = []
    for chi, d in enumerate(degrees):
        values = rows_mod[chi]
        row = []
        for j, (power_class, step, inv_o, twiddles) in enumerate(lifts):
            powers = [values[c] for c in power_class]
            vec = [0] * e
            check = 0
            for m, tw in enumerate(twiddles):
                n_m = sum(map(operator.mul, powers, tw)) * inv_o % l
                if n_m > d:
                    raise LiftFailure(f"eigenvalue multiplicity {n_m} exceeds degree {d}")
                vec[m * step] = n_m
                check += n_m * zpow[m * step]
            if check % l != values[j]:
                raise LiftFailure("lifted value does not reduce to the modular value")
            row.append(tuple(vec))
        rows_cyc.append(tuple(row))

    if sum(d * d for d in degrees) != group.order:
        raise LiftFailure("degree squares do not sum to the group order")

    order = sorted(range(len(degrees)), key=lambda i: (degrees[i], rows_cyc[i]))
    return CharTable(
        group=group,
        classes=classes,
        exponent=e,
        modulus=l,
        degrees=tuple(degrees[i] for i in order),
        values=tuple(rows_cyc[i] for i in order),
        inverse_class=inverse_class,
        constants=constants,
    )


def _central_characters(F, constants: tuple) -> list:
    """The eigenlines, normalized at the identity, of M_t = sum_i t^i A_i
    for the first t = 2, 3, ... whose characteristic polynomial has r
    distinct roots in GF(l) (Schneider). M_t commutes with every class
    matrix A_i, so each eigenline is a joint eigenvector. Two distinct
    central characters agree on M_t only at the roots of a nonzero
    polynomial in t of degree < r: at most r(r - 1)^2 / 2 values of t fail."""
    r = len(constants)
    l = F.p
    # entry (j, k) of M_t is sum_i t^i constants[i][j][k]
    coefficients = [list(zip(*(a[j] for a in constants))) for j in range(r)]
    for t in range(2, min(l, r * (r - 1) ** 2 // 2 + 3)):
        powers = [pow(t, i, l) for i in range(r)]
        mat = [[sum(map(operator.mul, powers, c)) % l for c in row] for row in coefficients]
        roots = ff.poly_roots(F, linalg.char_poly(F, mat))
        if len(roots) == r:
            break
    else:
        raise LiftFailure("no class-algebra element separates the characters")
    out = []
    for lam in roots:
        v = linalg.nullspace(F, linalg.shift(F, [row[:] for row in mat], lam))[0]
        if v[0] == 0:
            raise LiftFailure("central character vanishes at the identity")
        inv = pow(v[0], -1, l)
        out.append(tuple(x * inv % l for x in v))
    return sorted(out)


# triple counting ---------------------------------------------------------------


def triple_count(table: CharTable, c1: int, c2: int, c3: int,
                 _pair_cache: dict = None) -> int:
    """Number of (x, y, z) in C1 x C2 x C3 with xyz = 1.

    z runs over C3 exactly when xy runs over the inverse class, and every
    member w of that class is xy for as many pairs (x, y) in C1 x C2 as
    its representative, so the count is |C3| constants[c1][c2][c3 bar].
    _pair_cache is not read; it stays for callers that pass one."""
    return table.classes[c3].size * table.constants[c1][c2][table.inverse_class[c3]]
