"""Ordinary character tables by the Burnside-Dixon method.

All arithmetic is exact. Tables are computed modulo a prime l with
l = 1 (mod exponent) and l^2 > 4|G|^3, then lifted to dense integer
vectors over the basis 1, z, ..., z^{e-1} of e-th roots of unity: the
entry at z^m of a value is the multiplicity of the eigenvalue z^m.
Every table is built from its group on each call; nothing is stored
between runs. Up to A7, two thirds or more of a build is the split into
eigenspaces of the class matrices over GF(l). At A8 (20,160 elements)
about two thirds is the class multiplication constants, which compose
the encoded members of one class at a time with the group's codec and
look up the class of each product in the group's encoded class map
(PermGroup.class_map); no member is decoded. The lift reads every power
of z from one table of z^i mod l.

Frobenius-style triple counting over conjugacy classes lives here too,
driven entirely by the lifted table. It packs each vector into one
Python int, multiplies mod z^e - 1, and tests whether a sum v is the
rational integer c by one more product: v = c (mod Phi_e) exactly when
v Psi_e = c Psi_e (mod z^e - 1), where Psi_e = (z^e - 1) / Phi_e.
"""

import math
import operator
from functools import cache
from typing import NamedTuple

from . import ff, linalg
from .perm import GroupTooLarge, PermGroup, pinv, ppow


class LiftFailure(RuntimeError):
    """Internal consistency check failed during table construction."""


class NonIntegerResult(RuntimeError):
    """A count that must be a rational integer failed to reduce to one."""


# integer cyclotomic polynomials -------------------------------------------------


def _zpoly_divmod_exact_leading(a, b):
    # b monic; integer polynomial division
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    q = [0] * max(da - db + 1, 0)
    for i in range(da - db, -1, -1):
        c = a[i + db]
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] -= c * y
    while a and a[-1] == 0:
        a.pop()
    return tuple(q), tuple(a)


@cache
def cyclotomic_poly(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, low first."""
    f = tuple([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            q, r = _zpoly_divmod_exact_leading(f, cyclotomic_poly(d))
            if r:
                raise AssertionError("cyclotomic division left a remainder")
            f = q
    return f


@cache
def cyclotomic_cofactor(n: int) -> tuple:
    """Psi_n = (z^n - 1) / Phi_n, low first: the product of Phi_d over d | n, d < n."""
    q, r = _zpoly_divmod_exact_leading((-1,) + (0,) * (n - 1) + (1,), cyclotomic_poly(n))
    if r:
        raise AssertionError("cyclotomic division left a remainder")
    return q


# class algebra ----------------------------------------------------------------


def class_algebra(group: PermGroup) -> tuple:
    """The class multiplication constants over the group's classes:
    constants[i][j][k] = #{x in C_i : x^{-1} z_k in C_j}."""
    classes = group.conjugacy_classes()
    where = group.class_map()
    r = len(classes)
    codec = group.codec
    apply = codec.apply
    reps = [codec.right(codec.encode(c.rep)) for c in classes]
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        # as x runs over C_i, x^{-1} runs over the inverse class
        inverses = classes[group.class_of(pinv(classes[i].rep))].encoded
        row = a[i]
        for k, z in enumerate(reps):
            for w in inverses:
                row[where[apply(w, z)]][k] += 1
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
    )


def _central_characters(F, constants: tuple) -> list:
    """Joint eigenvectors of the class matrices, normalized at the identity."""
    r = len(constants)
    l = F.p
    mats = [
        [[constants[i][j][k] % l for k in range(r)] for j in range(r)]
        for i in range(r)
    ]
    spaces = [linalg.rref(F, linalg.eye(F, r))]
    for i in range(r):
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        nxt = []
        for rows, pivots in spaces:
            if len(rows) == 1:
                nxt.append((rows, pivots))
                continue
            nxt.extend(_split_space(F, mats[i], rows, pivots))
        spaces = nxt
    if any(len(rows) != 1 for rows, _ in spaces):
        raise LiftFailure("class matrices failed to separate the characters")
    out = []
    for rows, _ in spaces:
        v = rows[0]
        if v[0] == 0:
            raise LiftFailure("central character vanishes at the identity")
        inv = pow(v[0], -1, l)
        out.append(tuple(x * inv % l for x in v))
    return sorted(out)


def _split_space(F, mat, rows, pivots):
    """Split an invariant subspace into eigenspaces of one class matrix."""
    m = len(rows)
    R = linalg.restrict(F, mat, rows, pivots)
    if R is None:
        raise LiftFailure("class matrix does not preserve a split space")
    chp = linalg.char_poly(F, R)
    # column i of the transpose is b_i: a kernel vector's combination of the b_i
    span = linalg.transpose(rows)
    pieces = []
    total = 0
    for lam in ff.poly_roots(F, chp):
        kernel = linalg.nullspace(F, linalg.shift(F, [row[:] for row in R], lam))
        piece = linalg.rref(F, [linalg.mat_vec(F, span, cv) for cv in kernel])
        total += len(piece[0])
        pieces.append(piece)
    if total != m:
        raise LiftFailure("eigenspaces do not fill an invariant subspace")
    return pieces


# triple counting ---------------------------------------------------------------


def triple_count(table: CharTable, c1: int, c2: int, c3: int,
                 _pair_cache: dict = None) -> int:
    """Number of (x, y, z) in C1 x C2 x C3 with xyz = 1, by the column formula.

    _pair_cache is a dict the caller keeps for one table; across calls it
    holds the packed table (key None) and packed pair products."""
    cache = {} if _pair_cache is None else _pair_cache
    if None not in cache:
        cache[None] = _Packed(table)
    pk = cache[None]
    if (c1, c2) not in cache:
        cache[(c1, c2)] = [pk.fold(x * y) for x, y in zip(pk.column(c1), pk.column(c2))]
    total = 0
    for w, x, y in zip(pk.weights, cache[(c1, c2)], pk.column(c3)):
        total += w * (x * y)
    # total = c (mod Phi_e) exactly when total Psi = c Psi (mod z^e - 1)
    c, rest = divmod(pk.fold(pk.fold(total) * pk.psi_lifted) - pk.lift, pk.psi)
    if rest or abs(c) > pk.bound:
        raise NonIntegerResult("character sum is not a rational integer")
    sizes = table.classes[c1].size * table.classes[c2].size * table.classes[c3].size
    num = sizes * c
    den = table.group.order * pk.lcm
    if num % den:
        raise NonIntegerResult(f"count {num}/{den} is not an integer")
    n = num // den
    if n < 0:
        raise NonIntegerResult(f"negative count {n}")
    return n


class _Packed:
    """One table's cyclotomic integers packed into Python ints.

    A vector (n_0, ..., n_{e-1}) over the powers of z is the int
    sum n_m 2^(b m); a product is one int multiplication and a fold mod
    z^e - 1. Slot width: a lifted value counts eigenvalues, so its entries
    are >= 0 and sum to the degree d. So every product and sum has entries
    >= 0, and those of the total sum (L/d) chi(C1) chi(C2) chi(C3) sum to
    L sum d^2 = L|G|. With M = max |Psi_e| and J = 1 + z + ... + z^{e-1},
    Psi + M J has entries in [0, 2M], so the total times it has entries in
    [0, 2M L|G|]; so has c Psi + M L|G| J when |c| <= L|G|, as for any
    rational value c of the total. As 2^b > 2M L|G|, no entry carries into
    the next at any stage, and these two products are equal as ints
    exactly when they are equal as vectors."""

    def __init__(self, table: CharTable):
        self.values = table.values
        self.columns = {}
        self.lcm = math.lcm(*table.degrees)
        self.weights = [self.lcm // d for d in table.degrees]
        self.bound = self.lcm * table.group.order
        e = table.exponent
        psi = cyclotomic_cofactor(e)
        top = max(map(abs, psi))
        self.b = b = (2 * top * self.bound).bit_length()
        self.shift = b * e
        self.mask = (1 << self.shift) - 1
        ones = self.mask // ((1 << b) - 1)
        self.psi = sum(x << (b * m) for m, x in enumerate(psi))
        self.psi_lifted = self.psi + top * ones
        self.lift = top * self.bound * ones

    def fold(self, x: int) -> int:
        """x mod z^e - 1, for x of fewer than 2e entries."""
        return (x & self.mask) + (x >> self.shift)

    def column(self, cls: int) -> list:
        """The packed values of every character at one class."""
        if cls not in self.columns:
            b = self.b
            self.columns[cls] = [sum(x << (b * m) for m, x in enumerate(row[cls]) if x)
                                 for row in self.values]
        return self.columns[cls]
