"""The tuple field and its method loops: the reference for ff and linalg.

A TupleField is GF(p^k) with an element stored as the k-tuple of its
coefficients with respect to ff's canonical modulus, constant term first
(a plain residue when k = 1). A product is the polynomial product reduced
by schoolbook division by the modulus. encode and element convert to and
from ff's int format: the base-p reading of the tuple.

The loops below make one TupleField method call per entry, as ff and
linalg did before their elements became ints; ff's int path and linalg's
table and ``% p`` loops are held equal to them.
"""

from fixspace import ff


class TupleField:
    def __init__(self, p: int, k: int = 1):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = ff.make_field(p, k).modulus
        if k == 1:
            self.zero, self.one = 0, 1
            return
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        # the modulus is monic: clear the top coefficient, degree by degree
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            for i, m in enumerate(self.modulus):
                prod[d - k + i] -= c * m
        return tuple(c % p for c in prod[:k])

    def pow(self, a, e: int):
        acc = self.one
        for _ in range(e):
            acc = self.mul(acc, a)
        return acc

    def power(self, a, e: int):
        """a^e by square and multiply; pow above is the slow reference."""
        acc, base = self.one, a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("field inverse of zero")
        if self.k == 1:
            return pow(a, -1, self.p)
        return self.power(a, self.q - 2)

    def is_zero(self, a) -> bool:
        return a == self.zero

    def encode(self, a) -> int:
        if self.k == 1:
            return a
        n = 0
        for c in reversed(a):
            n = n * self.p + c
        return n

    def element(self, n: int):
        if self.k == 1:
            return n
        out = []
        for _ in range(self.k):
            n, d = divmod(n, self.p)
            out.append(d)
        return tuple(out)

    def lift(self, rows) -> list:
        """A matrix of ints as a matrix of elements."""
        return [[self.element(x) for x in r] for r in rows]

    def drop(self, rows) -> list:
        """A matrix of elements as a matrix of ints."""
        return [[self.encode(x) for x in r] for r in rows]


# linalg loops --------------------------------------------------------------


def rref_field(F: TupleField, rows: list):
    M = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(M)):
            if M[i][c] != F.zero:
                pr = i
                break
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = F.inv(M[r][c])
        if inv != F.one:
            M[r] = [F.mul(inv, x) for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != F.zero:
                f = M[i][c]
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M[:r], pivots


def reduce_vec_field(F: TupleField, rows: list, pivots: list, v) -> list:
    v = list(v)
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if c != F.zero:
            v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
    return v


def mat_vec_field(F: TupleField, A: list, v) -> tuple:
    out = []
    for row in A:
        acc = F.zero
        for a, x in zip(row, v):
            acc = F.add(acc, F.mul(a, x))
        out.append(acc)
    return tuple(out)


def rref_ints(F: TupleField, rows: list):
    """rref_field on a matrix of ints, with its rows as ints."""
    M, pivots = rref_field(F, F.lift(rows))
    return F.drop(M), pivots


# polynomial loops ------------------------------------------------------------


def poly_norm(F: TupleField, coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and F.is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


def poly_mul_field(F: TupleField, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_norm(F, out)


def poly_divmod_field(F: TupleField, a, b) -> tuple:
    if len(a) < len(b):
        return (), tuple(a)
    rem = list(a)
    db = len(b) - 1
    lead_inv = F.inv(b[-1])
    quo = [F.zero] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if F.is_zero(c):
            continue
        q = F.mul(c, lead_inv)
        quo[i - db] = q
        for j in range(db + 1):
            rem[i - db + j] = F.sub(rem[i - db + j], F.mul(q, b[j]))
    return poly_norm(F, quo), poly_norm(F, rem)


def poly_pow_mod_field(F: TupleField, a, e: int, m) -> tuple:
    """a^e mod m by square and multiply on the loops above; 1 mod m is ()
    when m is a constant."""
    base = poly_divmod_field(F, poly_norm(F, a), m)[1]
    acc = (F.one,) if len(m) > 1 else ()
    while e:
        if e & 1:
            acc = poly_divmod_field(F, poly_mul_field(F, acc, base), m)[1]
        base = poly_divmod_field(F, poly_mul_field(F, base, base), m)[1]
        e >>= 1
    return acc
