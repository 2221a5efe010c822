"""Finite fields GF(p^k) and dense univariate polynomials over them.

An element of GF(p^k) is an int in [0, q) whose base-p digits, lowest
first, are its coefficients over the canonical modulus; so 0 and 1 are
zero and one, and n < p is the constant n. No other module knows this.
The canonical modulus is the monic irreducible of degree k whose
coefficients (constant term first) read as the smallest base-p integer,
so fields built twice agree element for element. Polynomials are tuples
of elements, lowest degree first, trailing zeros stripped; zero is ().

Over a prime field the element operations are int arithmetic mod p. Over
GF(p^k), k > 1, add, sub, neg, mul and inv read the tables of tables(),
which exist up to q = TABLE_CAP and raise ValueError above it. pow (so
frobenius) is poly_pow_mod of the digit polynomial modulo the canonical
modulus over the prime field, at every q: tables() needs it to find the
multiplicative generator whose exp list fills MUL.

scale_vec and add_scaled, c v and v + c w, are the one copy of the row
operation: a ``% p`` comprehension over GF(p), one that indexes tables()
over GF(p^k). linalg, matrep, poly_scale and, over GF(p^k), poly_mul and
poly_divmod run on them. Over a prime field poly_mul and poly_divmod run
on plain ints instead, one reduction mod p per output coefficient (the
_*_mod helpers), and poly_pow_mod modulo a degree d >= 2 packs each
residue into one int (Kronecker substitution): a product is one int
multiply and its reduction O(d) steps. poly_is_irreducible is Ben-Or's
test. poly_roots takes one splitter per round, modulo the product of the
pieces still unsplit; over odd q, x^((q - 1)/2) mod f gives both x^q and
round 0's splitter. Squarefree decomposition plus root extraction
cover every factorization this package needs.
"""

from __future__ import annotations

from functools import partial, reduce
from math import gcd
from operator import add as _iadd, itemgetter, lshift as _lshift, mul as _imul, sub as _isub


class NotPrime(ValueError):
    """Characteristic is not a prime in the supported range."""


class DegreeOutOfRange(ValueError):
    """Extension degree outside 1..16 or field size at least 2**62."""


class NotMonic(ValueError):
    """Operation requires a monic polynomial."""


class DivisorZero(ZeroDivisionError):
    """Division by the zero polynomial."""


def is_prime(n: int) -> bool:
    """Deterministic trial division; adequate below 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list:
    """Distinct prime factors of n >= 1 in increasing order (trial division)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple:
    """(p, k) with q = p^k for a prime p; ValueError when q is not a prime power."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"{q} is less than 2")
    primes = prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, k = primes[0], 0
    while q > 1:
        q //= p
        k += 1
    return p, k


def multiplicative_order(a: int, n: int) -> int:
    """Smallest k >= 1 with a^k = 1 (mod n); ValueError when a is not a unit."""
    if n < 1 or gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    x, k = a % n, 1
    while x != 1 % n:
        x = x * a % n
        k += 1
    return k


TABLE_CAP = 256   # largest GF(p^k), k > 1, with tables, so with add, sub, neg, mul, inv


class FieldCtx:
    """Arithmetic context for GF(p^k); an element is an int in [0, q).

    Over GF(p), every operation is int arithmetic mod p. Over GF(p^k),
    k > 1, add, sub, neg, mul and inv read tables(), built on the first
    call, so they serve q <= TABLE_CAP only and raise ValueError above;
    pow, frobenius and element serve every q; over GF(p^k), k > 1, pow
    takes the power of the digit polynomial over the context's prime
    field GF(p).
    """

    __slots__ = ("p", "k", "q", "modulus", "zero", "one", "_places", "_base", "_tables")

    def __init__(self, p: int, k: int, modulus: tuple):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        self._places = self._base = self._tables = None
        if k > 1:
            self._places = [p**i for i in range(k)]
            self._base = FieldCtx(p, 1, (0, 1))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    # element arithmetic ------------------------------------------------

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return self.tables()[0][a][b]

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        return self.tables()[1][a][b]

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        return self.tables()[2][a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        if self.k == 1:
            return pow(a, -1, self.p)
        return self.tables()[3][a]

    def pow(self, a, e: int):
        if e < 0:
            if a == 0:
                raise ZeroDivisionError("field inverse of zero")
            e %= self.q - 1
        if self.k == 1:
            return pow(a, e, self.p)
        return self._pack(poly_pow_mod(self._base, self._digits(a), e, self.modulus))

    def frobenius(self, a, i: int = 1):
        """a -> a^(p^i)."""
        return self.pow(a, self.p ** (i % self.k))

    def element(self, n: int) -> int:
        """n itself when it is an element, an int in [0, q); ValueError otherwise."""
        if type(n) is not int or not 0 <= n < self.q:
            raise ValueError(f"GF({self.q}) element out of range: {n!r}")
        return n

    # base-p digits: the coefficients, constant term first ----------------

    def _digits(self, n: int) -> list:
        p = self.p
        return [n // e % p for e in self._places]

    def _pack(self, digits) -> int:
        # a polynomial of degree below k, trailing zeros stripped or not
        return sum(map(_imul, digits, self._places))

    # linear-algebra tables ----------------------------------------------

    def tables(self) -> tuple:
        """(ADD, SUB, MUL, INV) of GF(p^k), k > 1 and q <= TABLE_CAP, built
        once: ADD[x][y] = x + y, SUB[x][y] = x - y and MUL[x][y] = x * y,
        each row a bytes; INV[x] = 1 / x for x != 0.

        ADD and SUB grow one base-p digit at a time: below p^(j+1) an
        element is x + d p^j with x below p^j, and (x + d p^j) ± (y + e p^j)
        is (x ± y) + ((d ± e) mod p) p^j, so a row is p rows of the smaller
        table, each shifted by one translate.  MUL reads the exp and log
        lists of multiplicative_generator g: exp holds the q - 1 powers of
        g's digit polynomial modulo the modulus."""
        if self._tables is None:
            if self.k == 1 or self.q > TABLE_CAP:
                raise ValueError(f"{self!r} has no tables: they cover GF(p^k), "
                                 f"k > 1, up to q = {TABLE_CAP}")
            p, q = self.p, self.q
            add = sub = [bytes(1)]   # the tables of {0}
            for place in self._places:
                # shift[c] maps v to v + c p^j; only v below p^j is read
                shift = [bytes((v + c * place) & 255 for v in range(256)) for c in range(p)]
                add, sub = ([b"".join(row.translate(shift[op(d, e) % p]) for e in range(p))
                             for d in range(p) for row in table]
                            for table, op in ((add, _iadd), (sub, _isub)))
            B, g = self._base, self._digits(multiplicative_generator(self))
            exp, t = [1], (1,)
            for _ in range(q - 2):
                t = poly_mod(B, poly_mul(B, t, g), self.modulus)
                exp.append(self._pack(t))
            log = [0] * q
            for i, x in enumerate(exp):
                log[x] = i
            # row x at y != 0 is exp[log x + log y]: a window of exp, permuted
            by_log = itemgetter(*log[1:])
            exp += exp
            mul = [bytes(q)] + [bytes((0,) + by_log(exp[i:i + q - 1])) for i in log[1:]]
            self._tables = add, sub, mul, [None] + [row.index(1) for row in mul[1:]]
        return self._tables


def make_field(p: int, k: int = 1) -> FieldCtx:
    """Build GF(p^k) with the canonical modulus.

    The degree-1 modulus is x itself, so prime fields carry a uniform
    (p, k, modulus) shape.
    """
    if not isinstance(p, int) or p >= 2**31 or not is_prime(p):
        raise NotPrime(f"characteristic must be a prime below 2**31, got {p!r}")
    if not isinstance(k, int) or not 1 <= k <= 16:
        raise DegreeOutOfRange(f"extension degree must be in 1..16, got {k!r}")
    if p**k >= 2**62:
        raise DegreeOutOfRange(f"field size {p}^{k} is at least 2**62")
    if k == 1:
        return FieldCtx(p, 1, (0, 1))
    return FieldCtx(p, k, canonical_modulus(p, k))


def multiplicative_generator(F: FieldCtx):
    """The smallest generator of the multiplicative group."""
    n = F.q - 1
    primes = prime_factors(n)
    for x in range(1, F.q):
        if all(F.pow(x, n // r) != 1 for r in primes):
            return x
    raise AssertionError("multiplicative group has a generator; unreachable")


def canonical_modulus(p: int, k: int) -> tuple:
    """Smallest monic irreducible of degree k >= 2, by base-p coefficient
    reading; a zero constant term (n divisible by p) leaves the factor x."""
    base = make_field(p)
    for n in range(1, p**k):
        f = tuple(n // p**i % p for i in range(k)) + (1,)
        if n % p and poly_is_irreducible(base, f):
            return f
    raise AssertionError("no irreducible polynomial found; unreachable")


def scale_vec(F: FieldCtx, c, v) -> list:
    """c * v."""
    if F.k == 1:
        p = F.p
        return [c * x % p for x in v]
    m = F.tables()[2][c]
    return [m[x] for x in v]


def add_scaled(F: FieldCtx, v, c, w) -> list:
    """v + c * w, as long as the shorter of v and w."""
    if F.k == 1:
        p = F.p
        return [(x + c * y) % p for x, y in zip(v, w)]
    ADD, _, MUL, _ = F.tables()
    m = MUL[c]
    return [ADD[x][m[y]] for x, y in zip(v, w)]


# polynomial layer -------------------------------------------------------
# Coefficients live in a FieldCtx F; tuples, lowest degree first.


def _strip(coeffs: list) -> tuple:
    """Elements without their trailing zeros, as a polynomial."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def poly_deg(f) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def poly_x(F: FieldCtx) -> tuple:
    return (F.zero, F.one)


def poly_add(F: FieldCtx, a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return _strip(out)


def poly_sub(F: FieldCtx, a, b) -> tuple:
    out = list(a) + [F.zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = F.sub(out[i], c)
    return _strip(out)


def poly_scale(F: FieldCtx, f, s) -> tuple:
    if not s:
        return ()
    return _strip(scale_vec(F, s, f))


def poly_mul(F: FieldCtx, a, b) -> tuple:
    if not a or not b:
        return ()
    if F.k == 1:
        return _poly_mul_mod(F.p, a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + len(b)] = add_scaled(F, out[i:i + len(b)], x, b)
    return _strip(out)


def _poly_mul_mod(p: int, a, b) -> tuple:
    # integer convolution, one reduction per output coefficient
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _strip([c % p for c in out])


def poly_divmod(F: FieldCtx, a, b) -> tuple:
    if not b:
        raise DivisorZero("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    if F.k == 1:
        return _poly_divmod_mod(F.p, a, b)
    # adding c x^(i-db) (-b / lead) clears the remainder's coefficient c
    # at i; the quotient collects each c and is divided by lead once
    db = len(b) - 1
    lead_inv = F.inv(b[-1])
    nb = scale_vec(F, F.neg(lead_inv), b)
    rem, quo = list(a), [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            quo[i - db] = c
            rem[i - db:i] = add_scaled(F, rem[i - db:i], c, nb)
    return _strip(scale_vec(F, lead_inv, quo)), _strip(rem[:db])


def _poly_divmod_mod(p: int, a, b) -> tuple:
    # the remainder stays unreduced until a coefficient is read
    rem = list(a)
    db = len(b) - 1
    lead_inv = pow(b[-1], -1, p)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i] % p
        if c:
            q = c * lead_inv % p
            lo = i - db
            quo[lo] = q
            for j in range(db):
                rem[lo + j] -= q * b[j]
    return _strip(quo), _strip([c % p for c in rem[:db]])


def poly_mod(F: FieldCtx, a, b) -> tuple:
    return poly_divmod(F, a, b)[1]


def poly_monic(F: FieldCtx, f) -> tuple:
    if not f:
        return ()
    lead = f[-1]
    if lead == F.one:
        return f
    return poly_scale(F, f, F.inv(lead))


def poly_gcd(F: FieldCtx, a, b) -> tuple:
    """Monic greatest common divisor."""
    while b:
        a, b = b, poly_mod(F, a, b)
    return poly_monic(F, a)


def poly_pow_mod(F: FieldCtx, a, e: int, m) -> tuple:
    """a^e mod m for e >= 0; a^0 is 1 mod m, so () when m is a constant."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    base = poly_mod(F, a, m)
    if F.k == 1 and poly_deg(m) >= 2:
        return _pow_mod_packed(F.p, base, e, m)
    acc = (F.one,) if poly_deg(m) > 0 else ()
    while e:
        if e & 1:
            acc = poly_mod(F, poly_mul(F, acc, base), m)
        base = poly_mod(F, poly_mul(F, base, base), m)
        e >>= 1
    return acc


def _pow_mod_packed(p: int, a, e: int, m) -> tuple:
    # Kronecker substitution: the residue c_0 + ... + c_(d-1) x^(d-1) is the
    # int sum c_i 2^(w i), so one int product is the polynomial product, its
    # slots below d p^2. Reduction adds (c mod p)(x^(d+i) mod m) for each
    # high slot c, so a slot stays below 2 d p^2 < 2^w.
    d = len(m) - 1
    w = (2 * d * p * p).bit_length()
    mask, low = (1 << w) - 1, (1 << d * w) - 1
    lo, hi = range(0, d * w, w), range(d * w, (2 * d - 1) * w, w)
    lead_inv = pow(m[-1], -1, p)
    top = [-c * lead_inv % p for c in m[:-1]]   # x^d mod m
    row, rows = top, []                         # rows[i]: x^(d+i) mod m, packed
    for _ in hi:
        rows.append(sum(map(_lshift, row, lo)))
        row = [(row[-1] * c + prev) % p for c, prev in zip(top, [0] + row[:-1])]
    b, acc = sum(map(_lshift, a, lo)), 1
    for bit in bin(e)[2:]:
        for v in (acc, b) if bit == "1" else (acc,):   # square; on a 1 bit, times b
            n = acc * v
            r = n & low
            for s, x in zip(hi, rows):
                r += (n >> s & mask) % p * x
            acc = sum((r >> s & mask) % p << s for s in lo)
    return _strip([acc >> s & mask for s in lo])


def poly_eval(F: FieldCtx, f, x):
    acc = F.zero
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_deriv(F: FieldCtx, f) -> tuple:
    # i mod p < p is the constant i in every field
    return _strip([F.mul(i % F.p, f[i]) for i in range(1, len(f))])


def poly_divides(F: FieldCtx, d, f) -> bool:
    """True when d divides f; DivisorZero for d = 0."""
    if not d:
        raise DivisorZero("zero polynomial divides nothing")
    return not poly_mod(F, f, d)


def poly_is_irreducible(F: FieldCtx, f) -> bool:
    """Irreducibility of monic f of degree n (Ben-Or): f is reducible
    exactly when it has a factor of some degree d <= n/2, that is when
    gcd(x^(q^d) - x, f) != 1."""
    n = poly_deg(f)
    if n < 1:
        return False
    if f[-1] != F.one:
        raise NotMonic("irreducibility test expects a monic polynomial")
    x = t = poly_x(F)
    for _ in range(n // 2):
        t = poly_pow_mod(F, t, F.q, f)
        if poly_deg(poly_gcd(F, poly_sub(F, t, x), f)) > 0:
            return False
    return True


def squarefree_decomposition(F: FieldCtx, f) -> list:
    """Monic f as a product of pairwise coprime squarefree parts.

    Returns [(g, m), ...] with multiplicities strictly increasing and
    prod g^m = f.  Handles the characteristic-p collapse f = h(x^p).
    """
    if not f:
        raise ValueError("zero polynomial has no squarefree decomposition")
    if f[-1] != F.one:
        raise NotMonic("squarefree decomposition expects a monic polynomial")
    if poly_deg(f) == 0:
        return []
    out = {}
    _sqfree_into(F, f, 1, out)
    return [(out[m], m) for m in sorted(out)]


def _sqfree_into(F: FieldCtx, f, mult: int, out: dict) -> None:
    # f' = 0 makes c = f and w = 1: all of f is a p-th power
    c = poly_gcd(F, f, poly_deriv(F, f))
    w = poly_divmod(F, f, c)[0]
    i = 1
    while poly_deg(w) > 0:
        y = poly_gcd(F, w, c)
        z = poly_divmod(F, w, y)[0]
        if poly_deg(z) > 0:
            key = mult * i
            out[key] = poly_mul(F, out[key], z) if key in out else z
        w = y
        c = poly_divmod(F, c, y)[0]
        i += 1
    if poly_deg(c) > 0:
        # c' = 0, so c(x) = h(x)^p, h's coefficient at x^i the p-th root
        # of c's at x^(ip), its (q/p)-th power
        h = _strip([F.pow(e, F.q // F.p) for e in c[::F.p]])
        _sqfree_into(F, h, mult * F.p, out)


def root_multiplicity(F: FieldCtx, f, a) -> int:
    """Multiplicity of the root a in f (0 when a is not a root)."""
    if not f:
        raise ValueError("zero polynomial")
    lin = (F.neg(a), F.one)
    m = 0
    while True:
        f, r = poly_divmod(F, f, lin)
        if r:
            return m
        m += 1


def poly_roots(F: FieldCtx, f) -> list:
    """Distinct roots of f in the field, in increasing order.

    gcd(x^q - x, f) is the product of f's distinct linear factors. Round
    s = 0, 1, ... splits each piece of it still unsplit by its gcd with one
    splitter, taken modulo the product of those pieces; two distinct roots
    fall apart in some round s < q."""
    if not f:
        raise ValueError("zero polynomial")
    i = next(i for i, c in enumerate(f) if c)   # split off x^i
    roots, f = [F.zero] if i else [], poly_monic(F, tuple(f[i:]))
    if len(f) < 2:
        return roots
    x, half = poly_x(F), None
    if F.p == 2:
        xq = poly_pow_mod(F, x, F.q, f)
    else:
        # x^q = x h^2 for h = x^((q - 1)/2), and h - 1 is round 0's splitter
        half = poly_pow_mod(F, x, (F.q - 1) // 2, f)
        xq = poly_mod(F, (F.zero,) + poly_mul(F, half, half), f)
    pieces = [poly_gcd(F, poly_sub(F, xq, x), f)]
    splitter = _even_splitter if F.p == 2 else _odd_splitter
    for s in range(F.q + 1):
        unsplit = []
        for h in pieces:
            if len(h) == 2:
                roots.append(F.neg(h[0]))
            elif len(h) > 2:
                unsplit.append(h)
        if not unsplit:
            return sorted(roots)
        if s == F.q:
            raise AssertionError("linear factor splitting failed; unreachable")
        whole = reduce(partial(poly_mul, F), unsplit)
        if s or half is None:
            t = splitter(F, whole, s)
        else:   # whole divides f
            t = poly_sub(F, poly_mod(F, half, whole), (F.one,))
        pieces = []
        for h in unsplit:
            g = poly_gcd(F, poly_mod(F, t, h), h)
            pieces += (g, poly_divmod(F, h, g)[0]) if 1 < len(g) < len(h) else (h,)


def _odd_splitter(F: FieldCtx, g, s) -> tuple:
    return poly_sub(F, poly_pow_mod(F, (s, F.one), (F.q - 1) // 2, g), (F.one,))


def _even_splitter(F: FieldCtx, g, s) -> tuple:
    # trace map of s*x splits roots over GF(2^k)
    acc = term = poly_mod(F, poly_scale(F, poly_x(F), s), g)
    for _ in range(F.k - 1):
        term = poly_mod(F, poly_mul(F, term, term), g)
        acc = poly_add(F, acc, term)
    return acc
