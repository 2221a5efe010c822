"""Finite fields GF(p^k) and dense univariate polynomials over them.

An element of GF(p^k) is an int in [0, q) whose base-p digits, lowest
first, are its coefficients over the canonical modulus; so 0 and 1 are
zero and one, and n < p is the constant n. No other module knows this.
The canonical modulus is the monic irreducible of degree k whose
coefficients (constant term first) read as the smallest base-p integer,
so fields built twice agree element for element. Polynomials are tuples
of elements, lowest degree first, trailing zeros stripped; zero is ().

For k > 1 and q <= TABLE_CAP, tables() fills the add, sub, mul and
inverse tables that linalg's loops read: add and sub digit by digit, mul
from exp/log lists, with O(q) digit products. FieldCtx.mul and inv read
those tables there; above the cap they multiply digits as polynomials
reduced by the modulus.

Over a prime field, poly_mul and poly_divmod run on plain ints, with one
reduction mod p per output coefficient (the _*_mod helpers), and so does
everything built on them (poly_mod, poly_gcd, poly_pow_mod, poly_roots,
squarefree decomposition); for k > 1 they loop over FieldCtx operations
(the _*_field helpers). Squarefree decomposition plus root extraction
cover every factorization this package needs.
"""

from __future__ import annotations

from math import gcd
from operator import add as _iadd, itemgetter, mul as _imul, sub as _isub


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


TABLE_CAP = 256   # largest GF(p^k), k > 1, with linear-algebra tables


class FieldCtx:
    """Arithmetic context for GF(p^k); an element is an int in [0, q).

    add/sub/neg/pow/frobenius follow the definition in the module
    docstring and build nothing; so do mul and inv, except over GF(p^k),
    k > 1, q <= TABLE_CAP, where they read tables(). tables() gives the
    linear-algebra loops their table rows, built on the first call.
    """

    __slots__ = ("p", "k", "q", "modulus", "zero", "one", "_places", "_tables")

    def __init__(self, p: int, k: int, modulus: tuple):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        self._places = self._tables = None
        if k > 1:
            self._places = [p**i for i in range(k)]

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    # element arithmetic ------------------------------------------------

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        return self._pack([(x + y) % p for x, y in zip(self._digits(a), self._digits(b))])

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        p = self.p
        return self._pack([(x - y) % p for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        p = self.p
        return self._pack([(-x) % p for x in self._digits(a)])

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        if self.q <= TABLE_CAP:
            return self.tables()[2][a][b]
        return self._pack(self._mul_digits(self._digits(a), self._digits(b)))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        if self.k == 1:
            return pow(a, -1, self.p)
        if self.q <= TABLE_CAP:
            return self.tables()[3][a]
        return self.pow(a, self.q - 2)

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        acc = [1] + [0] * (self.k - 1)
        base = self._digits(a)
        while e:
            if e & 1:
                acc = self._mul_digits(acc, base)
            base = self._mul_digits(base, base)
            e >>= 1
        return self._pack(acc)

    def frobenius(self, a, i: int = 1):
        """a -> a^(p^i)."""
        return self.pow(a, self.p ** (i % self.k if self.k > 1 else 1))

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
        return sum(map(_imul, digits, self._places))

    def _mul_digits(self, a: list, b: list) -> list:
        """Product of two digit lists: the polynomial product reduced by the
        monic modulus, c x^d taking off c x^(d-k) modulus from the top down."""
        p, k, modulus = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        prod[j] += x * y
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % p
            if c:
                for i in range(k):
                    prod[d - k + i] -= c * modulus[i]
        return [x % p for x in prod[:k]]

    # linear-algebra tables ----------------------------------------------

    def tables(self) -> tuple:
        """(ADD, SUB, MUL, INV) of GF(p^k), k > 1 and q <= TABLE_CAP, built
        once: ADD[x][y] = x + y, SUB[x][y] = x - y and MUL[x][y] = x * y,
        each row a bytes; INV[x] = 1 / x for x != 0.

        ADD and SUB grow one base-p digit at a time: below p^(j+1) an
        element is x + d p^j with x below p^j, and (x + d p^j) ± (y + e p^j)
        is (x ± y) + ((d ± e) mod p) p^j, so a row is p rows of the smaller
        table, each shifted by one translate.  MUL reads the exp and log
        lists of multiplicative_generator, found with q - 2 digit products."""
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
            g = self._digits(multiplicative_generator(self))
            exp = [1]
            for _ in range(q - 2):
                exp.append(self._pack(self._mul_digits(self._digits(exp[-1]), g)))
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
    if not isinstance(p, int) or not is_prime(p) or p >= 2**31:
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
    return _strip([F.mul(c, s) for c in f])


def poly_mul(F: FieldCtx, a, b) -> tuple:
    if not a or not b:
        return ()
    if F.k == 1:
        return _poly_mul_mod(F.p, a, b)
    return _poly_mul_field(F, a, b)


def _poly_mul_mod(p: int, a, b) -> tuple:
    # integer convolution, one reduction per output coefficient
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _strip([c % p for c in out])


def _poly_mul_field(F: FieldCtx, a, b) -> tuple:
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _strip(out)


def poly_divmod(F: FieldCtx, a, b) -> tuple:
    if not b:
        raise DivisorZero("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    if F.k == 1:
        return _poly_divmod_mod(F.p, a, b)
    return _poly_divmod_field(F, a, b)


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


def _poly_divmod_field(F: FieldCtx, a, b) -> tuple:
    rem = list(a)
    db = len(b) - 1
    lead_inv = F.inv(b[-1])
    quo = [F.zero] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        q = F.mul(c, lead_inv)
        quo[i - db] = q
        for j in range(db + 1):
            rem[i - db + j] = F.sub(rem[i - db + j], F.mul(q, b[j]))
    return _strip(quo), _strip(rem)


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
    acc = (F.one,) if poly_deg(m) > 0 else ()
    while e:
        if e & 1:
            acc = poly_mod(F, poly_mul(F, acc, base), m)
        base = poly_mod(F, poly_mul(F, base, base), m)
        e >>= 1
    return acc


def poly_eval(F: FieldCtx, f, x):
    acc = F.zero
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_deriv(F: FieldCtx, f) -> tuple:
    p = F.p
    out = []
    for i in range(1, len(f)):
        m = i % p
        if m == 0:
            out.append(F.zero)
        elif m == 1:
            out.append(f[i])
        else:
            out.append(F.mul(m, f[i]))
    return _strip(out)


def poly_divides(F: FieldCtx, d, f) -> bool:
    """True when d divides f; DivisorZero for d = 0."""
    if not d:
        raise DivisorZero("zero polynomial divides nothing")
    return not poly_mod(F, f, d)


def poly_is_irreducible(F: FieldCtx, f) -> bool:
    """Irreducibility of monic f: x^(q^deg) fixes x and no proper-divisor
    Frobenius power shares a factor with f."""
    n = poly_deg(f)
    if n < 1:
        return False
    if f[-1] != F.one:
        raise NotMonic("irreducibility test expects a monic polynomial")
    if n == 1:
        return True
    x = poly_x(F)
    t = x
    powers = {}
    for d in range(1, n + 1):
        t = poly_pow_mod(F, t, F.q, f)
        powers[d] = t
    if powers[n] != poly_mod(F, x, f):
        return False
    for d in range(1, n):
        if n % d == 0:
            g = poly_gcd(F, poly_sub(F, powers[d], x), f)
            if poly_deg(g) != 0:
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
    df = poly_deriv(F, f)
    if not df:
        _sqfree_into(F, _pth_root_poly(F, f), mult * F.p, out)
        return
    c = poly_gcd(F, f, df)
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
        _sqfree_into(F, _pth_root_poly(F, c), mult * F.p, out)


def _pth_root_poly(F: FieldCtx, f) -> tuple:
    """For f with zero derivative, the g with g(x)^p = f(x)."""
    p = F.p
    out = []
    for i in range(0, len(f), p):
        c = f[i]
        # coefficient p-th root: inverse Frobenius
        out.append(c if F.k == 1 else F.pow(c, F.q // p))
    return _strip(out)


def root_multiplicity(F: FieldCtx, f, a) -> int:
    """Multiplicity of the root a in f (0 when a is not a root)."""
    if not f:
        raise ValueError("zero polynomial")
    lin = (F.neg(a), F.one)
    m = 0
    while True:
        q, r = poly_divmod(F, f, lin)
        if r:
            return m
        m += 1
        f = q
        if not f:
            return m


def poly_roots(F: FieldCtx, f) -> list:
    """Distinct roots of f in the field, in increasing order."""
    if not f:
        raise ValueError("zero polynomial")
    roots = []
    # split off x-power
    i = 0
    while i < len(f) and not f[i]:
        i += 1
    if i > 0:
        roots.append(F.zero)
        f = _strip(list(f[i:]))
    if poly_deg(f) >= 1:
        f = poly_monic(F, f)
        xq = poly_pow_mod(F, poly_x(F), F.q, f)
        g = poly_gcd(F, poly_sub(F, xq, poly_x(F)), f)
        _collect_linear_roots(F, g, roots)
    return sorted(roots)


def _collect_linear_roots(F: FieldCtx, g, roots: list) -> None:
    """Roots of a monic product of distinct linear factors, recursively."""
    d = poly_deg(g)
    if d <= 0:
        return
    if d == 1:
        roots.append(F.neg(g[0]))
        return
    if F.p == 2:
        splitter = _even_splitter
    else:
        splitter = _odd_splitter
    for s in range(F.q):
        h = splitter(F, g, s)
        dh = poly_deg(h)
        if 0 < dh < d:
            _collect_linear_roots(F, h, roots)
            _collect_linear_roots(F, poly_divmod(F, g, h)[0], roots)
            return
    raise AssertionError("linear factor splitting failed; unreachable")


def _odd_splitter(F: FieldCtx, g, s) -> tuple:
    shifted = (s, F.one)
    t = poly_pow_mod(F, shifted, (F.q - 1) // 2, g)
    return poly_gcd(F, poly_sub(F, t, (F.one,)), g)


def _even_splitter(F: FieldCtx, g, s) -> tuple:
    # trace map of s*x splits roots over GF(2^k)
    term = poly_mod(F, poly_scale(F, poly_x(F), s), g)
    acc = term
    e = F.q.bit_length() - 1
    for _ in range(e - 1):
        term = poly_mod(F, poly_mul(F, term, term), g)
        acc = poly_add(F, acc, term)
    return poly_gcd(F, acc, g)
