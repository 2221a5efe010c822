"""Cyclotomic integers as plain tuples over 1, z, ..., z^{e-1}, and the
class-triple column formula computed with them.

`chartab.triple_count` reads a count from the class multiplication
constants; Frobenius's character sum here computes it from the lifted
table instead, so the tests hold the table's values and its constants
against each other. The exact inner products of the orthogonality tests
use the same arithmetic.
"""

import math
from functools import cache


class NonIntegerResult(RuntimeError):
    """A count that must be a rational integer failed to reduce to one."""


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


def cyc_mul(a: tuple, b: tuple, e: int) -> tuple:
    out = [0] * e
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                out[(i + j) % e] += x * y
    return tuple(out)


def cyc_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def cyc_scale(a: tuple, s: int) -> tuple:
    return tuple(s * x for x in a)


def cyc_reduce(a: tuple, e: int) -> tuple:
    """Remainder of the vector mod the e-th cyclotomic polynomial."""
    _, r = _zpoly_divmod_exact_leading(tuple(a), cyclotomic_poly(e))
    return r


def cyc_as_integer(a: tuple, e: int):
    """The integer a equals, or None when a is not a rational integer."""
    r = cyc_reduce(a, e)
    if any(r[1:]):
        return None
    return r[0] if r else 0


def tuple_triple_count(table, c1: int, c2: int, c3: int, pair_cache: dict = None) -> int:
    """Number of (x, y, z) in C1 x C2 x C3 with xyz = 1, by the column formula
    on tuples; raises NonIntegerResult when the table's values give no count."""
    e = table.exponent
    L = math.lcm(*table.degrees)
    if pair_cache is not None and (c1, c2) in pair_cache:
        pair = pair_cache[(c1, c2)]
    else:
        pair = [cyc_mul(row[c1], row[c2], e) for row in table.values]
        if pair_cache is not None:
            pair_cache[(c1, c2)] = pair
    total = (0,) * e
    for chi, d in enumerate(table.degrees):
        term = cyc_mul(pair[chi], table.values[chi][c3], e)
        total = cyc_add(total, cyc_scale(term, L // d))
    c = cyc_as_integer(total, e)
    if c is None:
        raise NonIntegerResult("character sum is not a rational integer")
    sizes = table.classes[c1].size * table.classes[c2].size * table.classes[c3].size
    num = sizes * c
    den = table.group.order * L
    if num % den:
        raise NonIntegerResult(f"count {num}/{den} is not an integer")
    n = num // den
    if n < 0:
        raise NonIntegerResult(f"negative count {n}")
    return n
