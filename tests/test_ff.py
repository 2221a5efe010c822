import itertools
import math
import random

import pytest

from fixspace import chartab, ff
from fixspace.ff import (DegreeOutOfRange, DivisorZero, NotPrime, make_field,
                         poly_add, poly_deriv, poly_divides, poly_divmod,
                         poly_eval, poly_gcd, poly_is_irreducible, poly_mul,
                         poly_pow_mod, poly_roots, poly_scale, poly_x,
                         root_multiplicity, squarefree_decomposition)

from fieldoracle import (TupleField, poly_divmod_field, poly_mul_field, poly_norm,
                         poly_pow_mod_field)


def all_elements(F):
    return [F.element(n) for n in range(F.q)]


def test_make_field_validation():
    with pytest.raises(NotPrime):
        make_field(6)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 0)
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 63)
    with pytest.raises(DegreeOutOfRange, match=r"field size 2147483647\^3 is at least 2\*\*62"):
        make_field(2**31 - 1, 3)


def test_gf8_canonical_modulus():
    F = make_field(2, 3)
    # smallest irreducible cubic over GF(2) is x^3 + x + 1
    assert F.modulus == (1, 1, 0, 1)


def test_prime_field_arithmetic_table():
    F = make_field(5)
    for a in range(5):
        for b in range(5):
            assert F.add(a, b) == (a + b) % 5
            assert F.mul(a, b) == (a * b) % 5
            assert F.sub(a, b) == (a - b) % 5


def test_field_axioms_sampled():
    for (p, k) in [(2, 3), (3, 2), (5, 2), (7, 1)]:
        F = make_field(p, k)
        elems = all_elements(F)
        for a in elems:
            assert F.add(a, F.zero) == a
            assert F.mul(a, F.one) == a
            assert F.add(a, F.neg(a)) == F.zero
            if a:
                assert F.mul(a, F.inv(a)) == F.one
        # associativity and distributivity spot checks on a fixed window
        window = elems[: min(len(elems), 9)]
        for a in window:
            for b in window:
                assert F.mul(a, b) == F.mul(b, a)
                for c in window:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_multiplicative_group_order():
    for (p, k) in [(2, 3), (3, 2), (5, 2)]:
        F = make_field(p, k)
        for a in all_elements(F):
            if a:
                assert F.pow(a, F.q - 1) == F.one


def test_pow_negative_exponent():
    F = make_field(7)
    assert F.pow(3, -1) == F.inv(3)
    assert F.pow(3, -2) == F.inv(F.mul(3, 3))
    F2 = make_field(3, 2)
    a = F2.element(5)
    assert F2.mul(F2.pow(a, -3), F2.pow(a, 3)) == F2.one


def test_frobenius_is_pth_power():
    F = make_field(3, 2)
    for a in all_elements(F):
        assert F.frobenius(a) == F.pow(a, 3)
        assert F.frobenius(a, 2) == a


def test_encode_element_roundtrip():
    # an element is its base-p reading; element() is the range check only
    for p, k in [(5, 1), (5, 2), (2, 5), (3, 4)]:
        F, T = make_field(p, k), TupleField(p, k)
        for n in range(F.q):
            assert F.element(n) == n
            assert T.encode(T.element(n)) == n
            if k > 1:
                assert F._digits(n) == list(T.element(n))
                assert F._pack(F._digits(n)) == n
        for bad in (-1, F.q, 1.0, True, (0,) * k):
            with pytest.raises(ValueError):
                F.element(bad)


def test_poly_divmod_recombines():
    F = make_field(5)
    a = (3, 1, 4, 1, 2)
    b = (2, 0, 1)
    q, r = poly_divmod(F, a, b)
    assert poly_add(F, poly_mul(F, q, b), r) == a
    assert len(r) < len(b)


def test_poly_divmod_zero_divisor():
    F = make_field(5)
    with pytest.raises(DivisorZero):
        poly_divmod(F, (1, 2), ())


def test_poly_gcd_of_products():
    F = make_field(7)
    f = (1, 1)        # x + 1
    g = (3, 1)        # x + 3
    h = (2, 5, 1)     # arbitrary quadratic
    a = poly_mul(F, f, h)
    b = poly_mul(F, g, h)
    d = poly_gcd(F, a, b)
    assert poly_divides(F, h, a) and poly_divides(F, h, b)
    assert poly_divides(F, d, a) and poly_divides(F, d, b)
    assert len(d) == len(h)


def test_poly_is_irreducible_quadratics_gf3():
    F = make_field(3)
    # x^2 + 1 has no root mod 3; x^2 + 2 = (x+1)(x+2)
    assert poly_is_irreducible(F, (1, 0, 1))
    assert not poly_is_irreducible(F, (2, 0, 1))
    assert not poly_is_irreducible(F, (0, 1, 1))


def test_poly_roots_sorted_and_complete():
    F = make_field(11)
    # (x - 2)(x - 5)(x - 7)
    f = poly_mul(F, poly_mul(F, (-2 % 11, 1), (-5 % 11, 1)), (-7 % 11, 1))
    assert poly_roots(F, f) == [2, 5, 7]
    for r in [2, 5, 7]:
        assert poly_eval(F, f, r) == 0


def test_poly_roots_extension_field():
    F = make_field(3, 2)
    # x^2 + 1 splits over GF(9)
    roots = poly_roots(F, (F.one, F.zero, F.one))
    assert len(roots) == 2
    for r in roots:
        assert F.add(F.mul(r, r), F.one) == F.zero
    assert roots == sorted(roots)


def test_root_multiplicity():
    F = make_field(5)
    # (x - 1)^3 (x - 2)
    f = (1,)
    for _ in range(3):
        f = poly_mul(F, f, (-1 % 5, 1))
    f = poly_mul(F, f, (-2 % 5, 1))
    assert root_multiplicity(F, f, 1) == 3
    assert root_multiplicity(F, f, 2) == 1
    assert root_multiplicity(F, f, 3) == 0


def test_squarefree_decomposition_char_p_edge():
    F = make_field(3)
    # f = (x^3 - x)^3 = g(x)^3 with g squarefree; derivative vanishes
    g = (0, 2, 0, 1)  # x^3 - x
    f = poly_mul(F, poly_mul(F, g, g), g)
    assert poly_deriv(F, f) == ()
    parts = squarefree_decomposition(F, f)
    recombined = (1,)
    for factor, mult in parts:
        for _ in range(mult):
            recombined = poly_mul(F, recombined, factor)
    assert recombined == f
    for factor, _ in parts:
        d = poly_gcd(F, factor, poly_deriv(F, factor))
        assert len(d) == 1


def test_poly_divides():
    F = make_field(5)
    f = poly_mul(F, (1, 1), (2, 1))
    assert poly_divides(F, (1, 1), f)
    assert not poly_divides(F, (3, 1), f)
    with pytest.raises(DivisorZero, match="zero polynomial divides nothing"):
        poly_divides(F, (), f)


@pytest.mark.parametrize("q", [5, 4])
def test_inverse_of_zero_raises(q):
    with pytest.raises(ZeroDivisionError, match="field inverse of zero"):
        make_field(*ff.prime_power(q)).inv(0)


def test_polynomial_entry_points_refuse_zero_and_non_monic_input():
    F = make_field(5)
    assert not poly_is_irreducible(F, ()) and not poly_is_irreducible(F, (3,))
    assert squarefree_decomposition(F, (1,)) == []
    for call, message in (
            (lambda: poly_is_irreducible(F, (1, 2)), "irreducibility test expects a monic"),
            (lambda: squarefree_decomposition(F, (1, 2)), "squarefree decomposition expects a monic"),
            (lambda: squarefree_decomposition(F, ()), "zero polynomial has no squarefree"),
            (lambda: root_multiplicity(F, (), 1), "zero polynomial"),
            (lambda: poly_roots(F, ()), "zero polynomial")):
        with pytest.raises(ValueError, match=message):
            call()


def test_prime_power_matches_brute_force():
    powers = {}
    for p in filter(ff.is_prime, range(2, 4097)):
        k = 1
        while p ** k <= 4096:
            powers[p ** k] = (p, k)
            k += 1
    for q in range(2, 4097):
        if q in powers:
            assert ff.prime_power(q) == powers[q]
        else:
            with pytest.raises(ValueError):
                ff.prime_power(q)
    for q in (-4, 0, 1):
        with pytest.raises(ValueError):
            ff.prime_power(q)


def brute_order(F, x):
    k, y = 1, x
    while y != F.one:
        y = F.mul(y, x)
        k += 1
    return k


def test_multiplicative_generator_has_full_order():
    for q in range(2, 257):
        try:
            p, k = ff.prime_power(q)
        except ValueError:
            continue
        F = make_field(p, k)
        g = ff.multiplicative_generator(F)
        assert brute_order(F, g) == q - 1, q
        # and no smaller nonzero encoding generates
        assert all(brute_order(F, F.element(n)) < q - 1
                   for n in range(1, g)), q


def test_multiplicative_order_matches_loop():
    for n in range(1, 80):
        for a in range(-n, 2 * n):
            if math.gcd(a, n) != 1:
                with pytest.raises(ValueError):
                    ff.multiplicative_order(a, n)
                continue
            k = 1
            while pow(a, k, n) != 1 % n:
                k += 1
            assert ff.multiplicative_order(a, n) == k, (a, n)


def test_poly_pow_mod_rejects_negative_exponent():
    F = make_field(7)
    with pytest.raises(ValueError, match="negative exponent"):
        poly_pow_mod(F, poly_x(F), -1, (1, 0, 1))


@pytest.mark.parametrize("q", [7, 9])
def test_poly_pow_mod_is_reduced_for_every_exponent(q):
    # modulo a nonzero constant every power is 0, a^0 included
    F = make_field(*ff.prime_power(q))
    unit = F.element(3)
    assert poly_pow_mod(F, poly_x(F), 0, (unit,)) == ()
    assert poly_pow_mod(F, poly_x(F), 5, (unit,)) == ()
    m = (F.one, F.zero, F.one)
    assert poly_pow_mod(F, poly_x(F), 0, m) == (F.one,)
    assert poly_pow_mod(F, poly_x(F), 2, m) == (F.neg(F.one),)


# prime fields the int path serves: the smallest ones and the Dixon prime
# of a group of order 2520 and exponent 420
ORACLE_PRIMES = [2, 3, 7, chartab._dixon_prime(2520, 420)]


def oracle_polys(p, rng):
    """The zero polynomial, constants, and seeded polynomials of degree up
    to 7 whose leading coefficient is any nonzero residue."""
    polys = [(), (1,), (p - 1,), (rng.randrange(1, p),)]
    for _ in range(24):
        deg = rng.randrange(1, 8)
        polys.append(tuple(rng.randrange(p) for _ in range(deg)) + (rng.randrange(1, p),))
    return polys


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_prime_field_int_path_matches_field_loop(p, monkeypatch):
    F = make_field(p)
    rng = random.Random(p)
    polys = oracle_polys(p, rng)
    if p > 2:
        assert any(len(b) > 1 and b[-1] != 1 for b in polys)
    pairs = [(a, b) for a in polys for b in polys[::3]]

    def results():
        out = []
        for a, b in pairs:
            out.append(poly_mul(F, a, b))
            out.append(poly_gcd(F, a, b))
            if b:
                out.append(poly_divmod(F, a, b))
        return out

    ints = results()
    # the reference: every prime-field product and division on the method loop
    T = TupleField(p)
    monkeypatch.setattr(ff, "_poly_mul_mod", lambda _, a, b: poly_mul_field(T, a, b))
    monkeypatch.setattr(ff, "_poly_divmod_mod", lambda _, a, b: poly_divmod_field(T, a, b))
    assert results() == ints


# poly_pow_mod packs residues modulo a prime-field modulus of degree >= 2
# into ints; square and multiply on the tuple field's loops is the
# reference. The primes: the smallest, the Dixon primes of A7 and A8, and
# 2^31 - 1, whose slots are the widest.
POW_PRIMES = [2, 3, 7, chartab._dixon_prime(2520, 420), chartab._dixon_prime(20160, 420),
              2**31 - 1]


@pytest.mark.parametrize("p", POW_PRIMES)
def test_packed_pow_mod_matches_field_loop(p):
    F, T = make_field(p), TupleField(p)
    rng = random.Random(p)
    exponents = [0, 1, 2, p, p * p + 3, rng.randrange(2, 2 * p)]
    lead = 0
    for d in range(2, 17):
        m = tuple(rng.randrange(p) for _ in range(d)) + (rng.randrange(1, p) if d % 2 else 1,)
        lead |= m[-1] != 1
        # a base shorter than the modulus and one longer
        for n in (rng.randrange(1, d + 1), rng.randrange(d + 2, 2 * d + 3)):
            a = tuple(rng.randrange(p) for _ in range(n - 1)) + (rng.randrange(1, p),)
            for e in exponents:
                assert poly_pow_mod(F, a, e, m) == poly_pow_mod_field(T, a, e, m), (p, d, n, e)
    assert lead or p == 2


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_poly_roots_of_distinct_linear_factors(p):
    F = make_field(p)
    rng = random.Random(p)
    for _ in range(6):
        roots = rng.sample(range(p), min(p, rng.randrange(1, 9)))
        f = (rng.randrange(1, p),)
        for r in roots:
            f = poly_mul(F, f, ((-r) % p, 1))
        assert poly_roots(F, f) == sorted(roots)


# over GF(2^k) the roots are split by traces, not by (q - 1)/2-th powers;
# evaluation at every element is the reference
@pytest.mark.parametrize("q", [4, 8, 16, 256])
def test_poly_roots_of_distinct_linear_factors_in_characteristic_two(monkeypatch, q):
    F = make_field(2, q.bit_length() - 1)
    splits, even_splitter = [], ff._even_splitter
    monkeypatch.setattr(ff, "_even_splitter",
                        lambda *args: splits.append(args) or even_splitter(*args))
    rng = random.Random(q)
    for _ in range(35):
        f = (rng.randrange(1, q),)
        for r in rng.sample(range(q), rng.randrange(1, min(q, 9) + 1)):
            f = poly_mul(F, f, (F.neg(r), F.one))
        assert poly_roots(F, f) == [a for a in range(q) if poly_eval(F, f, a) == 0]
    assert splits


# scale_vec and add_scaled are the row operations of linalg, matrep and the
# GF(p^k) polynomial loops; the tuple field's method loops are the reference
@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 4, 8, 9, 16, 25, 49])
def test_row_operations_match_field_loop(q):
    F, T = make_field(*ff.prime_power(q)), TupleField(*ff.prime_power(q))
    rng = random.Random(200 + q)
    for n in (1, 3, 4, 8):
        for density in (100, 30, 0):
            v, w = ([rng.randrange(1, q) if rng.randrange(100) < density else 0
                     for _ in range(n)] for _ in range(2))
            c = rng.randrange(q)
            (tv, tw), tc = T.lift([v, w]), T.element(c)
            assert ff.scale_vec(F, c, v) == T.drop([[T.mul(tc, x) for x in tv]])[0]
            assert ff.add_scaled(F, v, c, w) == \
                T.drop([[T.add(x, T.mul(tc, y)) for x, y in zip(tv, tw)]])[0]


def poly_gcd_field(T, a, b):
    """Monic gcd by Euclid on the tuple field's division loop."""
    while b:
        a, b = b, poly_divmod_field(T, a, b)[1]
    return tuple(T.mul(T.inv(a[-1]), c) for c in a) if a else ()


# over GF(p^k) products and divisions run on the row operations; the tuple
# field's loops are the reference, on seeded operands of degree 0 to 24 and
# monic, non-monic and linear divisors
@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 256])
def test_extension_field_polynomials_match_field_loop(q):
    F, T = make_field(*ff.prime_power(q)), TupleField(*ff.prime_power(q))
    rng = random.Random(q)

    def lift(f):
        return tuple(T.element(c) for c in f)

    def drop(f):
        return tuple(T.encode(c) for c in f)

    def rand_poly(deg, lead):
        return tuple(rng.randrange(q) for _ in range(deg)) + (lead,)

    polys = [(), (1,), (rng.randrange(2, q),)]
    polys += [rand_poly(rng.randrange(1, 25), rng.randrange(1, q)) for _ in range(9)]
    divisors = [(rng.randrange(2, q),), rand_poly(1, 1), rand_poly(1, rng.randrange(2, q)),
                rand_poly(rng.randrange(2, 9), 1), rand_poly(rng.randrange(2, 9), rng.randrange(2, q)),
                rand_poly(rng.randrange(9, 20), rng.randrange(2, q))]
    for a in polys:
        s = rng.randrange(q)
        assert poly_scale(F, a, s) == drop(poly_norm(T, [T.mul(T.element(s), c) for c in lift(a)]))
        for b in polys[::2]:
            assert poly_mul(F, a, b) == drop(poly_mul_field(T, lift(a), lift(b))), (a, b)
            assert poly_gcd(F, a, b) == drop(poly_gcd_field(T, lift(a), lift(b))), (a, b)
        for b in divisors:
            quo, rem = poly_divmod_field(T, lift(a), lift(b))
            assert poly_divmod(F, a, b) == (drop(quo), drop(rem)), (a, b)
            assert poly_gcd(F, a, b) == drop(poly_gcd_field(T, lift(a), lift(b))), (a, b)
    for m in divisors:
        for a in polys[:3] + polys[-2:]:
            for e in (0, 1, 2, q, rng.randrange(q, q * q)):
                got = poly_pow_mod(F, a, e, m)
                assert got == drop(poly_pow_mod_field(T, lift(a), e, lift(m))), (a, e, m)


# squarefree decomposition of (x - a)^i (x - b)^j g^k, g an irreducible
# quadratic: multiplicities divisible by p beside ones that are not. The
# reference counts each monic irreducible of degree <= 2 by trial division.
@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_squarefree_decomposition_matches_trial_division(q):
    F = make_field(*ff.prime_power(q))
    monic = [low + (F.one,) for n in (1, 2) for low in itertools.product(range(q), repeat=n)]
    irreducible = [f for f in monic
                   if len(f) == 2 or all(poly_eval(F, f, x) for x in range(q))]
    g = irreducible[q]   # the first quadratic
    assert len(g) == 3
    rng = random.Random(q)
    a, b = rng.sample(range(q), 2)
    top = 2 * F.p + 2
    for i, j, k in itertools.product(range(top), repeat=3):
        f = (F.one,)
        for h, e in (((F.neg(a), F.one), i), ((F.neg(b), F.one), j), (g, k)):
            for _ in range(e):
                f = poly_mul(F, f, h)
        parts = {}
        for h in irreducible:
            m, r = 0, f
            while True:
                r, rem = poly_divmod(F, r, h)
                if rem:
                    break
                m += 1
            if m:
                parts[m] = poly_mul(F, parts.get(m, (F.one,)), h)
        assert squarefree_decomposition(F, f) == [(h, m) for m, h in sorted(parts.items())], \
            (i, j, k)


# poly_roots splits in rounds; evaluation at every element is the reference.
# Every monic polynomial of degree <= 3 includes the products of a linear
# factor and an irreducible quadratic, and those with repeated roots.
@pytest.mark.parametrize("q", [3, 5, 7, 9, 25])
def test_poly_roots_of_every_small_monic_polynomial_match_evaluation(q):
    F = make_field(*ff.prime_power(q))
    shapes = set()
    for n in range(4):
        for low in itertools.product(range(q), repeat=n):
            f = low + (F.one,)
            found = [a for a in range(q) if poly_eval(F, f, a) == 0]
            assert poly_roots(F, f) == found, f
            shapes.add((n, len(found)))
    # a cubic with one root times an irreducible quadratic or a double root
    assert (3, 1) in shapes and (3, 2) in shapes and (2, 0) in shapes


@pytest.mark.parametrize("q", [11, 13])
def test_poly_roots_of_seeded_factored_polynomials_match_evaluation(q):
    F = make_field(q)
    rng = random.Random(q)
    for _ in range(150):
        # monic factors of degree 1 and 2, repeats allowed, up to degree 6
        f, n = (rng.randrange(1, q),), rng.randrange(1, 7)
        while len(f) <= n:
            k = rng.randrange(1, min(2, n + 1 - len(f)) + 1)
            f = poly_mul(F, f, tuple(rng.randrange(q) for _ in range(k)) + (1,))
        assert poly_roots(F, f) == [a for a in range(q) if poly_eval(F, f, a) == 0], f


# split products of degree 14 to 20 at the Dixon primes of A8 and L2(13),
# with repeated roots and an irreducible quadratic x^2 - n, n a non-residue
@pytest.mark.parametrize("l", [chartab._dixon_prime(20160, 420), chartab._dixon_prime(1092, 546)])
def test_poly_roots_of_seeded_split_products_at_dixon_primes(l):
    F = make_field(l)
    rng = random.Random(l)
    n = next(n for n in range(2, l) if pow(n, (l - 1) // 2, l) == l - 1)
    for deg in range(14, 21):
        roots = rng.sample(range(l), deg - 6) + [0] * (deg % 2)
        roots += rng.choices(roots, k=deg - 2 - len(roots))
        f = ((-n) % l, 0, 1)
        for r in roots:
            f = poly_mul(F, f, ((-r) % l, 1))
        assert len(f) == deg + 1
        assert poly_roots(F, poly_mul(F, f, (rng.randrange(1, l),))) == sorted(set(roots))


# brute-force factor search is the reference for irreducibility
@pytest.mark.parametrize("q, top", [(2, 4), (3, 4), (9, 2), (25, 2)])
def test_poly_is_irreducible_matches_factor_search(q, top):
    F, T = make_field(*ff.prime_power(q)), TupleField(*ff.prime_power(q))

    def lift(f):
        return tuple(T.element(c) for c in f)

    divisors = [lift(low + (1,)) for n in range(1, top // 2 + 1)
                for low in itertools.product(range(q), repeat=n)]
    verdicts = set()
    for n in range(1, top + 1):
        for low in itertools.product(range(q), repeat=n):
            f = low + (F.one,)
            brute = not any(poly_divmod_field(T, lift(f), g)[1] == ()
                            for g in divisors if 2 * (len(g) - 1) <= n)
            assert poly_is_irreducible(F, f) == brute, f
            verdicts.add((n, brute))
    assert (top, True) in verdicts and (top, False) in verdicts


# GF(p^k) elements are ints; the tuple field in fieldoracle is the reference
# for the tables and for the FieldCtx operations that read them

def assert_ops_match(F, T, x, y):
    a, b = T.element(x), T.element(y)
    assert F.add(x, y) == T.encode(T.add(a, b))
    assert F.sub(x, y) == T.encode(T.sub(a, b))
    assert F.neg(x) == T.encode(T.neg(a))
    assert F.mul(x, y) == T.encode(T.mul(a, b))
    if x:
        assert F.inv(x) == T.encode(T.inv(a))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_tables_match_tuple_oracle_on_every_pair(q):
    F, T = make_field(*ff.prime_power(q)), TupleField(*ff.prime_power(q))
    ADD, SUB, MUL, INV = F.tables()
    el = [T.element(n) for n in range(q)]
    for x in range(q):
        assert list(ADD[x]) == [T.encode(T.add(el[x], b)) for b in el]
        assert list(SUB[x]) == [T.encode(T.sub(el[x], b)) for b in el]
        assert list(MUL[x]) == [T.encode(T.mul(el[x], b)) for b in el]
        if x:
            assert INV[x] == T.encode(T.inv(el[x]))
        for y in range(q):
            assert_ops_match(F, T, x, y)
    assert F.tables() is F.tables()


@pytest.mark.parametrize("q", [49, 64, 81, 125, 169, 243, 256])
def test_tables_match_tuple_oracle_on_samples(q):
    F, T = make_field(*ff.prime_power(q)), TupleField(*ff.prime_power(q))
    ADD, SUB, MUL, INV = F.tables()
    rng = random.Random(q)
    for _ in range(400):
        x, y = rng.randrange(q), rng.randrange(q)
        a, b = T.element(x), T.element(y)
        assert ADD[x][y] == T.encode(T.add(a, b))
        assert SUB[x][y] == T.encode(T.sub(a, b))
        assert MUL[x][y] == T.encode(T.mul(a, b))
        if x:
            assert INV[x] == T.encode(T.inv(a))
        assert_ops_match(F, T, x, y)


# above the cap a GF(p^k), k > 1, has pow (digit polynomials over GF(p)),
# frobenius and element; every other operation names the cap
@pytest.mark.parametrize("p, k", [(2, 9), (3, 6), (5, 4), (7, 3), (101, 2), (2, 16)])
def test_digit_arithmetic_above_the_table_cap_matches_tuple_oracle(p, k):
    F, T = make_field(p, k), TupleField(p, k)
    rng = random.Random(p * 100 + k)
    for _ in range(200):
        x, e = rng.randrange(1, F.q), rng.randrange(40)
        a = T.element(x)
        assert F.pow(x, e) == T.encode(T.pow(a, e))
        assert F.pow(x, -e) == T.encode(T.pow(T.inv(a), e))
        assert F.frobenius(x) == T.encode(T.pow(a, p))
    assert F.pow(0, 0) == 1 and F.pow(0, 3) == 0
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)
    for op, args in (("add", (1, 2)), ("sub", (1, 2)), ("neg", (1,)),
                     ("mul", (2, 3)), ("inv", (2,)), ("tables", ())):
        with pytest.raises(ValueError, match=f"no tables.* {ff.TABLE_CAP}"):
            getattr(F, op)(*args)
    with pytest.raises(ValueError, match="no tables"):
        make_field(p).tables()


# pow over GF(p^k) runs poly_pow_mod's packed kernel at degree k; square and
# multiply on the tuple field, checked against its repeated product, is the
# reference at exponents up to q^2
@pytest.mark.parametrize("p, k", [(3, 6), (10007, 2), (2, 16)])
def test_pow_above_the_table_cap_matches_tuple_oracle_at_large_exponents(p, k):
    F, T = make_field(p, k), TupleField(p, k)
    rng = random.Random(p * 100 + k)
    for _ in range(60):
        x = rng.randrange(1, F.q)
        a = T.element(x)
        e = rng.randrange(40)
        assert T.power(a, e) == T.pow(a, e)
        for e in (F.q - 2, F.q - 1, rng.randrange(F.q, F.q * F.q)):
            assert F.pow(x, e) == T.encode(T.power(a, e)), (x, e)


@pytest.mark.parametrize("q", [7, 9])
def test_poly_deriv_of_monomials_reads_the_exponent_mod_p(q):
    F = make_field(*ff.prime_power(q))
    for i in range(1, 3 * F.p + 2):
        monomial = (0,) * i + (F.one,)
        # d/dx x^i = (i mod p) x^(i-1): the constant i mod p, an int below p
        expected = (0,) * (i - 1) + (i % F.p,) if i % F.p else ()
        assert poly_deriv(F, monomial) == expected, (q, i)
